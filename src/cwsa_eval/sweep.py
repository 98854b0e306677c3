"""Dense threshold sweeps and the area summaries of their metric-coverage curves.

A sweep evaluates the threshold-local metrics at every grid point, in one
blocked pass over the records, and the whole-set baselines once, then
summarizes each metric-coverage curve by its normalized trapezoidal area
so models with different abstention behavior stay comparable under a
single scalar.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import kernels
from .baselines import BinningSpec, baseline_scalars
from .core import EvaluationSet, validate_threshold
from .metrics import PointMetrics, _point_from_sums

__all__ = [
    "THRESHOLD_METRICS",
    "CURVE_METRICS",
    "InsufficientDataError",
    "ThresholdGrid",
    "SweepReport",
    "sweep",
    "aumcc",
    "rank",
]

# Metrics that get a curve and an area summary in every sweep report.
THRESHOLD_METRICS = ("cwsa", "cwsa_plus", "selective_accuracy")
# Coverage is carried as a curve of its own for plotting, but a
# coverage-vs-coverage area would be meaningless, so it gets no scalar.
CURVE_METRICS = THRESHOLD_METRICS + ("coverage",)

# Upper limit on the number of thresholds in a ``ThresholdGrid``.
MAX_GRID_POINTS = 100_000


class InsufficientDataError(ValueError):
    """A curve does not span enough distinct coverage to integrate."""


@dataclass(frozen=True)
class ThresholdGrid:
    """Evenly spaced thresholds ``start, start+step, ..., <= end``.

    Thresholds are generated by integer multiples of ``step`` (rounded to
    10 decimals) so the default 0.50..0.99 grid is exactly 50 clean
    points with no accumulated float drift.  Before rounding, no threshold
    lies more than 1e-12 above ``end``.  A grid holds at most
    ``MAX_GRID_POINTS`` thresholds; the count is checked before any
    threshold is built.  The last threshold must still lie below 1 after
    rounding.
    """

    start: float = 0.50
    end: float = 0.99
    step: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= self.end < 1.0:
            raise ValueError(
                f"grid must satisfy 0 <= start <= end < 1, got [{self.start}, {self.end}]"
            )
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be finite and positive, got {self.step}")
        # Compared as a float first: an extreme quotient may be inf.
        steps = (self.end - self.start) / self.step + 1e-9
        if steps >= MAX_GRID_POINTS:
            raise ValueError(
                f"grid [{self.start}, {self.end}] with step {self.step} has more than "
                f"{MAX_GRID_POINTS} thresholds"
            )
        count = int(math.floor(steps)) + 1
        # The 1e-9 slack absorbs the quotient's float drift, but also takes
        # one step too many when end lies just below a multiple of step.
        # The float drift of start + i * step stays far below 1e-12, which
        # lies far below the 10-decimal rounding of the thresholds.
        if self.start + (count - 1) * self.step - self.end > 1e-12:
            count -= 1
        last = round(self.start + (count - 1) * self.step, 10)
        if last >= 1.0:
            raise ValueError(
                f"grid [{self.start}, {self.end}] with step {self.step} has a threshold "
                f"that rounds to {last}, which is not below 1"
            )
        object.__setattr__(self, "_count", count)

    def thresholds(self) -> List[float]:
        return [round(self.start + i * self.step, 10) for i in range(self._count)]

    def __len__(self) -> int:
        return self._count

    @classmethod
    def parse(cls, text: str) -> "ThresholdGrid":
        """Parse a ``start:end:step`` CLI string."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must look like start:end:step, got {text!r}")
        try:
            start, end, step = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"grid must be three numbers start:end:step, got {text!r}") from None
        return cls(start=start, end=end, step=step)


@dataclass
class SweepReport:
    """The per-threshold metrics and scalar summaries of one evaluation set
    on one grid; ``points`` follow the grid's order."""

    source_id: str
    grid: ThresholdGrid
    points: List[PointMetrics]
    scalars: Dict[str, Optional[float]] = field(default_factory=dict)


def _collapse_by_coverage(
    coverages: Sequence[float], values: Sequence[Optional[float]]
) -> List[Tuple[float, float]]:
    """Defined points as (coverage, value), coverage ascending, duplicates averaged.

    Group means use exact summation so the result does not depend on the
    order the points were supplied in.
    """
    if len(coverages) != len(values):  # zip would drop the unmatched points
        raise ValueError(f"got {len(coverages)} coverages but {len(values)} values")
    usable = [(c, v) for c, v in zip(coverages, values) if v is not None]
    usable.sort(key=lambda cv: cv[0])
    collapsed: List[Tuple[float, float]] = []
    for coverage, group in itertools.groupby(usable, key=lambda cv: cv[0]):
        group_values = [v for _, v in group]
        collapsed.append((coverage, math.fsum(group_values) / len(group_values)))
    return collapsed


def aumcc(coverages: Sequence[float], values: Sequence[Optional[float]]) -> float:
    """Area under the metric-coverage curve, normalized by the coverage span.

    ``coverages[i]`` and ``values[i]`` form one point, in any order.
    Points are taken in coverage-ascending order; points sharing a
    coverage (plateaus where no record enters or leaves) are averaged
    into one; undefined (``None``) points are dropped, and fewer than two
    defined points is an error.  Dividing the trapezoidal area by the
    spanned coverage turns the result into a mean height, so models
    covering different ranges remain comparable.  A curve whose coverage
    never moves collapses to a single point and the mean height is just
    its (averaged) value.
    """
    area = _curve_scalar(coverages, values)
    usable = sum(1 for v in values if v is not None)
    if usable < 2:
        raise InsufficientDataError(f"curve has {usable} defined point(s); need at least 2")
    return area


def _curve_scalar(coverages: Sequence[float], values: Sequence[Optional[float]]) -> Optional[float]:
    """Sweep-report scalar for a curve: the area summary of :func:`aumcc`.

    Degenerate curves fall back gracefully: a single defined point (a
    one-threshold grid) yields that value and an all-undefined curve
    yields ``None`` instead of an error.
    """
    collapsed = _collapse_by_coverage(coverages, values)
    if not collapsed:
        return None
    if len(collapsed) == 1:
        return collapsed[0][1]
    area = math.fsum(
        (v0 + v1) * 0.5 * (c1 - c0)
        for (c0, v0), (c1, v1) in zip(collapsed, collapsed[1:])
    )
    return area / (collapsed[-1][0] - collapsed[0][0])


def sweep(
    dataset: EvaluationSet,
    grid: ThresholdGrid = ThresholdGrid(),
    bins: BinningSpec = BinningSpec(),
) -> SweepReport:
    """Evaluate every metric across ``grid`` and summarize.

    The sums for every threshold come from one blocked pass over the
    records (:func:`kernels.sweep_accumulate`), which never sorts; each
    point equals ``point_metrics(dataset, tau)`` bit for bit.  The
    whole-set baselines are computed once, from one sort and one binning.
    """
    taus = [validate_threshold(t) for t in grid.thresholds()]
    sums = kernels.sweep_accumulate(dataset.confidence, dataset.correct_u8, taus)
    n = len(dataset)
    points = [_point_from_sums(tau, n, s) for tau, s in zip(taus, sums)]
    coverages = [p.coverage for p in points]
    scalars: Dict[str, Optional[float]] = {
        f"auc_mcc_{name}": _curve_scalar(coverages, [getattr(p, name) for p in points])
        for name in THRESHOLD_METRICS
    }
    scalars.update(baseline_scalars(dataset, bins))
    return SweepReport(source_id=dataset.source_id, grid=grid, points=points, scalars=scalars)


def rank(
    reports: Sequence[SweepReport], by: str = "cwsa_plus"
) -> List[Tuple[str, Optional[float]]]:
    """Order reports by the chosen metric's area summary, best first.

    All reports must share the same grid.  Ties (and undefined scalars,
    which sort last) break lexicographically by source id, so the
    ordering is deterministic.
    """
    if by not in THRESHOLD_METRICS:
        raise ValueError(f"cannot rank by {by!r}; choose one of {THRESHOLD_METRICS}")
    if not reports:
        raise ValueError("need at least one report to rank")
    grid = reports[0].grid
    for r in reports[1:]:
        if r.grid != grid:
            raise ValueError(
                f"incompatible reports: {r.source_id!r} uses grid {r.grid}, expected {grid}"
            )
    key = f"auc_mcc_{by}"
    entries = [(r.source_id, r.scalars.get(key)) for r in reports]
    entries.sort(
        key=lambda e: (e[1] is None, -(e[1] if e[1] is not None else 0.0), e[0])
    )
    return entries
