"""Classical comparison metrics: calibration error, Brier score and the
risk-coverage family.

These are whole-set summaries (no abstention threshold): they are the
baselines the weighted selective scores are judged against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .core import EvaluationSet, _entries
from .kernels import sequential_sum

__all__ = [
    "BinningSpec",
    "RiskCoveragePoint",
    "ece",
    "mce",
    "brier",
    "aurc",
    "eaurc",
    "baseline_scalars",
    "risk_coverage_points",
]

# Upper limit on ``BinningSpec.bin_count``; every bin is allocated up front.
MAX_BIN_COUNT = 100_000


@dataclass(frozen=True)
class BinningSpec:
    """Equal-width confidence binning over [0, 1] for calibration error.

    A confidence c falls in bin k of b when k/b <= c < (k+1)/b, each bound
    a rounded quotient; the top bin is closed at 1.0.  Per-bin confidence
    is the mean of the member confidences, not the bin midpoint.  15 bins
    is the common convention.  At most ``MAX_BIN_COUNT`` bins.
    """

    bin_count: int = 15

    def __post_init__(self) -> None:
        if not 1 <= self.bin_count <= MAX_BIN_COUNT:
            raise ValueError(
                f"bin_count must be in [1, {MAX_BIN_COUNT}], got {self.bin_count}"
            )


class RiskCoveragePoint(NamedTuple):
    """One prefix of the confidence-descending ordering.

    ``coverage`` is k/n for a prefix of size k and ``risk`` is the error
    rate within that prefix.  An immutable tuple: it unpacks and compares
    equal to ``(coverage, risk)``.
    """

    coverage: float
    risk: float


def _calibration_errors(dataset: EvaluationSet, bins: BinningSpec) -> Tuple[float, float]:
    """(ECE, MCE) from one binning, over the non-empty bins."""
    b = bins.bin_count
    conf = dataset.confidence
    idx = np.minimum((conf * b).astype(np.int64), b - 1)  # conf * b rounds: corrected below
    bounds = np.append(np.arange(b) / b, np.inf)  # the rounded k/b; the top bin holds 1.0
    idx[conf < bounds[idx]] -= 1  # by one, so that k/b <= conf < (k+1)/b
    idx[conf >= bounds[1:][idx]] += 1
    counts = np.bincount(idx, minlength=b).astype(np.float64)
    sum_correct = np.bincount(idx, weights=dataset.correct_u8, minlength=b)
    sum_conf = np.bincount(idx, weights=conf, minlength=b)
    occupied = counts > 0
    acc = sum_correct[occupied] / counts[occupied]
    avg_conf = sum_conf[occupied] / counts[occupied]
    gaps = np.abs(acc - avg_conf)
    return float(np.sum((counts[occupied] / len(dataset)) * gaps)), float(gaps.max())


def ece(dataset: EvaluationSet, bins: BinningSpec = BinningSpec()) -> float:
    """Expected calibration error: occupancy-weighted mean gap between
    per-bin accuracy and per-bin mean confidence."""
    return _calibration_errors(dataset, bins)[0]


def mce(dataset: EvaluationSet, bins: BinningSpec = BinningSpec()) -> float:
    """Maximum calibration error: the largest per-bin gap."""
    return _calibration_errors(dataset, bins)[1]


def brier(dataset: EvaluationSet) -> float:
    """Top-1 Brier score: mean squared gap between confidence and correctness.

    Uses the binary (confidence vs. correctness-indicator) form since the
    record model keeps only the top-1 confidence, not the full
    probability vector.
    """
    gaps = dataset.confidence - dataset.correct_u8
    return float(np.mean(np.multiply(gaps, gaps, out=gaps)))


def _descending_order(confidence: np.ndarray) -> np.ndarray:
    """The permutation that orders ``confidence`` descending, input order breaking ties.

    ``(-confidence, index)`` is a total order, so this is the stable
    sort's permutation.  It comes from one unstable ascending sort, read
    backwards; only when that leaves equal confidences side by side does
    a second sort, of the int64 keys ``run * n + index``, put each run of
    equal values back in input order.
    """
    order = np.argsort(confidence)[::-1]
    ranked = confidence[order]
    tied = ranked[1:] == ranked[:-1]  # 0.0 equals -0.0: one run, as in a stable sort
    del ranked
    if tied.any():
        n = len(order)
        run = np.zeros(n, dtype=np.int64)
        np.cumsum(~tied, out=run[1:])
        run *= n  # keys stay below 2**63 while n < 3e9
        order = np.sort(run + order)
        order -= run
    return order


def _prefix_risks(dataset: EvaluationSet) -> np.ndarray:
    """Error rate of every confidence-descending prefix, input order breaking ties."""
    wrong = np.cumsum(dataset.correct_u8[_descending_order(dataset.confidence)] == 0)
    k = np.arange(1, len(dataset) + 1, dtype=np.float64)
    return np.divide(wrong, k, out=k)


def aurc(dataset: EvaluationSet) -> float:
    """Area under the risk-coverage curve.

    Records are ordered by descending confidence, input order breaking
    ties: one total order, taken from an unstable sort (see
    ``_descending_order``).  The score is the mean error rate over all
    prefixes k = 1..n.  The final reduction is sequential so the result
    matches a naive per-prefix loop bit for bit.
    """
    return sequential_sum(_prefix_risks(dataset)) / len(dataset)


def _oracle_area(dataset: EvaluationSet) -> float:
    """AURC of the best ordering, which puts every correct record first.

    Its prefix risks are ``max(0, k - n_correct) / k``, elementwise below
    the actual ones, which keeps E-AURC non-negative even in floating point.
    Only those past ``n_correct`` are summed: the rest are ``+0.0``.
    """
    n = len(dataset)
    n_correct = int(dataset.correct_u8.sum())
    k = np.arange(n_correct + 1, n + 1, dtype=np.float64)
    return sequential_sum(np.divide(k - n_correct, k, out=k)) / n


def eaurc(dataset: EvaluationSet) -> float:
    """Excess AURC over the best achievable ordering."""
    return aurc(dataset) - _oracle_area(dataset)


def baseline_scalars(dataset: EvaluationSet, bins: BinningSpec = BinningSpec()) -> Dict[str, float]:
    """ECE, MCE, Brier, AURC and E-AURC in report order, from one binning
    and one confidence sort; each equals its single-metric function."""
    ece_value, mce_value = _calibration_errors(dataset, bins)
    area = aurc(dataset)
    return {
        "ece": ece_value,
        "mce": mce_value,
        "brier": brier(dataset),
        "aurc": area,
        "eaurc": area - _oracle_area(dataset),
    }


def risk_coverage_points(dataset: EvaluationSet) -> List[RiskCoveragePoint]:
    """The full risk-coverage curve as prefix points, coverage ascending.

    The risks are computed as one array, and the coverages a chunk at a
    time (k/n is correctly rounded either way, so it equals ``(i + 1) / n``);
    the points are then built a chunk at a time without a Python call per
    record, with the cyclic garbage collector held off meanwhile.
    """
    n = len(dataset)
    risks = _prefix_risks(dataset)
    return _entries(RiskCoveragePoint, n, lambda lo, hi: zip(
        (np.arange(lo + 1, hi + 1, dtype=np.float64) / n).tolist(), risks[lo:hi].tolist()))
