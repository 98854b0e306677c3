"""Threshold-local, confidence-weighted selective accuracy metrics.

The two headline scores reward confident correctness; the signed variant
additionally penalizes confident mistakes:

* ``cwsa``  - mean of weight * (+1 for correct, -1 for wrong) over the
  retained records; lives in [-1, 1].
* ``cwsa_plus`` - mean weight contributed by the retained *correct*
  records only; lives in [0, 1].

At one threshold both come from one pass over the record arrays; a
sweep gets every threshold of its grid from one blocked pass.  Neither
sorts, and both return 0 on an empty retained set.  Plain selective
accuracy is undefined there (``None``), a 0/0 case that must not read as
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from . import kernels
from .core import EvaluationSet, _entries, validate_threshold

__all__ = [
    "PointMetrics",
    "GradientEntry",
    "GRADIENT_INTERIOR",
    "GRADIENT_KINK",
    "GRADIENT_ABSTAINED",
    "point_metrics",
    "cwsa",
    "cwsa_plus",
    "selective_accuracy",
    "cwsa_generalized",
    "cwsa_gradient",
]


@dataclass(frozen=True)
class PointMetrics:
    """All threshold-local metrics for one threshold.

    ``selective_accuracy`` is ``None`` when nothing was retained; the
    weighted scores are defined as 0 in that regime.
    """

    tau: float
    coverage: float
    selective_accuracy: Optional[float]
    cwsa: float
    cwsa_plus: float
    retained_count: int


def point_metrics(dataset: EvaluationSet, tau: float) -> PointMetrics:
    """Evaluate coverage, selective accuracy and both weighted scores at ``tau``.

    Runs a single accumulation pass over the record arrays, touching each
    record once and never sorting, so cost is linear in ``len(dataset)``
    for any threshold.  A sweep over many thresholds takes its sums from
    :func:`kernels.sweep_accumulate` instead, and gets the same values.
    """
    tau = validate_threshold(tau)
    sums = kernels.point_accumulate(dataset.confidence, dataset.correct_u8, tau)
    return _point_from_sums(tau, len(dataset), sums)


def _point_from_sums(tau: float, n: int, sums) -> PointMetrics:
    """Metrics at ``tau`` of an ``n``-record set from the kernel sums
    ``(retained, hits, s_correct, s_wrong)``."""
    retained, hits, s_correct, s_wrong = sums
    if retained == 0:
        return PointMetrics(
            tau=tau,
            coverage=0.0,
            selective_accuracy=None,
            cwsa=0.0,
            cwsa_plus=0.0,
            retained_count=0,
        )
    return PointMetrics(
        tau=tau,
        coverage=retained / n,
        selective_accuracy=hits / retained,
        cwsa=(s_correct - s_wrong) / retained,
        cwsa_plus=s_correct / retained,
        retained_count=retained,
    )


def cwsa(dataset: EvaluationSet, tau: float) -> float:
    """Signed confidence-weighted selective accuracy at ``tau``.

    Mean over retained records of ``weight * (+1 if correct else -1)``
    where the weight is ``(confidence - tau) / (1 - tau)``.  Confident
    mistakes therefore pull the score down exactly as hard as equally
    confident hits pull it up.  Returns 0.0 when nothing is retained.
    """
    return point_metrics(dataset, tau).cwsa


def cwsa_plus(dataset: EvaluationSet, tau: float) -> float:
    """Normalized confidence-weighted selective accuracy at ``tau``.

    Sum of the weights of the retained *correct* records divided by the
    retained count: wrong records contribute nothing but still dilute the
    denominator.  Bounded in [0, 1]; returns 0.0 when nothing is retained.
    """
    return point_metrics(dataset, tau).cwsa_plus


def selective_accuracy(dataset: EvaluationSet, tau: float) -> Optional[float]:
    """Fraction correct among retained records, or ``None`` if none retained."""
    return point_metrics(dataset, tau).selective_accuracy


def cwsa_generalized(dataset: EvaluationSet, tau: float) -> float:
    """Graded-correctness variant of :func:`cwsa`.

    Replaces the right/wrong indicator with each record's ``credit`` in
    [0, 1]: the per-record contribution is ``weight * (2 * credit - 1)``.
    With credit 1 for correct and 0 for wrong this reduces exactly to
    :func:`cwsa`.  Every retained record must carry a credit value.
    """
    tau = validate_threshold(tau)
    # A set without a credit column is one whose every credit is absent (NaN).
    credit = np.full(len(dataset), np.nan) if dataset.credit is None else dataset.credit
    retained, signed, first_missing = kernels.credit_accumulate(dataset.confidence, credit, tau)
    if first_missing >= 0:
        raise ValueError(
            f"record {first_missing}: credit required for graded scoring but absent"
        )
    if retained == 0:
        return 0.0
    return signed / retained


GRADIENT_INTERIOR = "interior"
GRADIENT_KINK = "kink"
GRADIENT_ABSTAINED = "abstained"


class GradientEntry(NamedTuple):
    """Per-record derivative of :func:`cwsa` with respect to that record's confidence.

    ``status`` is ``"interior"`` (value is the derivative), ``"kink"``
    (confidence sits exactly at the threshold, where the score is not
    differentiable; value is ``None``) or ``"abstained"`` (below the
    threshold; locally the score does not depend on this confidence, so
    the value is 0.0).  An immutable tuple: it unpacks and compares equal
    to ``(index, value, status)``.
    """

    index: int
    value: Optional[float]
    status: str


# Indexed by the status code: 0 abstained, 1 kink, 2 interior and correct, 3 interior and wrong.
_GRADIENT_STATUSES = (GRADIENT_ABSTAINED, GRADIENT_KINK, GRADIENT_INTERIOR, GRADIENT_INTERIOR)


def cwsa_gradient(dataset: EvaluationSet, tau: float) -> List[GradientEntry]:
    """Analytic per-confidence derivative of :func:`cwsa` at ``tau``.

    For a retained record strictly above the threshold the derivative is
    ``(+1 if correct else -1) / (retained_count * (1 - tau))``: the score
    is piecewise linear in each confidence, so this is exact between
    retention boundaries.  Records at exactly the threshold get a kink
    marker instead of an arbitrary one-sided slope.

    One status code per record is computed as an array; the entries share
    the values and statuses the codes name, and are built with no Python
    call per record and the cyclic garbage collector held off meanwhile.
    """
    tau = validate_threshold(tau)
    conf = dataset.confidence
    codes = (conf >= tau).view(np.int8)  # retained (conf >= tau) plus above (conf > tau)
    scale = int(np.count_nonzero(codes)) * (1.0 - tau)
    codes += conf > tau
    codes = np.where((codes == 2) & (dataset.correct_u8 == 0), 3, codes).tobytes()  # 3: above and wrong
    # an empty retained set has no interior record, so it never divides by 0
    values = (0.0, None) if scale == 0 else (0.0, None, 1.0 / scale, -1.0 / scale)
    return _entries(GradientEntry, len(codes), lambda lo, hi: zip(
        range(lo, hi), map(values.__getitem__, codes[lo:hi]), map(_GRADIENT_STATUSES.__getitem__, codes[lo:hi])))
