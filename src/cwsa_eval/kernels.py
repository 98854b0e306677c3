"""Accumulation kernels for the threshold-local metrics.

Every weighted sum here runs left to right over the records in input
order, so it equals a naive ``total = 0.0; for x in xs: total += x``
loop bit for bit on any data.  Each weight is computed as
``(confidence - tau) / (1 - tau)``, one rounding per operation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sequential_sum", "point_accumulate", "credit_accumulate"]


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float64 sum of ``values``, starting from ``0.0``.

    ``values`` is overwritten with its running sums; pass an array the
    caller no longer needs.  ``np.cumsum`` accumulates strictly in order,
    unlike the pairwise ``np.sum``; the trailing ``+ 0.0`` turns an
    all-negative-zero total into ``0.0``, as the loop would.
    """
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values, out=values)[-1]) + 0.0


def _weights(confidence: np.ndarray, mask: np.ndarray, tau: float) -> np.ndarray:
    """Fresh array of ``(confidence - tau) / (1 - tau)`` over ``mask``, in input order."""
    w = np.compress(mask, confidence)
    w -= tau
    w /= 1.0 - tau
    return w


def point_accumulate(confidence: np.ndarray, correct: np.ndarray, tau: float):
    """Retained count, correct count and the weight sums split by correctness.

    Returns ``(retained, hits, s_correct, s_wrong)`` for one threshold.
    """
    keep = confidence >= tau
    hit = keep & (correct != 0)
    retained = int(np.count_nonzero(keep))
    hits = int(np.count_nonzero(hit))
    s_correct = sequential_sum(_weights(confidence, hit, tau))
    s_wrong = sequential_sum(_weights(confidence, keep ^ hit, tau))
    return retained, hits, s_correct, s_wrong


def credit_accumulate(confidence: np.ndarray, credit: np.ndarray, tau: float):
    """Signed graded-correctness sum ``weight * (2 * credit - 1)`` over retained records.

    ``credit`` uses NaN for "missing".  Returns ``(retained, signed_sum,
    first_missing_index)``; the index is -1 when every retained record
    carries a credit value, and the sum is meaningless otherwise.
    """
    keep = confidence >= tau
    retained = int(np.count_nonzero(keep))
    signs = np.compress(keep, credit)
    missing = np.isnan(signs)
    if missing.any():
        first_missing = int(np.flatnonzero(keep)[np.argmax(missing)])
        return retained, 0.0, first_missing
    signs *= 2.0
    signs -= 1.0
    w = _weights(confidence, keep, tau)
    w *= signs
    return retained, sequential_sum(w), -1
