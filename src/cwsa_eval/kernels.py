"""Accumulation kernels for the threshold-local metrics.

Every weighted sum here runs left to right over the records in input
order, so it equals a naive ``total = 0.0; for x in xs: total += x``
loop bit for bit on any data.  Each weight is computed as
``(confidence - tau) / (1 - tau)``, one rounding per operation.

NumPy sums pairwise along the contiguous axis only.  One threshold's
sum is therefore a ``np.cumsum``.  The grid kernel puts records in rows
and thresholds in columns and reduces over axis 0, which adds the rows
one after another in every column.  A 1-column array is the exception:
its axis 0 is the contiguous one and is summed pairwise, so the grid
kernel never reduces fewer than 2 columns.

The grid kernel fills a block body in two steps: a broadcast copy of
the block's confidences into every column, then an in-place subtract of
the thresholds.  A broadcast subtract straight into the body does the
same arithmetic but is slower: on a 65 x 1000 block (2-vCPU Xeon, NumPy
2.4) it takes about 1.5 ns per entry, against about 0.35 for the copy
plus 0.5 for the subtract.  Each entry still takes one rounding in the
subtract and one in the divide, so every sum is unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sequential_sum", "point_accumulate", "sweep_accumulate", "credit_accumulate"]

# Values per block of ``sweep_accumulate``: rows times live thresholds.
_BLOCK_VALUES = 65536


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


def sweep_accumulate(confidence: np.ndarray, correct: np.ndarray, thresholds):
    """:func:`point_accumulate` for every threshold of a non-decreasing grid.

    Returns one ``(retained, hits, s_correct, s_wrong)`` tuple per
    threshold, equal to what :func:`point_accumulate` gives for it.  The
    records are split once into hits and misses, each in input order,
    and each group is walked in blocks of rows.  A block fills a
    ``(rows + 1, k)`` buffer, where ``k`` counts the thresholds the
    block's largest confidence reaches: row 0 carries the running sums,
    and the body holds ``max((c - t) / (1 - t), 0.0)``.  A record below a
    threshold adds ``+0.0``, which leaves the sum as it is.  A grid of
    one threshold goes to :func:`point_accumulate`, which is faster.
    """
    t = np.asarray(thresholds, dtype=np.float64)
    if t.size < 2:
        return [point_accumulate(confidence, correct, float(tau)) for tau in t]
    hit = correct != 0
    hits, s_correct = _grid_sums(np.compress(hit, confidence), t)
    misses, s_wrong = _grid_sums(np.compress(~hit, confidence), t)
    return list(zip([h + w for h, w in zip(hits, misses)], hits, s_correct, s_wrong))


def _grid_sums(group: np.ndarray, t: np.ndarray):
    """Per-threshold retained counts and weight sums of one group, as lists."""
    m = t.size
    scale = 1.0 - t
    rows = max(1, _BLOCK_VALUES // m)
    buf = np.empty((rows + 1) * m)
    acc = np.zeros(m)
    for start in range(0, group.size, rows):
        block = group[start:start + rows]
        k = int(np.searchsorted(t, block.max(), "right"))
        if k == 0:
            continue
        k = max(k, 2)  # a 1-column reduce would sum pairwise
        view = buf[: (block.size + 1) * k].reshape(block.size + 1, k)
        view[0] = acc[:k]
        body = view[1:]
        body[...] = block[:, None]
        np.subtract(body, t[:k], out=body)
        body /= scale[:k]
        np.maximum(body, 0.0, out=body)
        np.add.reduce(view, axis=0, out=acc[:k])
    counts = [int(np.count_nonzero(group >= tau)) for tau in t]
    return counts, acc.tolist()


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
