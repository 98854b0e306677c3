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

The grid kernel splits a grid of ``m`` thresholds into ``w`` interleaved
slices ``t[j::w]`` and works the hits and the misses of slice ``j`` as
range ``j`` of ``_ranges.run_ranges``: this process works the first
slice and a forked worker each other.  ``w`` is ``_ranges._workers``'
count, one per CPU and one off Linux or beside a second thread, capped
at ``m // 2`` so that every slice keeps at least 2 columns.  A column's
sum depends only on that column, walked in record order by one worker,
so the split changes no addition's order or grouping, and every sum is
the same at any ``w``.  Interleaving balances the workers, since high
thresholds are skipped more often than low ones; each slice is
non-decreasing, so the column skip holds inside it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import _ranges

__all__ = ["sequential_sum", "point_accumulate", "sweep_accumulate", "credit_accumulate"]

# Values per block of the kernels: rows times live thresholds (one in ``point_accumulate``).
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

    Returns ``(retained, hits, s_correct, s_wrong)`` for one threshold, from
    ``_BLOCK_VALUES`` records at a time so that the cost per record stays flat
    past the cache; each sum starts a block from its total so far.
    """
    retained = hits = 0
    s_correct = s_wrong = 0.0
    for start in range(0, confidence.size, _BLOCK_VALUES):
        block = confidence[start : start + _BLOCK_VALUES]
        keep = block >= tau
        hit = keep & (correct[start : start + _BLOCK_VALUES] != 0)
        retained += int(np.count_nonzero(keep))
        hits += int(np.count_nonzero(hit))
        s_correct = sequential_sum(np.concatenate(([s_correct], _weights(block, hit, tau))))
        s_wrong = sequential_sum(np.concatenate(([s_wrong], _weights(block, keep ^ hit, tau))))
    return retained, hits, s_correct, s_wrong


def sweep_accumulate(confidence: np.ndarray, correct: np.ndarray, thresholds):
    """:func:`point_accumulate` for every threshold of a non-decreasing grid.

    Returns one ``(retained, hits, s_correct, s_wrong)`` tuple per
    threshold, equal to what :func:`point_accumulate` gives for it.  The
    records are split once into hits and misses, each in input order,
    and each group is walked in blocks of rows, one slice of the grid per
    range (see the module docstring).  A block fills a ``(rows + 1, k)``
    buffer, where ``k`` counts the slice's thresholds that the block's
    largest confidence reaches: row 0 carries the running sums, and the
    body holds ``max((c - t) / (1 - t), 0.0)``.  A record below a
    threshold adds ``+0.0``, which leaves the sum as it is.  A grid of
    one threshold goes to :func:`point_accumulate`, which is faster.
    """
    t = np.asarray(thresholds, dtype=np.float64)
    m = t.size
    if m < 2:
        return [point_accumulate(confidence, correct, float(tau)) for tau in t]
    hit = correct != 0
    groups = (np.compress(hit, confidence), np.compress(~hit, confidence))
    w = _ranges._workers(m // 2)
    slices = _ranges.run_ranges([(j, j + 1) for j in range(w)], partial(_slice_sums, groups, t, w))
    counts = np.empty((2, m), dtype=np.int64)
    sums = np.empty((2, m))
    for j, slice_sums in enumerate(slices):
        for g, (count, acc) in enumerate(slice_sums):
            counts[g, j::w] = count
            sums[g, j::w] = acc
    retained = (counts[0] + counts[1]).tolist()
    return list(zip(retained, counts[0].tolist(), sums[0].tolist(), sums[1].tolist()))


def _slice_sums(groups, t: np.ndarray, w: int, j: int, _stop: int):
    """Yield, as one chunk, :func:`_grid_sums` of each group over the slice ``t[j::w]``."""
    # Contiguous slices: a strided threshold row slows every block's subtract.
    yield [_grid_sums(group, t[j::w].copy()) for group in groups]


def _grid_sums(group: np.ndarray, t: np.ndarray):
    """Per-threshold retained counts and weight sums of one group over ``t``.

    ``t`` holds at least 2 non-decreasing thresholds.
    """
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
    # One pass per threshold: a single searchsorted + bincount pass is
    # slower on the large groups of a short grid.
    counts = [np.count_nonzero(group >= tau) for tau in t]
    return counts, acc


def credit_accumulate(confidence: np.ndarray, credit: np.ndarray, tau: float):
    """Signed graded-correctness sum ``weight * (2 * credit - 1)`` over retained records.

    ``credit`` uses NaN for "missing".  Returns ``(retained, signed_sum,
    first_missing_index)``; the index, of the whole set, is -1 when every
    retained record carries a credit value, and the sum is meaningless
    otherwise.  Taken ``_BLOCK_VALUES`` records at a time, as in
    :func:`point_accumulate`, the sum starting a block from its total so far.
    """
    retained = 0
    signed = 0.0
    for start in range(0, confidence.size, _BLOCK_VALUES):
        block = confidence[start : start + _BLOCK_VALUES]
        keep = block >= tau
        signs = np.compress(keep, credit[start : start + _BLOCK_VALUES])
        missing = np.isnan(signs)
        if missing.any():
            first_missing = start + int(np.flatnonzero(keep)[np.argmax(missing)])
            return int(np.count_nonzero(confidence >= tau)), 0.0, first_missing
        signs *= 2.0
        signs -= 1.0
        w = _weights(block, keep, tau)
        w *= signs
        retained += w.size
        signed = sequential_sum(np.concatenate(([signed], w)))
    return retained, signed, -1
