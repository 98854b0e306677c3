"""Shared domain types for selective-prediction evaluation.

Everything downstream (metrics, baselines, sweeps) consumes the types
defined here: validated evaluation sets and the threshold check.  The
record rules live in one place, :func:`_first_bad_record`, which both
:class:`EvaluationSet` and file ingestion call.
"""

from __future__ import annotations

import gc
from functools import partial
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "EvaluationSet",
    "validate_threshold",
]


def validate_threshold(tau: float) -> float:
    """Check that ``tau`` is a usable abstention threshold.

    Thresholds live in the half-open interval [0, 1): at exactly 1 the
    confidence weight would divide by zero, and threshold sweeps never
    need it.  Returns ``tau`` as a plain float.
    """
    tau = float(tau)
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {tau!r}")
    return tau


class EvaluationSet:
    """An immutable, validated collection of predictions from one model.

    Stores column arrays internally so metric evaluation can run as a
    single pass over contiguous memory.

    Parameters
    ----------
    y_true, y_pred : array-like of int
        Ground-truth and predicted class indices, both in
        ``[0, class_count)``.
    confidence : array-like of float
        Top-1 confidences in [0, 1], taken as given: no clipping.
    credit : array-like of float, optional
        Graded-correctness values in [0, 1]; NaN marks "absent".  ``None``
        when no record carries a credit.
    class_count : int, optional
        Size of the label universe; inferred as ``1 + max(label)`` when
        omitted.
    source_id : str
        Free-form tag naming the model/dataset this set came from.
    """

    __slots__ = ("y_true", "y_pred", "confidence", "credit", "class_count", "source_id", "correct_u8")

    def __init__(
        self,
        y_true,
        y_pred,
        confidence,
        credit=None,
        class_count: Optional[int] = None,
        source_id: str = "",
    ) -> None:
        y_true = _own_column(y_true, np.int64)
        y_pred = _own_column(y_pred, np.int64)
        confidence = _own_column(confidence, np.float64)
        if y_true.ndim != 1 or y_true.shape != y_pred.shape or y_true.shape != confidence.shape:
            raise ValueError("y_true, y_pred and confidence must be 1-d arrays of equal length")
        n = y_true.shape[0]
        if n == 0:
            raise ValueError("an evaluation set must contain at least one record")

        if credit is not None:
            credit = _own_column(credit, np.float64)
            if credit.shape != confidence.shape:
                raise ValueError("credit must match the record count")
        class_count = _checked_class_count(class_count)

        bad = _first_bad_record(y_true, y_pred, confidence, credit, class_count)
        if bad is not None:
            raise ValueError(f"record {bad[0]}: {bad[1]}")
        if class_count is None:
            class_count = int(max(y_true.max(), y_pred.max())) + 1

        correct_u8 = np.ascontiguousarray(y_true == y_pred, dtype=np.uint8)
        for arr in (y_true, y_pred, confidence, credit, correct_u8):
            if arr is not None:
                arr.setflags(write=False)

        self.y_true = y_true
        self.y_pred = y_pred
        self.confidence = confidence
        self.credit = credit
        self.class_count = class_count
        self.source_id = source_id
        self.correct_u8 = correct_u8

    def __len__(self) -> int:
        return int(self.y_true.shape[0])

    def __repr__(self) -> str:
        return (
            f"EvaluationSet(n={len(self)}, class_count={self.class_count}, "
            f"source_id={self.source_id!r})"
        )


def _checked_class_count(class_count) -> Optional[int]:
    """``class_count`` as an int, or ``None`` (still to be inferred); it must be positive."""
    if class_count is None:
        return None
    class_count = int(class_count)
    if class_count < 1:
        raise ValueError(f"class_count must be positive, got {class_count}")
    return class_count


def _own_column(values, dtype) -> np.ndarray:
    """``values`` as a contiguous array no caller can write to: a caller's array is
    copied unless it is read-only and owns its data, like another set's column."""
    column = np.ascontiguousarray(values, dtype=dtype)
    if not column.flags.owndata or (column is values and column.flags.writeable):
        column = column.copy()
    return column


def _entries(cls, rows: Iterable[tuple]) -> List[tuple]:
    """``[cls._make(row) for row in rows]`` for a tuple subclass ``cls``, built
    without a Python call per row and with the cyclic collector held off.

    Each entry is a new tracked container, so a collector left on would walk
    every entry built so far at each full collection while the list grows.
    The collector is turned back on only if it was on before, so a caller
    that holds it off keeps it off; it is off for the whole process meanwhile.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        # tuple.__new__ is what cls._make calls, minus its Python frame
        return list(map(partial(tuple.__new__, cls), rows))
    finally:
        if enabled:
            gc.enable()


def _first_bad_record(y_true, y_pred, confidence, credit, class_count) -> Optional[Tuple[int, str]]:
    """The first record that breaks a record rule, as ``(index, reason)``, or ``None``.

    Labels lie in ``[0, class_count)``, of which only the lower bound
    applies while ``class_count`` is ``None`` (still to be inferred);
    confidence lies in [0, 1]; credit, where not NaN ("absent"), lies in [0, 1].
    """
    bounds = "[0, class_count)" + ("" if class_count is None else f" with class_count {class_count}")
    checks = []
    for name, labels in (("y_true", y_true), ("y_pred", y_pred)):
        bad = labels < 0
        if class_count is not None:
            bad |= labels >= class_count
        checks.append((name, labels, bounds, bad))
    # NaN fails both comparisons, so a NaN confidence is out of range...
    checks.append(("confidence", confidence, "[0, 1]", ~((confidence >= 0.0) & (confidence <= 1.0))))
    if credit is not None:  # ...and a NaN credit, which marks "absent", is not
        checks.append(("credit", credit, "[0, 1]", (credit < 0.0) | (credit > 1.0)))
    first = None
    for name, values, within, bad in checks:
        i = int(bad.argmax())
        if bad[i] and (first is None or i < first[0]):
            first = (i, f"{name} {values[i].item()!r} outside {within}")
    return first
