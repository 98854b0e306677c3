"""Shared test helpers."""

import numpy as np

from cwsa_eval import EvaluationSet, cwsa_plus


def make_set(pairs, class_count=2, source_id="test", credits=None):
    """Build an EvaluationSet from (confidence, correct) pairs.

    Correct records predict label 0 for truth 0; wrong records predict 1.
    """
    y_true = np.zeros(len(pairs), dtype=np.int64)
    y_pred = np.array([0 if correct else 1 for _, correct in pairs], dtype=np.int64)
    confidence = np.array([conf for conf, _ in pairs], dtype=np.float64)
    credit = None
    if credits is not None:
        credit = np.array(
            [np.nan if c is None else c for c in credits], dtype=np.float64
        )
    return EvaluationSet(
        y_true, y_pred, confidence, credit, class_count=class_count, source_id=source_id
    )


def random_pairs(rng, n, p_correct=0.5, low=0.0, high=1.0):
    """n random (confidence, correct) pairs from a seeded generator."""
    confidence = rng.uniform(low, high, n)
    correct = rng.random(n) < p_correct
    return list(zip(confidence.tolist(), correct.tolist()))


def weight_of(confidence, tau):
    """The confidence weight of one record: cwsa_plus of a correct singleton."""
    return cwsa_plus(make_set([(confidence, True)]), tau)
