"""Shared test helpers."""

import contextlib
import csv
import os
import re
from unittest import mock

import numpy as np
import pytest

from cwsa_eval import EvaluationSet, _ranges, cwsa_plus


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):  # no POSIX wait: nothing to check
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process ({'running' if pid == 0 else f'pid {pid}, unreaped'})")


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


@contextlib.contextmanager
def forced_split(workers):
    """Let ``ingest`` split a CSV or JSONL file of any size between
    ``workers`` readers, and a sweep its grid between ``workers`` workers;
    yields the list of the pids that ``os.fork`` returns meanwhile."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:  # in the child, the list is the child's own copy
            forks.append(pid)
        return pid

    with mock.patch.object(_ranges, "_SPLIT_BYTES", 1), \
            mock.patch.object(_ranges, "_usable_cpus", lambda: workers), \
            mock.patch.object(os, "fork", counting_fork):
        yield forks


def splits(data, workers, fmt="jsonl"):
    """Whether ``ingest`` under ``forced_split(workers)`` splits a file of
    bytes ``data``: whether a LF lies between byte ``len(data) // workers``
    and the last byte, which ends the first range.  A CSV file is split
    only for the NumPy pass, which takes a first line of ASCII that names
    ``y_true``, ``y_pred`` and ``confidence`` and no ``credit``."""
    if fmt == "csv":
        first = re.split(rb"[\r\n]", data, maxsplit=1)[0]
        names = {name.strip() for name in next(csv.reader([first.decode()]))} if first.isascii() else set()
        if not {"y_true", "y_pred", "confidence"} <= names or "credit" in names:
            return False
    workers = max(1, min(workers, len(data)))  # at least a byte per reader
    return b"\n" in data[len(data) // workers : -1]
