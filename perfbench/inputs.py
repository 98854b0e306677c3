"""Seeded benchmark inputs, written once per (seed, size) and cached on disk.

Every input comes from ``cwsa_eval.generate`` with a seed derived from the
benchmark's ``--seed``; the files are written by the writers below, not by
the program under test, so a change to the program's writer cannot change
what its reader is timed on.  The arrays are returned with each file: they
are what a correct reader must produce, and the output checks in
``reference.py`` start from them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cwsa_eval import ArchetypeSpec, generate

# Spawn keys that keep the benchmark's own random draws apart from the
# streams ``generate`` uses for the same seed.
_PROBS_STREAM = 101
_CREDIT_STREAM = 102


@dataclass(frozen=True)
class Arrays:
    """The columns a prediction file holds, as a correct reader returns them."""

    y_true: np.ndarray
    y_pred: np.ndarray
    confidence: np.ndarray
    class_count: int

    def __len__(self) -> int:
        return len(self.y_true)

    @property
    def correct(self) -> np.ndarray:
        return self.y_true == self.y_pred


def archetype(kind: str, n: int, seed: int, class_count: int = 3) -> Arrays:
    ds = generate(ArchetypeSpec.for_kind(kind, n=n, class_count=class_count, seed=seed))
    return Arrays(ds.y_true, ds.y_pred, ds.confidence, ds.class_count)


def library_credit(n: int, seed: int) -> np.ndarray:
    """The graded-correctness column the library workload attaches."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_CREDIT_STREAM,))))
    return rng.random(n)


def _publish(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically and drop older seeds of the same file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    stem = path.name.rsplit("-s", 1)[0]
    for old in path.parent.glob(f"{stem}-s*{path.suffix}"):
        if old != path:
            old.unlink()


def csv_text(arrays: Arrays) -> str:
    """The canonical CSV layout: header row, LF endings, ``repr`` floats."""
    lines = ["y_true,y_pred,confidence"]
    lines.extend(
        f"{t},{p},{c!r}"
        for t, p, c in zip(arrays.y_true.tolist(), arrays.y_pred.tolist(), arrays.confidence.tolist())
    )
    lines.append("")
    return "\n".join(lines)


def jsonl_text(arrays: Arrays, seed: int) -> str:
    """One JSON object per record; even records carry only a ``probs`` vector.

    The vector puts the record's confidence at its predicted label and
    splits the rest of the mass randomly over the other classes.  With at
    least three classes every other entry is below ``1 - confidence``,
    which is at most the confidence for the calibrated archetype used here
    (confidence >= 0.5), so the argmax reduction gives back exactly the
    predicted label and confidence.
    """
    n, k = len(arrays), arrays.class_count
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_PROBS_STREAM,))))
    share = rng.random((n, k - 1))
    share /= share.sum(axis=1, keepdims=True)
    rest = (share * (1.0 - arrays.confidence)[:, None]).tolist()
    lines = []
    for i, (t, p, c) in enumerate(
        zip(arrays.y_true.tolist(), arrays.y_pred.tolist(), arrays.confidence.tolist())
    ):
        if i % 2 == 0:
            probs = rest[i]
            probs.insert(p, c)
            lines.append(json.dumps({"y_true": t, "probs": probs}))
        else:
            lines.append(json.dumps({"y_true": t, "y_pred": p, "confidence": c}))
    lines.append("")
    return "\n".join(lines)


def cached_file(work: Path, name: str, text_of) -> Path:
    """``work/name``, written with ``text_of()`` unless an earlier run left it."""
    work.mkdir(parents=True, exist_ok=True)
    path = work / name
    if not path.exists():
        _publish(path, text_of())
    return path
