"""Differential fuzz test of ingest against the plain-Python input rules.

Each generated CSV or JSONL file mixes valid records with mutated cells
and blank lines; each CSV line ends in LF, CRLF or CR.  Some CSV files
hold whole rows only, no blank line, each ended by the file's one choice
of LF or CRLF, as the NumPy pass takes them.  ``ingest`` must
either return the columns that ``naive_impl.read_predictions`` reads, or
raise ``IngestError`` naming the first line that validator rejects; any
other exception fails.  Each file is ingested as shipped and in each of
``OTHER_WAYS``: a CSV file also with the NumPy pass off, so that the row
reader reads it, at its chunk size and at chunk sizes that close chunks
mid-file; a JSONL file also at such chunk sizes, each with the NumPy
``probs`` reduction on and off (off, every chunk is checked cell by
cell).  Each hypothesis test also splits each file between 2 and 3
forked readers, however small it is.
"""

import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cwsa_eval import IngestError, dataio, ingest
from conftest import forced_split, splits
import naive_impl

LABELS = ["0", "1", "2"]
CONFIDENCES = ["0", "0.25", "0.5", "0.75", "1", "1.0", "0.125"]
CREDITS = ["", "0", "0.5", "1"]
# Cells no valid record holds, or holds only in another column.
CELL_MUTANTS = [
    "", "  ", " 1 ", "nan", "NaN", "inf", "-inf", "-1", "-0", "+1", "1.0", "1_000",
    "0.5", "1e-3", "abc", str(2**63 - 1), str(2**63), str(-(2**63) - 1), "1" + "0" * 30,
    # NumPy would cut these at "#" without comments=None, read "\u01fe1" as
    # the label 4621 and strip "\x1c" as whitespace
    "0.5#x", "#", "1#", "\u01fe1", "1\x1c",
]
JSON_MUTANTS = [
    True, False, None, [1], [], "1", " 2 ", "nan", "0.5", "abc", 1.0, 2.5, -1, 0.5,
    2**63 - 1, 2**63, 10**400, float("nan"), float("inf"), -0.0,
]
PROBS = [  # the first five sum to 1
    [1.0], [0.25, 0.75], [0.5, 0.5], [0.2, 0.5, 0.3], [1.5, -0.5], [0.5, 0.6], [],
    [0.5, "0.5"], [float("nan"), 1.0], [True, 0.0], 0.5,
]
CLASS_COUNTS = st.sampled_from([None, 2, 3])
_NO_REDUCTION = {"_top_of_probs": lambda vectors: None}
OTHER_WAYS = {
    "csv": [{"_bulk_columns": lambda pread: None, "_CHUNK": chunk} for chunk in (1 << 16, 1, 3)],
    "jsonl": [{"_CHUNK": 1 << 16, **_NO_REDUCTION}] + [
        {"_CHUNK": chunk, **reduction} for chunk in (1, 3) for reduction in ({}, _NO_REDUCTION)
    ],
}


@st.composite
def csv_texts(draw):
    names = ["y_true", "y_pred", "confidence"]
    if draw(st.booleans()):
        names.append("credit")
    if draw(st.booleans()):
        names.append("id")
    names = draw(st.permutations(names))
    valid = {"y_true": LABELS, "y_pred": LABELS, "confidence": CONFIDENCES,
             "credit": CREDITS, "id": ["x"]}
    lines = [",".join(names)]
    # a plain file: one line end, LF or CRLF, a whole row on each line and fewer mutants, as the NumPy pass takes
    plain = draw(st.booleans())
    shapes = ["valid", "valid", "mutant"] + (["valid"] * 3 if plain else ["short", "wide", "blank"])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    for _ in range(draw(st.integers(min_value=1, max_value=50))):
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "", " "])))
            continue
        cells = [draw(st.sampled_from(valid[name])) for name in names]
        if shape == "mutant":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELL_MUTANTS))
        elif shape == "short":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif shape == "wide":  # cells past the header's, such as a trailing comma
            cells += draw(st.lists(st.sampled_from(["", "9", "x"]), min_size=1, max_size=2))
        lines.append(",".join(cells))
    if all(line == "" for line in lines[1:]):  # a file of no records names no line
        lines.append(",".join(valid[name][0] for name in names))
    return "".join(line + (ending if plain else draw(st.sampled_from(["\n", "\r\n", "\r"]))) for line in lines)


@st.composite
def jsonl_texts(draw):
    lines = []
    plain = draw(st.booleans())  # only records checked as columns, though some break a rule
    shapes = ["valid", "valid", "probs", "blank"]
    if not plain:
        shapes += ["mutant", "line", "layout"]

    def label():  # an int, as the column checks need, or else at times "1" or 1.0
        return draw(st.sampled_from([int] if plain else [int, int, str, float]))(draw(st.sampled_from(LABELS)))

    for _ in range(draw(st.integers(min_value=1, max_value=50))):
        shape = draw(st.sampled_from(shapes))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\x1c"])))
            continue
        if shape == "line":
            lines.append(draw(st.sampled_from(["not json", "[1]", "{}", '{"y_true": 0}', "1"])))
            continue
        obj = {"y_true": label()}
        if shape == "probs":
            obj["probs"] = draw(st.sampled_from(PROBS[:5] if plain else PROBS))
            for key in ("y_pred", "confidence"):
                if not plain and draw(st.integers(0, 3)) == 0:
                    obj[key] = draw(st.sampled_from([0, 1, 0.5, 0.75, 1.0]))
        else:
            obj["y_pred"] = label()
            obj["confidence"] = float(draw(st.sampled_from(CONFIDENCES)))
        if draw(st.booleans()):
            obj["credit"] = draw(st.sampled_from([None, 0.0, 0.5, 1.0]))
        if draw(st.integers(0, 4)) == 0:
            obj["id"] = draw(st.sampled_from(["x", 7, None]))
        if shape == "mutant":
            key = draw(st.sampled_from(sorted(obj)))
            if draw(st.integers(0, 4)) == 0:
                del obj[key]
            else:
                obj[key] = draw(st.sampled_from(JSON_MUTANTS))
        line = json.dumps(obj)
        if shape == "layout":  # the object, laid out otherwise on its line or lines
            line = draw(st.sampled_from([
                line + line, line + " " + line, line.replace(", ", ",\n", 1),
                " " + line, line + "  ", "\t" + line, "\ufeff" + line,
            ]))
        lines.append(line)
    if all(not line.strip() for line in lines):  # a file of no records names no line
        lines.append('{"y_true": 0, "y_pred": 0, "confidence": 0.5}')
    return "\n".join(lines) + "\n"


def check_against_rules(text, fmt, class_count, split_workers=()):
    expected = naive_impl.read_predictions(text, fmt, class_count)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"fuzz.{fmt}"
        path.write_text(text, encoding="utf-8")
        check_ingest(path, expected, class_count)
        for patches in OTHER_WAYS[fmt]:
            with mock.patch.multiple(dataio, **patches):
                check_ingest(path, expected, class_count)
        for workers in split_workers:
            with forced_split(workers) as forks:
                check_ingest(path, expected, class_count)
            assert bool(forks) == splits(path.read_bytes(), workers, fmt)


def check_ingest(path, expected, class_count):
    try:
        ds = ingest(path, class_count=class_count)
    except IngestError as exc:
        named = re.search(r"fuzz\.\w+:(\d+): ", str(exc))
        assert named, str(exc)
        assert int(named.group(1)) == expected, str(exc)
        return
    assert not isinstance(expected, int), f"ingest accepted a file whose line {expected} is bad"
    y_true, y_pred, confidence, credit = expected
    assert ds.y_true.tolist() == y_true
    assert ds.y_pred.tolist() == y_pred
    assert ds.confidence.tolist() == confidence
    if credit is None:
        assert ds.credit is None
    else:
        assert [None if math.isnan(c) else c for c in ds.credit.tolist()] == credit


@given(csv_texts(), CLASS_COUNTS)
@settings(max_examples=60, deadline=None)
def test_csv_ingest_follows_the_input_rules(text, class_count):
    check_against_rules(text, "csv", class_count, split_workers=(2, 3))


@given(jsonl_texts(), CLASS_COUNTS)
@settings(max_examples=60, deadline=None)
def test_jsonl_ingest_follows_the_input_rules(text, class_count):
    check_against_rules(text, "jsonl", class_count, split_workers=(2, 3))


def test_every_single_mutant_follows_the_input_rules():
    """Each mutant in each column once, after a valid record and a blank line,
    so that no earlier fault hides it; a CSV mutant also with no blank line,
    which would send the file to the row reader."""
    base = ["0", "1", "0.5", "0.25"]
    objects = [
        {"y_true": 0, "y_pred": 1, "confidence": 0.5, "credit": 0.25},
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": 0.75},
        {"y_true": 0, "probs": [0.25, 0.75]},  # a record checked as columns
    ]
    for class_count in (None, 2):
        for width in (3, 4):  # without a credit column, the NumPy pass reads valid files
            header = ",".join(["y_true", "y_pred", "confidence", "credit"][:width])
            for column in range(width):
                for mutant in CELL_MUTANTS:
                    row = base[:column] + [mutant] + base[column + 1:width]
                    first = ",".join(["0", "0", "0.5", ""][:width])
                    for blank in ("\n", ""):
                        check_against_rules(f"{header}\n{first}\n{blank}{','.join(row)}\n", "csv", class_count)
        for obj in objects:
            for key in obj:
                for mutant in JSON_MUTANTS + PROBS:
                    line = json.dumps({**obj, key: mutant})
                    text = '{"y_true": 0, "y_pred": 0, "confidence": 0.5}\n\n' + line + "\n"
                    check_against_rules(text, "jsonl", class_count)
