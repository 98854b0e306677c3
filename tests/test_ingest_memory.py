"""Memory budgets: the traced peak of reading a fixed 2e5-record set, from
a file or a pipe, in one reader and in two (where only this process is
traced), and of each public entry point that works on the whole set, in
one process, stays within a small multiple of the set's columns, so that a
change that adds a copy of the records shows here.  Reading a million blank
lines between two records stays within a few MiB, so that a change that
holds an entry per line shows here too."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cwsa_eval import (
    ArchetypeSpec,
    EvaluationSet,
    _ranges,
    cwsa_gradient,
    dataio,
    generate,
    ingest,
    risk_coverage_points,
    sweep,
    write_predictions_csv,
)
from cwsa_eval.baselines import baseline_scalars

RECORDS = 200_000
COLUMN_BYTES = RECORDS * 3 * 8  # y_true, y_pred and confidence: 4.58 MiB


@pytest.fixture(scope="module")
def source():
    return generate(ArchetypeSpec.for_kind("calibrated", n=RECORDS, seed=11))


def _quoted_header_csv(source, path):
    write_predictions_csv(source, path)
    data = path.read_bytes()
    path.write_bytes(b'"y_true",y_pred,confidence' + data[data.index(b"\n"):])  # a quote sends the file to the row reader


def _jsonl(source, path):
    with open(path, "w") as out:
        for t, p, c in zip(source.y_true.tolist(), source.y_pred.tolist(), source.confidence.tolist()):
            out.write(json.dumps({"y_true": t, "y_pred": p, "confidence": c}) + "\n")


# reader -> (the writer of its file, the most traced bytes per byte of the columns; measured 2.22,
# 2.21 and 2.44, where a reader that held the whole range's records took 3.69 and 4.63, and a
# credit column of NaN for a file with none took 2.71 and 2.94)
BUDGETS = {
    "numpy_csv": (write_predictions_csv, 2.5),
    "row_reader_csv": (_quoted_header_csv, 2.5),
    "jsonl": (_jsonl, 2.75),
}


# format -> (the writer of its file, the most traced bytes per byte of the columns when piped;
# measured 2.21 and 2.21, where holding a later region's bytes would add 0.7 and 2.6)
PIPED_BUDGETS = {
    "csv": (write_predictions_csv, 2.5),
    "jsonl": (_jsonl, 2.5),
}


# reader -> the most traced bytes of this process per byte of the columns when two readers read
# the file, and the pipe; measured 2.22 and 2.21, 2.21 and 2.21.  The row reader reads in one process.
SPLIT_BUDGETS = {
    "numpy_csv": (2.5, 2.5),
    "jsonl": (2.5, 2.5),
}


def _traced_peak(call):
    """``(call(), the peak traced bytes while it ran)``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("reader", list(BUDGETS))
def test_ingest_peak_stays_within_its_budget(tmp_path, monkeypatch, source, reader):
    write, budget = BUDGETS[reader]
    path = tmp_path / ("p.jsonl" if reader == "jsonl" else "p.csv")
    write(source, path)
    monkeypatch.setattr(_ranges, "_workers", lambda most: 1)  # a forked reader's memory goes untraced
    row_reader, row_reads = dataio._read_csv, []
    monkeypatch.setattr(dataio, "_read_csv", lambda pread: row_reads.append(pread) or row_reader(pread))
    ds, peak = _traced_peak(lambda: ingest(path))
    assert len(row_reads) == (reader == "row_reader_csv")
    assert ds.y_true.tolist() == source.y_true.tolist() and ds.confidence.tolist() == source.confidence.tolist()
    assert peak <= budget * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"


def _counted_forks(monkeypatch):
    """The list of the pids that ``os.fork`` returns from now on in this process."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.skipif(sys.platform != "linux", reason="readers fork only on Linux")
@pytest.mark.parametrize("reader", list(SPLIT_BUDGETS))
def test_split_ingest_peak_stays_within_its_budget(tmp_path, monkeypatch, source, reader):
    write, _ = BUDGETS[reader]
    path = tmp_path / ("p.jsonl" if reader == "jsonl" else "p.csv")
    write(source, path)
    monkeypatch.setattr(_ranges, "_workers", lambda most: 2)
    forks = _counted_forks(monkeypatch)
    ds, peak = _traced_peak(lambda: ingest(path))
    assert len(forks) == 1
    assert ds.y_true.tolist() == source.y_true.tolist() and ds.confidence.tolist() == source.confidence.tolist()
    assert peak <= SPLIT_BUDGETS[reader][0] * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"


@pytest.mark.parametrize("fmt", list(PIPED_BUDGETS))
def test_piped_ingest_peak_stays_within_its_budget(tmp_path, monkeypatch, source, fmt):
    _, peak = _piped_ingest(tmp_path, monkeypatch, source, fmt, readers=1)
    assert peak <= PIPED_BUDGETS[fmt][1] * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"


@pytest.mark.skipif(sys.platform != "linux", reason="readers fork only on Linux")
@pytest.mark.parametrize("reader", list(SPLIT_BUDGETS))
def test_split_piped_ingest_peak_stays_within_its_budget(tmp_path, monkeypatch, source, reader):
    forks = _counted_forks(monkeypatch)
    _, peak = _piped_ingest(tmp_path, monkeypatch, source, "jsonl" if reader == "jsonl" else "csv", readers=2)
    assert len(forks) == 2  # the first region of 1 MiB and the rest, each split in two
    assert peak <= SPLIT_BUDGETS[reader][1] * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"


def _piped_ingest(tmp_path, monkeypatch, source, fmt, readers):
    """``(the set, the peak traced bytes)`` of ingesting the source through a pipe in ``readers`` readers."""
    write, _ = PIPED_BUDGETS[fmt]
    path = tmp_path / f"p.{fmt}"
    write(source, path)
    monkeypatch.setattr(_ranges, "_workers", lambda most: readers)
    # a process feeds the pipe, not a thread: readers fork only beside no other thread
    with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as feed:
        ds, peak = _traced_peak(lambda: ingest(f"/dev/fd/{feed.stdout.fileno()}", fmt))
    assert feed.returncode == 0
    assert ds.y_true.tolist() == source.y_true.tolist() and ds.confidence.tolist() == source.confidence.tolist()
    return ds, peak


# reader -> (the file's name, its header, one record, and the bytes of the NumPy pass's piece, None
# for the default _SCAN_BLOCK, which holds the whole file); the header's quote sends the first
# CSV file to the row reader, and the blank lines send the plain ones there too
BLANK_LINE_FILES = {
    "row_reader_csv": ("p.csv", b'"y_true",y_pred,confidence\n', b"0,0,0.5\n", 1 << 16),
    "numpy_csv": ("p.csv", b"y_true,y_pred,confidence\n", b"0,0,0.5\n", 1 << 16),
    "numpy_csv_whole_piece": ("p.csv", b"y_true,y_pred,confidence\n", b"0,0,0.5\n", None),
    "jsonl": ("p.jsonl", b"", b'{"y_true": 0, "y_pred": 0, "confidence": 0.5}\n', 1 << 16),
}


@pytest.mark.skipif(sys.platform != "linux", reason="readers fork only on Linux")
@pytest.mark.parametrize("readers", [1, 2])
@pytest.mark.parametrize("reader", list(BLANK_LINE_FILES))
def test_blank_lines_cost_no_memory_per_line(tmp_path, monkeypatch, reader, readers):
    # measured at most 1.6 MiB; a join that held an entry per line took 12-17 MiB, and a NumPy
    # pass that made an array of a whole piece's line ends before it saw an empty line 11.9-23.9 MiB
    name, header, record, piece = BLANK_LINE_FILES[reader]
    path = tmp_path / name
    path.write_bytes(header + record + b"\n" * 1_000_000 + record)
    if piece is not None:
        monkeypatch.setattr(dataio, "_SCAN_BLOCK", piece)
    monkeypatch.setattr(_ranges, "_workers", lambda most: readers)
    ds, peak = _traced_peak(lambda: ingest(path))
    assert len(ds) == 2
    assert peak < 4 << 20, f"{peak / (1 << 20):.1f} MiB"


@pytest.fixture(scope="module")
def credited(source):
    """The set with a credit column, every tenth record without credit."""
    credit = np.random.default_rng(11).random(RECORDS)
    credit[::10] = np.nan
    return EvaluationSet(source.y_true, source.y_pred, source.confidence, credit,
                         class_count=source.class_count, source_id=source.source_id)


@pytest.fixture(scope="module")
def tied(source):
    """The set with its confidences rounded to 2 decimals, so that records tie in runs."""
    return EvaluationSet(source.y_true, source.y_pred, np.round(source.confidence, 2),
                         class_count=source.class_count, source_id=source.source_id)


# entry point -> (its call on the set, the credited set or the tied set, and a directory to write
# to; the most traced bytes per byte of the columns; measured 0.73 (1.37 while the baselines cast
# and negated their columns), 0.71 (1.35), 1.38 (1.71), 0.88 (the one writer writes each chunk as
# it formats it, where holding the file's bytes took 2.40), 4.89 (6.75 with a float per record and
# whole-length value lists), 5.59 (5.67) and 1.71 (2.58 with its temporaries not drawn in place))
CALL_BUDGETS = {
    "sweep": (lambda ds, credited, tied, out: sweep(ds), 1.0),
    "baseline_scalars": (lambda ds, credited, tied, out: baseline_scalars(ds), 0.85),
    "baseline_scalars_tied": (lambda ds, credited, tied, out: baseline_scalars(tied), 1.5),
    "write_predictions_csv": (lambda ds, credited, tied, out: write_predictions_csv(credited, out / "p.csv"), 1.25),
    "cwsa_gradient": (lambda ds, credited, tied, out: cwsa_gradient(ds, 0.7), 5.5),
    "risk_coverage_points": (lambda ds, credited, tied, out: risk_coverage_points(ds), 6.25),
    "generate": (lambda ds, credited, tied, out: generate(ArchetypeSpec.for_kind("calibrated", n=RECORDS, seed=11)), 2.0),
}


@pytest.mark.parametrize("entry", list(CALL_BUDGETS))
def test_entry_point_peak_stays_within_its_budget(tmp_path, monkeypatch, source, credited, tied, entry):
    call, budget = CALL_BUDGETS[entry]
    monkeypatch.setattr(_ranges, "_workers", lambda most: 1)  # the memory of a forked writer or sweep worker goes untraced
    result, peak = _traced_peak(lambda: call(source, credited, tied, tmp_path))
    del result
    assert peak <= budget * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"
