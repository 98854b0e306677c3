"""Memory budgets: the traced peak of reading a fixed 2e5-record set, from
a file or a pipe, in one reader, and of each public entry point that works
on the whole set, stays within a small multiple of the set's columns, so
that a change that adds a copy of the records shows here."""

import json
import os
import threading
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


# reader -> (the writer of its file, the most traced bytes per byte of the columns; measured 2.22, 3.69, 4.63)
BUDGETS = {
    "numpy_csv": (write_predictions_csv, 2.5),
    "row_reader_csv": (_quoted_header_csv, 4.0),
    "jsonl": (_jsonl, 5.0),
}


# format -> (the writer of its file, the most traced bytes per byte of the columns when piped;
# measured 2.21 and 4.25, where holding a later region's bytes would add 0.7 and 2.6)
PIPED_BUDGETS = {
    "csv": (write_predictions_csv, 2.5),
    "jsonl": (_jsonl, 5.0),
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
    monkeypatch.setattr(_ranges, "_workers", lambda size: 1)  # a forked reader's memory goes untraced
    row_reader, row_reads = dataio._read_csv, []
    monkeypatch.setattr(dataio, "_read_csv", lambda pread: row_reads.append(pread) or row_reader(pread))
    ds, peak = _traced_peak(lambda: ingest(path))
    assert len(row_reads) == (reader == "row_reader_csv")
    assert ds.y_true.tolist() == source.y_true.tolist() and ds.confidence.tolist() == source.confidence.tolist()
    assert peak <= budget * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"


@pytest.mark.parametrize("fmt", list(PIPED_BUDGETS))
def test_piped_ingest_peak_stays_within_its_budget(tmp_path, monkeypatch, source, fmt):
    write, budget = PIPED_BUDGETS[fmt]
    path = tmp_path / f"p.{fmt}"
    write(source, path)
    data = memoryview(path.read_bytes())  # read before the tracing starts
    monkeypatch.setattr(_ranges, "_workers", lambda size: 1)
    read_end, write_end = os.pipe()

    def feed():
        try:
            at = 0
            while at < len(data):
                at += os.write(write_end, data[at:])
        finally:
            os.close(write_end)

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        ds, peak = _traced_peak(lambda: ingest(f"/dev/fd/{read_end}", fmt))
    finally:
        os.close(read_end)
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert ds.y_true.tolist() == source.y_true.tolist() and ds.confidence.tolist() == source.confidence.tolist()
    assert peak <= budget * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"


@pytest.fixture(scope="module")
def credited(source):
    """The set with a credit column, every tenth record without credit."""
    credit = np.random.default_rng(11).random(RECORDS)
    credit[::10] = np.nan
    return EvaluationSet(source.y_true, source.y_pred, source.confidence, credit,
                         class_count=source.class_count, source_id=source.source_id)


# entry point -> (its call on the set, or on the credited set, and a directory to write to;
# the most traced bytes per byte of the columns; measured 1.37, 3.34, 6.75 and 5.67)
CALL_BUDGETS = {
    "sweep": (lambda ds, credited, out: sweep(ds), 1.5),
    "write_predictions_csv": (lambda ds, credited, out: write_predictions_csv(credited, out / "p.csv"), 3.75),
    "cwsa_gradient": (lambda ds, credited, out: cwsa_gradient(ds, 0.7), 7.5),
    "risk_coverage_points": (lambda ds, credited, out: risk_coverage_points(ds), 6.25),
}


@pytest.mark.parametrize("entry", list(CALL_BUDGETS))
def test_entry_point_peak_stays_within_its_budget(tmp_path, source, credited, entry):
    call, budget = CALL_BUDGETS[entry]
    result, peak = _traced_peak(lambda: call(source, credited, tmp_path))
    del result
    assert peak <= budget * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"
