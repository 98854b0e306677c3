"""Memory budgets of ingest: the traced peak of reading a fixed 2e5-record
set, in one reader, stays within a small multiple of the set's columns, so
that a change that adds a copy of the records shows here."""

import json
import tracemalloc

import pytest

from cwsa_eval import ArchetypeSpec, _ranges, dataio, generate, ingest, write_predictions_csv

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


@pytest.mark.parametrize("reader", list(BUDGETS))
def test_ingest_peak_stays_within_its_budget(tmp_path, monkeypatch, source, reader):
    write, budget = BUDGETS[reader]
    path = tmp_path / ("p.jsonl" if reader == "jsonl" else "p.csv")
    write(source, path)
    monkeypatch.setattr(_ranges, "_workers", lambda size: 1)  # a forked reader's memory goes untraced
    row_reader, row_reads = dataio._read_csv, []
    monkeypatch.setattr(dataio, "_read_csv", lambda fd: row_reads.append(fd) or row_reader(fd))
    tracemalloc.start()
    try:
        ds = ingest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(row_reads) == (reader == "row_reader_csv")
    assert ds.y_true.tolist() == source.y_true.tolist() and ds.confidence.tolist() == source.confidence.tolist()
    assert peak <= budget * COLUMN_BYTES, f"{peak / COLUMN_BYTES:.2f} x the columns"
