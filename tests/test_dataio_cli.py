import builtins
import contextlib
import csv
import errno
import functools
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import types
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cwsa_eval import (
    ArchetypeSpec,
    BinningSpec,
    EvaluationSet,
    IngestError,
    ThresholdGrid,
    aurc,
    brier,
    generate,
    ingest,
    point_metrics,
    sweep,
    write_predictions_csv,
)
from cwsa_eval import _ranges, cli, dataio
from cwsa_eval.cli import main
from cwsa_eval.dataio import dumps_report, point_report_doc, sweep_report_doc
from conftest import forced_split, splits


class TestIngestCsv:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_true,y_pred,confidence\n1,1,0.9\n")
        ds = ingest(path)
        assert len(ds) == 1
        assert ds.y_true[0] == 1 and ds.y_pred[0] == 1
        assert ds.confidence[0] == 0.9
        assert ds.class_count == 2

    def test_credit_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_true,y_pred,confidence,credit\n0,1,0.8,0.25\n0,0,0.9,\n")
        ds = ingest(path)
        assert ds.credit is not None
        assert ds.credit[0] == 0.25
        assert np.isnan(ds.credit[1])

    def test_out_of_range_confidence_names_the_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_true,y_pred,confidence\n0,0,0.5\n1,1,1.2\n")
        with pytest.raises(IngestError, match=r"p\.csv:3"):
            ingest(path)

    def test_non_integer_label_names_the_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_true,y_pred,confidence\n0,zero,0.5\n")
        with pytest.raises(IngestError, match=r"p\.csv:2.*y_pred"):
            ingest(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_true,confidence\n0,0.5\n")
        with pytest.raises(IngestError, match="y_pred"):
            ingest(path)

    def test_short_row_names_the_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_true,y_pred,confidence\n0,0,0.5\n1,1\n")
        with pytest.raises(IngestError, match=r"p\.csv:3.*columns"):
            ingest(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            ingest(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_true,y_pred,confidence\n")
        with pytest.raises(IngestError, match="no prediction rows"):
            ingest(path)

    @pytest.mark.parametrize("header", ["y_true,y_pred,confidence", "y_true,y_pred,confidence,credit"])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        text = header + "\n0,1,0.5\n\n2,2,0.75\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())  # as a spreadsheet's "CSV UTF-8" starts
        assert _outcome_of(ingest(marked)) == _outcome_of(ingest(plain))

    def test_explicit_class_count_checked(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("y_true,y_pred,confidence\n4,0,0.5\n")
        with pytest.raises(IngestError, match=r"p\.csv:2: .*class_count"):
            ingest(path, class_count=3)
        assert ingest(path, class_count=5).class_count == 5


class TestIngestJsonl:
    def test_probs_reduction(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 1, "probs": [0.2, 0.5, 0.3]}\n')
        ds = ingest(path)
        assert ds.y_pred[0] == 1
        assert ds.confidence[0] == 0.5

    def test_probs_tie_takes_lowest_index(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "probs": [0.4, 0.4, 0.2]}\n')
        ds = ingest(path)
        assert ds.y_pred[0] == 0

    def test_explicit_fields_kept_when_consistent(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "y_pred": 2, "confidence": 0.5, "probs": [0.25, 0.25, 0.5]}\n')
        ds = ingest(path)
        assert ds.y_pred[0] == 2

    def test_probs_fill_only_the_absent_fields(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "y_pred": 2, "probs": [0.25, 0.25, 0.5]}\n')
        ds = ingest(path)
        assert ds.y_pred[0] == 2
        assert ds.confidence[0] == 0.5

    def test_probs_confidence_conflict(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "confidence": 0.6, "probs": [0.2, 0.5, 0.3]}\n')
        with pytest.raises(IngestError, match="disagrees"):
            ingest(path)

    def test_probs_must_sum_to_one(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "probs": [0.5, 0.6]}\n')
        with pytest.raises(IngestError, match="sum"):
            ingest(path)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "y_pred": 0, "confidence": 0.5}\nnot json\n')
        with pytest.raises(IngestError, match=r"p\.jsonl:2"):
            ingest(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0}\n')
        with pytest.raises(IngestError, match="y_pred and confidence"):
            ingest(path)

    def test_credit_key(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "y_pred": 0, "confidence": 0.5, "credit": 0.75}\n')
        assert ingest(path).credit[0] == 0.75

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "y_pred": 0, "confidence": 0.5}\n\n')
        assert len(ingest(path)) == 1


_CSV_HEADER = "y_true,y_pred,confidence\n"

# file name -> (contents, line the error must name)
MALFORMED_FILES = {
    "nan_probs.jsonl": ('{"y_true":0,"probs":[0.9,NaN,0.1]}\n', 1),
    "inf_probs.jsonl": ('{"y_true":0,"probs":[0.9,1e400]}\n', 1),
    "huge_probs.jsonl": ('{"y_true":0,"probs":[1' + "0" * 400 + ",0.1]}\n", 1),
    "overflowing_probs.jsonl": ('{"y_true":0,"probs":[1e308,1e308]}\n', 1),
    "opposite_inf_probs.jsonl": ('{"y_true":0,"probs":[1e400,-1e400]}\n', 1),
    "huge_label.csv": (_CSV_HEADER + "0,0,0.5\n99999999999999999999999,0,0.5\n", 3),
    "huge_label.jsonl": ('{"y_true":9223372036854775808,"y_pred":0,"confidence":0.5}\n', 1),
    "text_confidence.jsonl": ('{"y_true":0,"confidence":"abc","probs":[0.9,0.1]}\n', 1),
    "null_confidence.jsonl": ('{"y_true":0,"confidence":null,"probs":[0.9,0.1]}\n', 1),
    "huge_confidence.jsonl": ('{"y_true":0,"y_pred":0,"confidence":1' + "0" * 400 + "}\n", 1),
    "long_int.jsonl": ('{"y_true":1' + "0" * 5000 + "}\n", 1),
    "deep_nesting.jsonl": ('{"y_true":0,"y_pred":0,"confidence":0.5}\n' + "[" * 100_000 + "\n", 2),
    "unclosed_quote.csv": (_CSV_HEADER + '0,0,"' + "x" * 140_000 + "\n", 2),
    "not_utf8.csv": (_CSV_HEADER.encode() + b"0,0,0.5\n1,1,0.\xff\n", 3),
    "not_utf8.jsonl": (b'{"y_true":0,"y_pred":0,"confidence":0.5}\n' * 3 + b'{"y_true":"\xff"}\n', 4),
    "nan_confidence.csv": (_CSV_HEADER + "0,0,0.5\n0,0,nan\n", 3),
    "nan_credit.csv": ("y_true,y_pred,confidence,credit\n0,0,0.5,\n0,0,0.5,nan\n", 3),
    "negative_label.csv": (_CSV_HEADER + "0,0,0.5\n0,-1,0.5\n", 3),
    "negative_label.jsonl": ('{"y_true":0,"y_pred":0,"confidence":0.5}\n\n{"y_true":-2,"y_pred":0,"confidence":0.5}\n', 3),
    "bool_label.jsonl": ('{"y_true":true,"y_pred":0,"confidence":0.5}\n', 1),
    # blank rows before the bad record shift its line
    "blank_rows.csv": (_CSV_HEADER + "0,0,0.5\n\n\n1,1,0.5\n\n0,0,1.5\n", 7),
    # a range fault on line 3 comes before the type fault on line 5
    "range_before_type.csv": (_CSV_HEADER + "0,0,0.5\n0,0,1.5\n0,0,0.5\n0,zero,0.5\n", 3),
    # a valid number in a cell longer than csv.field_size_limit()
    "over_field_limit.csv": (_CSV_HEADER + "0,0,0." + "0" * 140_000 + "5\n", 2),
    # NumPy reads the label "\u01fe1" as 4621, and strips "\x1c" as whitespace
    "non_ascii_label.csv": (_CSV_HEADER + "0,0,0.5\n\u01fe1,0,0.5\n", 3),
    "separator_byte.csv": (_CSV_HEADER + "0,0,0.5\n1\x1c,0,0.5\n", 3),
    # the JSONL column checks must not read a NaN credit as "absent", nor take the first of two objects
    "nan_credit.jsonl": ('{"y_true":0,"y_pred":0,"confidence":0.5}\n{"y_true":0,"y_pred":0,"confidence":0.5,"credit":NaN}\n', 2),
    "two_objects.jsonl": ('{"y_true":0,"y_pred":0,"confidence":0.5}{"y_true":1,"y_pred":1,"confidence":0.5}\n', 1),
    # a range fault before a line that is not UTF-8, within the 8 KB a text decoder reads ahead
    "range_before_bad_byte.jsonl": (
        b'{"y_true":0,"y_pred":0,"confidence":0.5}\n{"y_true":0,"y_pred":0,"confidence":1.5}\n'
        b'{"y_true":0,"y_pred":0,"confidence":0.5,"id":"\xff"}\n', 2),
    "range_before_bad_byte.csv": (_CSV_HEADER.encode() + b"0,0,0.5\n0,0,1.5\n0,0,0.5\xff\n", 3),
    # lines ended by CR alone count as lines
    "cr_bad_byte.csv": (b"y_true,y_pred,confidence\r0,0,0.5\r1,1,0.5\r0,0,0.\xff\r", 4),
    "cr_bad_byte.jsonl": (b'{"y_true":0,"y_pred":0,"confidence":0.5}\r\r{"y_true":"\xff"}\r', 3),
    # a quoted cell over two lines moves the records after it down a line
    "quoted_newline_range.csv": (_CSV_HEADER + '"1\n",1,0.5\n0,0,1.5\n', 4),
    "quoted_newline_cell.csv": (_CSV_HEADER + '"1\n",1,0.5\n0,x,0.5\n', 4),
    "quoted_header_range.csv": ('"y_true\n",y_pred,confidence\n0,1,1.5\n', 3),
    # a byte-order mark moves no line
    "bom_range.csv": (b"\xef\xbb\xbf" + _CSV_HEADER.encode() + b"0,0,0.5\n0,0,1.5\n", 3),
}


@pytest.mark.parametrize("name", list(MALFORMED_FILES))
def test_malformed_line_names_file_and_line(tmp_path, name):
    content, line = MALFORMED_FILES[name]
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(IngestError, match=rf"{name}:{line}: "):
        ingest(path)


# file name -> (contents, the y_true, y_pred and confidence columns)
ACCEPTED_FILES = {
    "crlf.csv": ("y_true,y_pred,confidence\r\n0,1,0.5\r\n2,2,0.25\r\n", ([0, 2], [1, 2], [0.5, 0.25])),
    "lone_cr.csv": ("y_true,y_pred,confidence\r0,1,0.5\r2,2,0.25\r", ([0, 2], [1, 2], [0.5, 0.25])),
    "quoted_cell.csv": (_CSV_HEADER + '"0",0,0.5\n', ([0], [0], [0.5])),
    "quoted_header.csv": ('"y_true\n",y_pred,confidence\n0,1,0.5\n', ([0], [1], [0.5])),
    # split on every comma, the row would read as 0, 0, 1.0
    "quoted_comma.csv": ('id,note,y_true,y_pred,confidence\n"a,b",0,0,1,0.5\n', ([0], [1], [0.5])),
}


class TestBulkCsv:
    @pytest.mark.parametrize("name", list(ACCEPTED_FILES))
    def test_both_paths_read_the_same_columns(self, tmp_path, monkeypatch, name):
        content, columns = ACCEPTED_FILES[name]
        path = tmp_path / name
        path.write_bytes(content.encode())
        shipped = ingest(path)
        monkeypatch.setattr(dataio, "_bulk_columns", _no_bulk_pass)
        for ds in (shipped, ingest(path)):
            assert (ds.y_true.tolist(), ds.y_pred.tolist(), ds.confidence.tolist()) == columns

    @pytest.mark.parametrize("content", [_CSV_HEADER, _CSV_HEADER + "\n\r\n"], ids=["header", "blank_rows"])
    def test_no_rows_through_both_paths(self, tmp_path, monkeypatch, content):
        path = tmp_path / "p.csv"
        path.write_bytes(content.encode())
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            with pytest.raises(IngestError, match=r"^\S*p\.csv: no prediction rows$"):
                ingest(path)
        assert shown == []  # loadtxt's "input contained no data" stays unseen
        monkeypatch.setattr(dataio, "_bulk_columns", _no_bulk_pass)
        with pytest.raises(IngestError, match=r"^\S*p\.csv: no prediction rows$"):
            ingest(path)

    def test_scan_finds_an_over_limit_line(self):
        long_row = "0,0,0." + "0" * 140_000 + "5"
        for content, readable in [
            (_CSV_HEADER + "0,0,0.5\n" * 3, True),
            (_CSV_HEADER + long_row + "\n0,0,0.5\n", False),
            (_CSV_HEADER + "0,0,0.5\n" + long_row, False),  # the last line, with no newline
        ]:
            records = dataio._bulk_readable(content.encode())
            assert (records is not None) is readable

    def test_valid_file_needs_no_row_reader(self, tmp_path, monkeypatch):
        source = generate(ArchetypeSpec.for_kind("calibrated", n=2000, seed=4))
        path = tmp_path / "cal.csv"
        write_predictions_csv(source, path)
        monkeypatch.setattr(dataio, "_read_csv", _no_row_reader)
        ds = ingest(path)
        for name in ("y_true", "y_pred", "confidence"):
            assert np.array_equal(getattr(ds, name), getattr(source, name))

    def test_lone_cr_file_over_the_field_limit_goes_to_the_row_reader(self, tmp_path, monkeypatch):
        source = generate(ArchetypeSpec.for_kind("calibrated", n=8000, seed=4))
        path = tmp_path / "cal.csv"
        write_predictions_csv(source, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        assert path.stat().st_size > csv.field_size_limit()  # one line, if CR ended none
        read = _count_row_reads(monkeypatch)
        ds = ingest(path)
        assert read == [path]
        for name in ("y_true", "y_pred", "confidence"):
            assert np.array_equal(getattr(ds, name), getattr(source, name))

    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 22])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "mixed"], ids=["lf", "crlf", "cr", "mixed"])
    def test_broken_rule_is_named_without_the_row_reader(self, tmp_path, monkeypatch, ending, block):
        # The line is found from the bulk arrays, where record i sits on line i + 2, and equals the
        # row reader's.  A lone CR or an empty line sends the file to the row reader, once.
        path = tmp_path / "p.csv"
        row_reader = dataio._read_csv
        _small_blocks(monkeypatch, block)
        read = _count_row_reads(monkeypatch)
        _write_lines(path, ["0,0,0.5"] * 5 + ["1,1,1.5", "0,0,0.5", ""], ending)
        with pytest.raises(IngestError, match=r"p\.csv:7: confidence 1\.5 outside \[0, 1\]"):
            ingest(path)
        assert len(read) == (ending in ("\r", "mixed"))
        for lines, class_count in BLANK_LINE_FILES:
            _write_lines(path, lines, ending)
            assert not _opened(_bulk_pass, path)  # an empty line
            with pytest.raises(dataio._Fault) as direct:
                _opened(lambda pread: dataio._join(row_reader(pread), class_count), path)
            read.clear()
            with pytest.raises(IngestError) as shipped:
                ingest(path, class_count=class_count)
            assert str(shipped.value) == f"{path}:{direct.value.line}: {direct.value.reason}"
            assert read == [path]

    @pytest.mark.parametrize("block", [1, 2, 3, 1 << 22])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "mixed"], ids=["lf", "crlf", "cr", "mixed"])
    def test_bulk_pass_reads_what_the_row_reader_reads(self, tmp_path, monkeypatch, ending, block):
        _small_blocks(monkeypatch, block)
        path = tmp_path / "p.csv"
        files = [(content, None) for content, _ in ACCEPTED_FILES.values()] + [
            (None, lines) for lines, _ in BLANK_LINE_FILES
        ] + [(None, [line for line in lines if line]) for lines, _ in BLANK_LINE_FILES]
        bulk_read = 0
        for content, lines in files:
            if content is None:
                _write_lines(path, lines, ending)
            else:
                path.write_bytes(content.encode())
            bulk = _opened(_bulk_pass, path)
            if not bulk:
                assert bulk is None
                with monkeypatch.context() as patched:
                    patched.setattr(dataio, "_bulk_columns", _no_bulk_pass)
                    expected = _outcome(path)
                with monkeypatch.context() as patched:
                    read = _count_row_reads(patched)
                    assert _outcome(path) == expected
                assert read == [path]
                continue
            bulk_read += 1
            bulk_parts, bulk_skipped = bulk
            ((row, row_skipped, _),) = _opened(dataio._read_csv, path)  # one chunk
            assert bulk_skipped == row_skipped == Counter({0: 1})
            *bulk, bulk_credit = zip(*bulk_parts)  # one part a piece
            for bulk_column, row_column in zip(bulk, row[:3]):
                assert np.concatenate(bulk_column).tolist() == row_column.tolist()
            assert set(bulk_credit) == {None} and row[3] is None
        # crlf.csv, and the files without empty lines at LF and CRLF endings
        assert bulk_read == 1 + len(BLANK_LINE_FILES) * (ending in ("\n", "\r\n"))


# record lines after the header of files with empty lines, which the row reader
# reads, each with a class_count under which one of them breaks a rule
BLANK_LINE_FILES = [
    (["0,0,0.5", "", "", "1,1,1.5", "", "0,0,0.5", ""], None),
    (["", "0,0,0.5", "", "0,-1,0.5", "0,0,1.5"], None),
    (["0,0,0.5", "", "", "0,0,0.5", "0,0,1.5"], None),  # the last line, with no line end
    (["0,0,0.5", "", "0,2,0.5", "", ""], 2),
]


def _write_lines(path, lines, ending):
    """Write a header and ``lines`` to ``path``, each line but the last ended
    by ``ending``, or by CR, CRLF and LF in turn when ``ending`` is "mixed"."""
    endings = itertools.cycle(["\r", "\r\n", "\n"] if ending == "mixed" else [ending])
    rows = ["y_true,y_pred,confidence"] + lines
    path.write_bytes("".join(row + next(endings) for row in rows[:-1]).encode() + rows[-1].encode())


def _no_row_reader(*args):
    raise AssertionError("the row reader read a valid file")


def _small_blocks(monkeypatch, block):
    """Let the NumPy CSV pass take pieces of about ``block`` bytes, and
    search for a LF at most ``block`` bytes at a time."""
    monkeypatch.setattr(dataio, "_SCAN_BLOCK", block)
    monkeypatch.setattr(_ranges, "_LF_SEARCH", min(block, _ranges._LF_SEARCH))


def _pread(raw):
    """The ``pread(n, at)`` through which ``ingest`` reads the file open as ``raw``."""
    return functools.partial(os.pread, raw.fileno())


def _fd_of(pread):
    """The descriptor that ``pread``, as ``ingest`` makes it, reads: a file's, or a pipe's spool's."""
    return pread.args[0] if isinstance(pread, functools.partial) else pread._spool.fileno()


def _opened(reader, path, *args):
    """``reader(pread, *args)`` of the file at ``path``, read by ``pread`` as ``ingest`` reads it;
    of a reader that yields its chunks, the list of the chunks."""
    with open(path, "rb") as raw:
        result = reader(_pread(raw), *args)
        return list(result) if isinstance(result, types.GeneratorType) else result


def _bulk_pass(pread):
    """``(parts, skipped)`` of the NumPy pass over the CSV file read by ``pread``, joined as
    ``_ingest`` joins them but with no record rule checked, ``skipped`` the sum of the chunks'
    counts of lines that start no record, or ``None`` when it declines."""
    skipped = Counter()

    def counted(chunks):
        with contextlib.closing(chunks):
            for chunk in chunks:
                if chunk is not None:
                    skipped.update(chunk[1])
                yield chunk

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(dataio, "_first_bad_record", lambda *args: None)
        usecols = dataio._bulk_columns(pread)
        regions = [(0, os.fstat(_fd_of(pread)).st_size)]
        read_range = usecols and functools.partial(dataio._read_csv_range, usecols)
        parts = read_range and dataio._join(counted(_ranges.read_ranges(pread, regions, read_range)), None)
        return parts and (parts, skipped)


def _count_row_reads(monkeypatch):
    """Let ``dataio._read_csv`` note the path of each file it reads in the list
    returned, found from its descriptor through ``/proc/self/fd`` (Linux)."""
    row_reader, read = dataio._read_csv, []

    def counted_row_reader(pread):
        read.append(Path(os.readlink(f"/proc/self/fd/{_fd_of(pread)}")))
        return row_reader(pread)

    monkeypatch.setattr(dataio, "_read_csv", counted_row_reader)
    return read


def _no_bulk_pass(pread):
    """A ``_bulk_columns`` that declines every file, so that the row reader reads it."""
    return None


def _outcome(path, fmt=None):
    """The columns ``ingest`` reads from ``path``, or the text of its error."""
    try:
        return _outcome_of(ingest(path, fmt))
    except IngestError as exc:
        return str(exc)


def _outcome_of(ds):
    credit = None if ds.credit is None else [None if math.isnan(c) else c for c in ds.credit.tolist()]
    return ds.y_true.tolist(), ds.y_pred.tolist(), ds.confidence.tolist(), credit


def _jsonl_text(records):
    return "".join(json.dumps(record) + "\n" for record in records)


# probs rows whose np.sum and math.fsum fall on opposite sides of the 1e-6 tolerance
EDGE_PROBS = {
    "short_in": [1 - 1e-6, 1.5e-6, 5e-7],
    "short_out": [1 - 2e-6, 2e-6, 1e-6],
    "long_in": [1 - 2e-6] + [1e-7] * 10 + [0.0],  # long enough for pairwise np.sum
    "long_out": [1 - 3e-6] + [2e-7] * 10,
    "cancel_in": [1.0, 1e300, -1e300],
    "cancel_out": [1e300, 1e-5, -1e300, 1.0],
}


def _cell_by_cell(monkeypatch):
    """Turn the NumPy probs reduction off, so that every JSONL chunk is checked cell by cell."""
    monkeypatch.setattr(dataio, "_top_of_probs", lambda vectors: None)


class TestBulkJsonl:
    """A JSONL file read as shipped, where plain chunks are checked as NumPy
    columns, and with every chunk checked cell by cell."""

    def test_valid_file_needs_no_row_reader(self, tmp_path, monkeypatch):
        source = generate(ArchetypeSpec.for_kind("calibrated", n=2000, seed=4))
        path = tmp_path / "cal.jsonl"
        path.write_text(_jsonl_text(
            {"y_true": t, "y_pred": p, "confidence": c}
            for t, p, c in zip(source.y_true.tolist(), source.y_pred.tolist(), source.confidence.tolist())
        ))
        monkeypatch.setattr(dataio, "_jsonl_record", _no_row_reader)
        ds = ingest(path)
        for name in ("y_true", "y_pred", "confidence"):
            assert np.array_equal(getattr(ds, name), getattr(source, name))
        assert ds.credit is None
        monkeypatch.undo()
        _cell_by_cell(monkeypatch)
        assert _outcome(path) == _outcome_of(ds)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_both_paths_read_the_same_columns(self, tmp_path, monkeypatch, chunk):
        """probs of several lengths, with ties, reduced a few values at a
        time or all at once, between records with and without credit."""
        monkeypatch.setattr(dataio, "_CHUNK", chunk)
        rng = np.random.default_rng(8)
        patterns = [[1.0], [0.5, 0.5], [0.25, 0.5, 0.25], [0.4, 0.2, 0.4], [0.1] * 10, [0, 1], [-0.0, 1.0]]
        records = []
        for i in range(300):
            if i % 3 == 0:
                records.append({"y_true": i % 4, "y_pred": 1, "confidence": 0.5, "credit": [None, 0.25, 1][i // 3 % 3]})
            elif i % 3 == 1:
                records.append({"y_true": i % 4, "probs": patterns[i % len(patterns)]})
            else:
                probs = rng.random(int(rng.integers(1, 12)))
                records.append({"y_true": i % 4, "probs": (probs / probs.sum()).tolist(), "credit": None})
        records[4]["credit"] = 0.75
        path = tmp_path / "p.jsonl"
        path.write_text(_jsonl_text(records) + "\n  \n" + _jsonl_text(records[:5]))
        monkeypatch.setattr(dataio, "_jsonl_record", _no_row_reader)  # a plain file
        shipped = _outcome(path)
        monkeypatch.undo()
        monkeypatch.setattr(dataio, "_CHUNK", chunk)
        _cell_by_cell(monkeypatch)
        assert shipped == _outcome(path)
        assert shipped[3][4] == 0.75 and shipped[3][0] is None

    @pytest.mark.parametrize("name", list(EDGE_PROBS))
    def test_probs_sum_is_judged_as_the_row_reader_judges_it(self, tmp_path, monkeypatch, name):
        probs = EDGE_PROBS[name]
        accepted = abs(math.fsum(probs) - 1.0) <= dataio.PROBS_TOLERANCE
        assert (abs(np.sum(probs) - 1.0) <= dataio.PROBS_TOLERANCE) != accepted  # np.sum alone errs
        assert (dataio._top_of_probs([probs, [0.5, 0.5]]) is not None) == accepted
        path = tmp_path / "p.jsonl"
        path.write_text(_jsonl_text([{"y_true": 0, "probs": [0.5, 0.5]}, {"y_true": 0, "probs": probs}]))
        shipped = _outcome(path)
        _cell_by_cell(monkeypatch)
        assert shipped == _outcome(path)

    @pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank_rows"])
    def test_no_rows_through_both_paths(self, tmp_path, monkeypatch, content):
        path = tmp_path / "p.jsonl"
        path.write_text(content)
        with pytest.raises(IngestError, match=r"^\S*p\.jsonl: no prediction rows$"):
            ingest(path)
        _cell_by_cell(monkeypatch)
        with pytest.raises(IngestError, match=r"^\S*p\.jsonl: no prediction rows$"):
            ingest(path)


_VALID = '{"y_true": 0, "y_pred": 0, "confidence": 0.5}\n'
_BAD_VECTOR = '{"y_true": 0, "probs": [0.5, 0.6]}\n'  # sums to 1.1


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
class TestOneJsonlPass:
    """Every JSONL line is decoded once, and the first fault is named
    wherever the chunks close."""

    @pytest.mark.parametrize("last, error", [
        ("", None),
        ('{"y_true": 0, "probs": [0.25, 0.75], "confidence": 0.75}\n', None),  # checked at once
        ('{"y_true": 0, "y_pred": 0, "confidence": 1.5}\n', r":4: confidence 1\.5 outside"),
        ('{"y_true": 0, "y_pred": 0, "confidence": 0.5, "id": "\udcff"}\n', r":4: not valid UTF-8"),
    ], ids=["plain", "odd_last_line", "range_fault", "bad_byte"])
    def test_each_file_is_opened_once(self, tmp_path, monkeypatch, chunk, last, error):
        monkeypatch.setattr(dataio, "_CHUNK", chunk)
        path = tmp_path / "p.jsonl"
        text = _VALID + '{"y_true": 1, "probs": [0.5, 0.5]}\n\n' + last
        path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is the byte 0xff
        opened = []
        real_open = builtins.open

        def counted_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted_open)
        outcome = _outcome(path)
        monkeypatch.undo()
        assert opened.count(path) == 1
        if error is None:
            assert outcome[0] == [0, 1] + ([0] if last else [])
        else:
            assert re.search(error, outcome)

    def test_reductions_ahead_of_a_cell_fault_are_checked(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(dataio, "_CHUNK", chunk)
        path = tmp_path / "p.jsonl"
        path.write_text('{"y_true": 0, "probs": [1.5, -0.5]}\n{"y_true": 0, "probs": [0.5, "0.5"]}\n')
        with pytest.raises(IngestError, match=r"p\.jsonl:1: confidence 1\.5 outside \[0, 1\]$"):
            ingest(path)

    @pytest.mark.parametrize("later", [
        b"not json\n", b"[1]\n", b'{"y_true": "x", "y_pred": 0, "confidence": 0.5}\n',
        b'{"y_true": 0, "probs": [1.0], "confidence": "x"}\n', b'{"y_true": "\xff"}\n',
    ], ids=["invalid_json", "not_an_object", "bad_cell", "bad_cell_checked_at_once", "bad_byte"])
    def test_bad_vector_before_a_later_fault_is_named(self, tmp_path, monkeypatch, chunk, later):
        monkeypatch.setattr(dataio, "_CHUNK", chunk)
        path = tmp_path / "p.jsonl"
        path.write_bytes((_VALID + _BAD_VECTOR + "\n").encode() + later)
        with pytest.raises(IngestError, match=r"p\.jsonl:2: probs sum to "):
            ingest(path)

    def test_label_beyond_int64_before_a_bad_vector_is_named(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(dataio, "_CHUNK", chunk)
        path = tmp_path / "p.jsonl"
        path.write_text(_VALID + '{"y_true": 9223372036854775808, "y_pred": 0, "confidence": 0.5}\n' + _BAD_VECTOR)
        with pytest.raises(IngestError, match=r"p\.jsonl:2: y_true 9223372036854775808 does not fit in int64"):
            ingest(path)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
class TestOneJsonlPassUnderASplit:
    """The parent opens the file once while forked readers share it."""

    @pytest.fixture(autouse=True)
    def split(self, workers, tmp_path):
        with forced_split(workers) as forks:
            yield
        assert forks and splits((tmp_path / "p.jsonl").read_bytes(), workers)

    test_each_file_is_opened_once = TestOneJsonlPass.test_each_file_is_opened_once


def _ingest_outcome(path, class_count=None):
    """The columns and class count ``ingest`` reads from ``path``, or the text of its error."""
    try:
        ds = ingest(path, class_count=class_count)
    except IngestError as exc:
        return str(exc)
    return _outcome_of(ds), ds.class_count


def _outcomes_at_each_split(path, class_count=None):
    """:func:`_ingest_outcome` with the file split between 1, 2 and 3
    readers, each run asserted to fork exactly when the file splits."""
    data = path.read_bytes()
    outcomes = []
    for workers in (1, 2, 3):
        with forced_split(workers) as forks:
            outcomes.append(_ingest_outcome(path, class_count))
        assert bool(forks) == splits(data, workers, path.suffix[1:]), workers
    return outcomes


def _write_jsonl_lines(path, lines, ending):
    """Write ``lines`` to ``path``, each ended by ``ending``, or by CR, CRLF
    and LF in turn when ``ending`` is "mixed"."""
    endings = itertools.cycle(["\r", "\r\n", "\n"] if ending == "mixed" else [ending])
    path.write_bytes("".join(line + next(endings) for line in lines).encode("utf-8", "surrogateescape"))


_STATED = [  # probs records that also give y_pred or confidence, all valid
    {"y_true": 0, "probs": [0.25, 0.75], "confidence": 0.75},
    {"y_true": 1, "probs": [0.5, 0.5], "y_pred": 1},  # kept, though the argmax is 0
    {"y_true": 2, "probs": [0.2, 0.3, 0.5], "y_pred": 0, "confidence": 0.5 + 9e-7, "credit": 0.5},
    {"y_true": 0, "probs": [1.0], "confidence": 1},
    {"y_true": 1, "probs": [0.4, 0.6], "confidence": 0.6 - 5e-7, "credit": None},
]

# JSONL files ingest accepts
ACCEPTED_JSONL_FILES = {
    "explicit.jsonl": _jsonl_text(
        {"y_true": i % 3, "y_pred": i * 7 % 3, "confidence": 0.5 + i / 100} for i in range(40)),
    "probs.jsonl": _jsonl_text(
        {"y_true": i % 3, "probs": [0.25, 0.5, 0.25] if i % 2 else [0.6, 0.2, 0.2]} for i in range(40)),
    "stated.jsonl": _jsonl_text(_STATED * 8),
    "credit.jsonl": _jsonl_text(
        {"y_true": 0, "y_pred": 0, "confidence": 0.5, **({"credit": i / 40} if i % 3 else {})} for i in range(40)),
    "layout.jsonl": _VALID + "\n  \n" + " " + _VALID * 10 + "\x1c\n" + _VALID.replace("\n", "  \n") * 10
    + '{"y_true": 0, "probs": [0.5, 0.5], "id": [1, {"a": null}]}\n' + "\t" + _VALID * 5,
    "no_final_newline.jsonl": _VALID * 12 + _VALID.rstrip("\n"),
    "crlf.jsonl": _VALID.replace("\n", "\r\n") * 20,
    "cr.jsonl": _VALID.replace("\n", "\r") * 20,  # no LF: one range
    "mixed.jsonl": (_VALID.replace("\n", "\r") + _VALID.replace("\n", "\r\n") + _VALID + "\r") * 8,
}

_MALFORMED_JSONL = [name for name in MALFORMED_FILES if name.endswith(".jsonl")]

_FAULT_LINES = {  # a last line, with the error it must raise
    "range": ('{"y_true": 0, "y_pred": 0, "confidence": 1.5}', r"confidence 1\.5 outside"),
    "class_count": ('{"y_true": 0, "y_pred": 2, "confidence": 0.5}', r"y_pred 2 outside"),
    "cell": ('{"y_true": 0, "y_pred": "x", "confidence": 0.5}', r"y_pred must be an integer"),
    "stated": ('{"y_true": 0, "probs": [0.5, 0.5], "confidence": 0.75}', r"confidence 0\.75 disagrees"),
    "json": ("not json", r"invalid JSON"),
    "byte": ('{"y_true": "\udcff"}', r"not valid UTF-8"),
}


class TestSplitJsonl:
    """A JSONL file split between forked readers reads as one reader reads it:
    the same columns and class count, or the same error naming the same line."""

    @pytest.mark.parametrize("layout", ["as_is", "fault_first", "fault_last", "fault_middle"])
    @pytest.mark.parametrize("name", _MALFORMED_JSONL)
    def test_malformed_files_read_alike(self, tmp_path, name, layout):
        content, line = MALFORMED_FILES[name]
        content = content if isinstance(content, bytes) else content.encode()
        filler = _VALID.encode() * (2 * len(content) // len(_VALID) + 4)  # outweighs the content twice
        middle = (len(filler), len(filler) + len(content))  # where the content lies in "fault_middle"
        if layout == "fault_first":
            content += filler
        elif layout == "fault_last":
            content, line = filler + content, line + filler.count(b"\n")
        elif layout == "fault_middle":
            content, line = filler + content + filler, line + filler.count(b"\n")
        path = tmp_path / name
        path.write_bytes(content)
        if layout != "as_is":
            assert splits(content, 2) and splits(content, 3)
        if layout == "fault_middle":  # the middle of 3 ranges holds the whole content, fault and all
            with open(path, "rb") as raw:
                first, second = _ranges._line_cuts(_pread(raw), (0, len(content)), 3)
            assert first <= middle[0] and middle[1] <= second
        outcomes = _outcomes_at_each_split(path)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert re.match(rf"\S*{re.escape(name)}:{line}: ", outcomes[0])

    @pytest.mark.parametrize("name", list(ACCEPTED_JSONL_FILES))
    def test_accepted_files_read_alike(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(ACCEPTED_JSONL_FILES[name], newline="")
        outcomes = _outcomes_at_each_split(path)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert not isinstance(outcomes[0], str), outcomes[0]
        assert splits(path.read_bytes(), 2) == (name != "cr.jsonl")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_unicode_line_separators_in_a_string_end_no_line(self, tmp_path):
        # Lines end as io.TextIOWrapper ends them, at LF, CRLF and CR;
        # str.splitlines would also end one at U+2028, U+2029 and U+0085.
        records = [{"y_true": i % 2, "y_pred": 0, "confidence": 0.5, "note": f"a{sep}b"}
                   for i, sep in enumerate(["\u2028", "\u0085", "\u2029"] * 10)]
        path = tmp_path / "p.jsonl"
        path.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records), encoding="utf-8")
        assert "\u2028".encode() in path.read_bytes() and "\u0085".encode() in path.read_bytes()
        outcomes = _outcomes_at_each_split(path)
        assert outcomes == [outcomes[0]] * 3
        assert outcomes[0][0][0] == [record["y_true"] for record in records]
        assert _piped_outcome(path.read_bytes(), "jsonl") == outcomes[0][0]

    @pytest.mark.parametrize("fault", list(_FAULT_LINES))
    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "mixed"], ids=["lf", "crlf", "cr", "mixed"])
    def test_blank_lines_before_a_later_range_keep_line_numbers(self, tmp_path, ending, fault):
        bad, error = _FAULT_LINES[fault]
        valid = _VALID.rstrip("\n")
        lines = [valid, "", "  ", valid, '{"y_true": 1, "probs": [0.5, 0.5]}', ""] * 6 + ["", valid, "", bad]
        line = len(lines)  # in the last range, with blank lines after it too
        lines += ["", "  ", valid, ""] * 2
        path = tmp_path / "p.jsonl"
        _write_jsonl_lines(path, lines, ending)
        outcomes = _outcomes_at_each_split(path, class_count=2)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert re.search(rf"p\.jsonl:{line}: {error}", outcomes[0]), outcomes[0]
        assert splits(path.read_bytes(), 3) == (ending != "\r")


    @pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 16])
    def test_cuts_across_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(_ranges, "_LF_SEARCH", block)
        data = b"ab\r\ncd\re\n\n\r\r\nlonger line\n" * 3 + b"x" * 40 + b"\n\r\r\nlast"
        path = tmp_path / "p.jsonl"
        path.write_bytes(data)
        with open(path, "rb") as raw:
            for workers in range(1, 12):
                cuts = []
                for k in range(1, workers):  # just past the first LF at or after k * size // workers
                    cut = data.index(b"\n", k * len(data) // workers) + 1 if b"\n" in data[k * len(data) // workers:] else len(data)
                    if cut < len(data) and cut not in cuts:
                        cuts.append(cut)
                assert _ranges._line_cuts(_pread(raw), (0, len(data)), workers) == cuts, workers


_MALFORMED_CSV = [name for name in MALFORMED_FILES if name.endswith(".csv")]
_ROW = b"0,0,0.5\n"


def _split_csv_cases():
    """``(name, layout)`` of the CSV files of ``MALFORMED_FILES``: as they
    are, and with valid rows that outweigh them twice at their end
    ("fault_first") or after their header line ("fault_last"), where that
    line holds no quote, and so no line end of the header."""
    for name in _MALFORMED_CSV:
        content = MALFORMED_FILES[name][0]
        first = re.split(r"[\r\n]" if isinstance(content, str) else rb"[\r\n]", content, maxsplit=1)[0]
        layouts = ["as_is", "fault_first"] + ["fault_last"] * ('"' not in str(first))
        yield from ((name, layout) for layout in layouts)


class TestSplitCsv:
    """A CSV file split between forked readers reads as one reader reads it:
    the same columns and class count, or the same error naming the same line."""

    @pytest.mark.parametrize("name, layout", list(_split_csv_cases()))
    def test_malformed_files_read_alike(self, tmp_path, name, layout):
        content, line = MALFORMED_FILES[name]
        content = content if isinstance(content, bytes) else content.encode()
        filler = _ROW * (2 * len(content) // len(_ROW) + 4)
        if layout == "fault_first":
            content += filler
        elif layout == "fault_last":
            head = re.match(rb"[^\r\n]*(\r\n|\r|\n)", content).end()
            content, line = content[:head] + filler + content[head:], line + filler.count(b"\n")
        path = tmp_path / name
        path.write_bytes(content)
        outcomes = _outcomes_at_each_split(path)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert re.match(rf"\S*{re.escape(name)}:{line}: ", outcomes[0])

    @pytest.mark.parametrize("name", list(ACCEPTED_FILES))
    def test_accepted_files_read_alike(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(ACCEPTED_FILES[name][0].encode())
        outcomes = _outcomes_at_each_split(path)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0][:3] == ACCEPTED_FILES[name][1]

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "mixed"], ids=["lf", "crlf", "cr", "mixed"])
    def test_every_file_reads_alike_at_each_ending(self, tmp_path, monkeypatch, ending):
        endings = itertools.cycle([b"\r", b"\r\n", b"\n"] if ending == "mixed" else [ending.encode()])
        files = [MALFORMED_FILES[name][0] for name in _MALFORMED_CSV]
        files += [content for content, _ in ACCEPTED_FILES.values()]
        files += [_CSV_HEADER + "\n".join(lines) for lines, _ in BLANK_LINE_FILES]
        path = tmp_path / "p.csv"
        for content in files:
            content = content if isinstance(content, bytes) else content.encode()
            path.write_bytes(re.sub(rb"\r\n|\r|\n", lambda _: next(endings), content))
            with monkeypatch.context() as patched:
                patched.setattr(dataio, "_bulk_columns", _no_bulk_pass)
                expected = _ingest_outcome(path)
            assert _outcomes_at_each_split(path) == [expected] * 3, content[:80]

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "mixed"], ids=["lf", "crlf", "cr", "mixed"])
    def test_blank_line_files_read_alike(self, tmp_path, monkeypatch, ending):
        # An empty line in any range sends the file to the row reader, once at each split.
        path = tmp_path / "p.csv"
        for lines, class_count in BLANK_LINE_FILES:
            _write_lines(path, lines, ending)
            with monkeypatch.context() as patched:
                patched.setattr(dataio, "_bulk_columns", _no_bulk_pass)
                expected = _ingest_outcome(path, class_count)
            with monkeypatch.context() as patched:
                read = _count_row_reads(patched)
                outcomes = _outcomes_at_each_split(path, class_count)
            assert outcomes == [expected] * 3
            assert read == [path] * 3
            assert isinstance(expected, str)  # each file breaks a rule
            assert splits(path.read_bytes(), 2, "csv") == (ending != "\r")

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_range_of_blank_lines_goes_to_the_row_reader(self, tmp_path, monkeypatch, ending):
        path = tmp_path / "p.csv"
        data = (_CSV_HEADER + "0,1,0.5\n" * 2 + "\n" * 60).replace("\n", ending).encode()
        path.write_bytes(data)
        read = _count_row_reads(monkeypatch)
        outcomes = _outcomes_at_each_split(path)
        assert outcomes == [(([0, 0], [1, 1], [0.5, 0.5], None), 2)] * 3
        assert read == [path] * 3
        with open(path, "rb") as raw:
            (cut,) = _ranges._line_cuts(_pread(raw), (0, len(data)), 2)
            assert list(dataio._read_csv_range((0, 1, 2), _pread(raw), cut, len(data))) == [None]


_FILLER = "0,1,0.5\n2,2,0.25\n" * 4
_LONG_ROW = "0,0,0." + "0" * 140_000 + "5"  # a valid row longer than the default csv field limit
# file name -> contents that break one rule of the NumPy pass; valid rows around the break
# keep the first range of a split more than the header
BULK_RULE_BREAKS = {
    "quote.csv": _CSV_HEADER + _FILLER + '"1",1,0.5\n' + _FILLER,
    "separator_byte.csv": _CSV_HEADER + _FILLER + "1\x1c,0,0.5\n" + _FILLER,
    "non_ascii.csv": _CSV_HEADER + _FILLER + "\u01fe1,0,0.5\n" + _FILLER,
    "lone_cr.csv": _CSV_HEADER + _FILLER + "0,0,0.5\r" + _FILLER,
    "lone_cr_last.csv": _CSV_HEADER + _FILLER + "0,0,0.5\r",  # the last byte of the last piece
    "empty_first_lf.csv": _CSV_HEADER + "\n" + _FILLER,
    "empty_mid_lf.csv": _CSV_HEADER + _FILLER + "\n" + _FILLER,
    "empty_last_lf.csv": _CSV_HEADER + _FILLER + "\n",
    "empty_first_crlf.csv": (_CSV_HEADER + "\n" + _FILLER).replace("\n", "\r\n"),
    "empty_mid_crlf.csv": (_CSV_HEADER + _FILLER + "\n" + _FILLER).replace("\n", "\r\n"),
    "empty_last_crlf.csv": (_CSV_HEADER + _FILLER + "\n").replace("\n", "\r\n"),
    "over_limit.csv": _CSV_HEADER + _FILLER + _LONG_ROW + "\n" + _FILLER,
    "over_limit_last.csv": _CSV_HEADER + _FILLER + _LONG_ROW,  # with no line end
}


class TestBulkCheck:
    """The NumPy pass takes a CSV file only when each line after the header
    holds one record; any other file is read by the row reader, once, to
    the outcome it reads with the NumPy pass off."""

    @pytest.mark.parametrize("block", [64, 1 << 22])
    @pytest.mark.parametrize("name", list(BULK_RULE_BREAKS))
    def test_a_broken_rule_sends_the_file_to_the_row_reader(self, tmp_path, monkeypatch, name, block):
        content = BULK_RULE_BREAKS[name]
        path = tmp_path / name
        path.write_bytes(content.encode())
        assert dataio._bulk_readable(content.encode()) is None
        with monkeypatch.context() as patched:
            patched.setattr(dataio, "_bulk_columns", _no_bulk_pass)
            expected = _ingest_outcome(path)
        _small_blocks(monkeypatch, block)
        read = _count_row_reads(monkeypatch)
        assert _outcomes_at_each_split(path) == [expected] * 3
        assert read == [path] * 3

    def test_a_piece_over_the_field_limit_is_not_read(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        path.write_text(BULK_RULE_BREAKS["over_limit.csv"])
        expected = _ingest_outcome(path)
        pread, asked = os.pread, []

        def recorded_pread(fd, length, offset):
            asked.append(length)
            return pread(fd, length, offset)

        _small_blocks(monkeypatch, 64)
        monkeypatch.setattr(os, "pread", recorded_pread)
        read = _count_row_reads(monkeypatch)
        assert _ingest_outcome(path) == expected
        assert read == [path]
        assert max(asked) < len(_LONG_ROW)  # the header's read, at most the field limit and a byte

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_small_pieces_read_alike_without_the_row_reader(self, tmp_path, monkeypatch, ending):
        source = generate(ArchetypeSpec.for_kind("calibrated", n=300, seed=4))
        path = tmp_path / "cal.csv"
        write_predictions_csv(source, path)
        path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
        with monkeypatch.context() as patched:
            patched.setattr(dataio, "_bulk_columns", _no_bulk_pass)
            expected = _ingest_outcome(path)
        _small_blocks(monkeypatch, 64)
        monkeypatch.setattr(dataio, "_read_csv", _no_row_reader)
        assert _outcomes_at_each_split(path) == [expected] * 3
        assert expected[0][0] == source.y_true.tolist()

    def test_a_table_short_of_the_counted_lines_goes_to_the_row_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        path.write_text(_CSV_ROWS)
        expected = _ingest_outcome(path)
        parsed = dataio._parsed

        def one_row_short(*args):
            table = parsed(*args)
            return None if table is None else table[:-1]

        monkeypatch.setattr(dataio, "_parsed", one_row_short)
        read = _count_row_reads(monkeypatch)
        assert _outcomes_at_each_split(path) == [expected] * 3
        assert read == [path] * 3


_FAULT_IN_LAST_RANGE = _VALID * 20 + '{"y_true": 0, "probs": [0.5, 0.5]}\n\n' * 10 + "not json\n"


class TestSplitReaders:
    """Forked readers are reaped, a dead one's range is read again, and no
    reader is forked where ``os.fork`` is unsafe or missing."""

    @pytest.mark.parametrize("text", [_VALID * 30, _FAULT_IN_LAST_RANGE], ids=["clean", "fault_in_last_range"])
    def test_every_reader_is_reaped(self, tmp_path, text):
        path = tmp_path / "p.jsonl"
        path.write_text(text)
        with forced_split(3) as forks:
            _ingest_outcome(path)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("death", ["before_reading", "mid_payload"])
    @pytest.mark.parametrize("text", [
        (_VALID + '{"y_true": 1, "probs": [0.5, 0.5]}\n\n') * 20,
        _FAULT_IN_LAST_RANGE,
    ], ids=["clean", "fault_in_last_range"])
    def test_a_dead_reader_s_range_is_read_again(self, tmp_path, monkeypatch, text, death):
        path = tmp_path / "p.jsonl"
        path.write_text(text)
        expected = _ingest_outcome(path)  # one reader
        parent = os.getpid()
        if death == "before_reading":
            read = dataio._read_jsonl_range

            def dying_read(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return read(*args)

            monkeypatch.setattr(dataio, "_read_jsonl_range", dying_read)
        else:  # the child sends half its result, then exits as if all went well
            dump = pickle.dump

            def short_dump(obj, file, protocol):
                if os.getpid() != parent:
                    payload = pickle.dumps(obj, protocol)
                    file.write(payload[: len(payload) // 2])
                    file.flush()
                    os._exit(0)
                return dump(obj, file, protocol)

            monkeypatch.setattr(pickle, "dump", short_dump)
        with forced_split(3) as forks:
            assert _ingest_outcome(path) == expected
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_readers_are_killed_when_the_parent_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "p.jsonl"
        path.write_text("not json\n" + _VALID * 30)  # a fault in the parent's own range
        parent = os.getpid()
        read = dataio._read_jsonl_range

        def slow_read(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return read(*args)

        statuses = []
        waitpid = os.waitpid

        def recorded_waitpid(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(dataio, "_read_jsonl_range", slow_read)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        start = time.monotonic()
        with forced_split(3) as forks:
            with pytest.raises(IngestError, match=r"p\.jsonl:1: invalid JSON"):
                ingest(path)
        assert time.monotonic() - start < 30
        assert len(forks) == len(statuses) == 2
        assert all(os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL for status in statuses)

    def test_no_fork_beside_another_thread(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(_VALID * 30)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with forced_split(2) as forks:
                outcome = _ingest_outcome(path)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        with forced_split(2) as forks:
            assert _ingest_outcome(path) == outcome
        assert forks  # the same read forks once the thread is gone

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_split_as_its_file_would_be(self):
        data = (_VALID * 30).encode()
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            with forced_split(2) as forks:
                ds = ingest(f"/dev/fd/{read_end}", "jsonl")
        finally:
            os.close(read_end)
        assert len(ds) == 30 and bool(forks) == splits(data, 2)

    def test_no_fork_off_linux(self, tmp_path, monkeypatch):
        path = tmp_path / "p.jsonl"
        path.write_text(_VALID * 30)
        monkeypatch.setattr(sys, "platform", "darwin")
        with forced_split(2) as forks:
            outcome = _ingest_outcome(path)
        assert forks == []
        monkeypatch.undo()
        with forced_split(2) as forks:
            assert _ingest_outcome(path) == outcome
        assert forks


_CSV_ROWS = _CSV_HEADER + "0,1,0.5\n2,2,0.25\n" * 20  # no empty line, so NumPy reads it


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("name, text", [("p.jsonl", _VALID * 30), ("p.csv", _CSV_ROWS)], ids=["jsonl", "csv"])
def test_no_forked_reader_reads_a_byte_before_its_range(tmp_path, monkeypatch, name, text, workers):
    path = tmp_path / name
    path.write_text(text)
    expected = _ingest_outcome(path)
    log = tmp_path / "reads"  # "pid offset" of each os.pread in a child
    parent, pread = os.getpid(), os.pread

    def logged_pread(fd, length, offset):
        if os.getpid() != parent:
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {offset}\n")
        return pread(fd, length, offset)

    monkeypatch.setattr(os, "pread", logged_pread)
    monkeypatch.setattr(dataio, "_read_csv", _no_row_reader)  # a CSV range is read by the NumPy pass
    with forced_split(workers) as forks:
        assert _ingest_outcome(path) == expected
    lowest = {}
    for entry in log.read_text().splitlines():
        pid, offset = map(int, entry.split())
        lowest[pid] = min(offset, lowest.get(pid, offset))
    with open(path, "rb") as raw:
        starts = _ranges._line_cuts(_pread(raw), (0, len(text)), workers)  # of the ranges after the first
    assert len(forks) == len(starts) == workers - 1
    assert sorted(lowest) == sorted(forks)  # each child read its range
    for pid, start in zip(forks, starts):
        assert lowest[pid] >= start


class TestSplitCsvReaders:
    """A dead CSV reader's range is read again, a range that NumPy cannot
    parse stops every reader, and a pipe is read once, by the row reader."""

    @pytest.mark.parametrize("death", ["before_reading", "mid_payload"])
    @pytest.mark.parametrize("text", [_CSV_ROWS, _CSV_ROWS + "0,0,1.5\n"], ids=["clean", "fault_in_last_range"])
    def test_a_dead_reader_s_range_is_read_again(self, tmp_path, monkeypatch, text, death):
        path = tmp_path / "p.csv"
        path.write_text(text)
        expected = _ingest_outcome(path)  # one reader
        parent = os.getpid()
        if death == "before_reading":
            scan = dataio._bulk_readable

            def dying_scan(piece):
                if os.getpid() != parent:
                    os._exit(3)
                return scan(piece)

            monkeypatch.setattr(dataio, "_bulk_readable", dying_scan)
        else:  # the child sends half its result, then exits as if all went well
            dump = pickle.dump

            def short_dump(obj, file, protocol):
                if os.getpid() != parent:
                    payload = pickle.dumps(obj, protocol)
                    file.write(payload[: len(payload) // 2])
                    file.flush()
                    os._exit(0)
                return dump(obj, file, protocol)

            monkeypatch.setattr(pickle, "dump", short_dump)
        monkeypatch.setattr(dataio, "_read_csv", _no_row_reader)  # the parent reads the range with NumPy
        with forced_split(3) as forks:
            assert _ingest_outcome(path) == expected
        assert len(forks) == 2

    def test_readers_are_killed_when_the_first_range_needs_the_row_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        path.write_text(_CSV_HEADER + '"0",1,0.5\n' + _CSV_ROWS[len(_CSV_HEADER):])  # a quote in the parent's range
        expected = _ingest_outcome(path)
        parent = os.getpid()
        scan = dataio._bulk_readable

        def slow_scan(piece):
            if os.getpid() != parent:
                time.sleep(60)
            return scan(piece)

        statuses = []
        waitpid = os.waitpid

        def recorded_waitpid(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(dataio, "_bulk_readable", slow_scan)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        start = time.monotonic()
        with forced_split(3) as forks:
            assert _ingest_outcome(path) == expected
        assert time.monotonic() - start < 30
        assert len(forks) == len(statuses) == 2
        assert all(os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL for status in statuses)

    def test_without_a_scratch_file_the_row_reader_reads_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        path.write_text(_CSV_ROWS)
        expected = _ingest_outcome(path)

        def no_scratch_file(*args, **kwargs):
            raise OSError(errno.ENOSPC, "TemporaryFile")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_scratch_file)
        read = _count_row_reads(monkeypatch)
        with forced_split(2) as forks:
            assert _ingest_outcome(path) == expected
        assert forks and read == [path]

    @pytest.mark.parametrize("text", [
        _CSV_ROWS,
        # later pieces follow the fault, whose line is found from the joined tables
        _CSV_HEADER + "0,1,0.5\n2,2,0.25\n0,0,1.5\n" + _CSV_ROWS[len(_CSV_HEADER):],
    ], ids=["clean", "fault_in_first_piece"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_scratch_file_holds_one_piece_at_a_time(self, tmp_path, monkeypatch, text, workers):
        path = tmp_path / "p.csv"
        path.write_text(text)
        expected = _ingest_outcome(path)
        ((_, row_lines, _),) = _opened(dataio._read_csv, path)
        parsed, sizes = dataio._parsed, []

        def measured(name, *args):
            assert not os.path.samefile(name, path)  # a copy of the piece, not the input
            sizes.append(os.stat(name).st_size)  # in this process
            return parsed(name, *args)

        _small_blocks(monkeypatch, 64)
        monkeypatch.setattr(dataio, "_parsed", measured)
        monkeypatch.setattr(dataio, "_read_csv", _no_row_reader)
        with forced_split(workers) as forks:
            assert _ingest_outcome(path) == expected
            bulk = _opened(_bulk_pass, path)
            assert bulk
            _, lines = bulk
        assert lines == row_lines == Counter({0: 1})  # the header's line alone starts no record
        assert bool(forks) == (workers > 1) and len(sizes) > 1
        assert max(sizes) <= 64 + len("2,2,0.25\n")  # a piece ends at the first LF past 64 bytes

    @pytest.mark.parametrize("limit", [sys.maxsize, 1 << 31])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raised_field_limit_reads_alike(self, tmp_path, monkeypatch, limit, workers):
        path = tmp_path / "p.csv"
        path.write_text(_CSV_ROWS)
        expected = _ingest_outcome(path)
        pread, asked = os.pread, []

        def recorded_pread(fd, length, offset):
            asked.append(length)
            return pread(fd, length, offset)

        monkeypatch.setattr(os, "pread", recorded_pread)
        monkeypatch.setattr(dataio, "_read_csv", _no_row_reader)
        before = csv.field_size_limit(limit)
        try:
            with forced_split(workers):
                outcome = _ingest_outcome(path)
        finally:
            csv.field_size_limit(before)
        assert outcome == expected
        assert asked and max(asked) <= 1 << 22  # no read sized by the limit

    def test_a_header_longer_than_the_first_read_goes_to_the_row_reader(self, tmp_path):
        # NumPy would take the columns it sees in the header's first 4 MiB and drop the credit
        path = tmp_path / "p.csv"
        path.write_text("y_true,y_pred,confidence," + "x" * (1 << 22) + ",credit\n0,0,0.5,,0.25\n")
        before = csv.field_size_limit(sys.maxsize)
        try:
            ds = ingest(path)
        finally:
            csv.field_size_limit(before)
        assert ds.credit.tolist() == [0.25]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("text, error", [
        (_CSV_ROWS, None),
        (_CSV_ROWS + "\n0,0,1.5\n", r":43: confidence 1\.5 outside \[0, 1\]$"),
        (_CSV_ROWS.replace("\n", "\r"), None),
    ], ids=["lf", "fault", "cr"])
    def test_a_pipe_is_read_as_its_file_is(self, tmp_path, text, error):
        path = tmp_path / "p.csv"
        path.write_text(text, newline="")
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode())
            os.close(write_end)
            with forced_split(2) as forks:
                try:
                    outcome = _outcome_of(ingest(f"/dev/fd/{read_end}", "csv"))
                except IngestError as exc:
                    outcome = str(exc)
        finally:
            os.close(read_end)
        assert bool(forks) == splits(text.encode(), 2, "csv")
        if error is None:
            assert outcome == _outcome(path)
        else:
            assert re.fullmatch(rf"/dev/fd/{read_end}{error}", outcome), outcome
            assert re.fullmatch(rf"{re.escape(str(path))}{error}", _outcome(path))


class TestStatedFieldsBesideProbs:
    """Records that give y_pred or confidence beside probs are checked as
    columns, and read as the cell-by-cell rules read them."""

    def test_valid_file_needs_no_cell_path(self, tmp_path, monkeypatch):
        path = tmp_path / "p.jsonl"
        path.write_text(_jsonl_text(_STATED))
        monkeypatch.setattr(dataio, "_jsonl_record", _no_row_reader)
        ds = ingest(path)
        assert ds.y_pred.tolist() == [1, 1, 0, 0, 1]  # a given y_pred is kept
        assert ds.confidence.tolist() == [0.75, 0.5, 0.5 + 9e-7, 1.0, 0.6 - 5e-7]  # and a given confidence

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("odd", [
        None,
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": 0.7},  # disagrees
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": 0.75 + 2e-6},  # just past the tolerance
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": "0.75"},
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": float("nan")},
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": float("inf")},
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": None},
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": True},
        {"y_true": 0, "probs": [0.25, 0.75], "confidence": 10**400},
        {"y_true": 0, "probs": [1.0], "confidence": 1, "y_pred": 2**63},
        {"y_true": 0, "probs": [0.25, 0.75], "y_pred": "1"},
        {"y_true": 0, "probs": [0.25, 0.75], "y_pred": 1.0},
        {"y_true": 0, "probs": [0.25, 0.75], "y_pred": -1},
        {"y_true": 0, "probs": [0.25, 0.75], "y_pred": None},
        {"y_true": 0, "probs": [0.5, 0.6], "confidence": 0.6},  # the sum fails first
        {"y_true": 0, "y_pred": 0},  # no probs, so the fields are needed
        {"y_true": 0, "confidence": 0.5},
    ], ids=lambda odd: "valid" if odd is None else json.dumps(odd)[:60])
    def test_columns_match_the_cell_path(self, tmp_path, monkeypatch, chunk, odd):
        monkeypatch.setattr(dataio, "_CHUNK", chunk)
        records = _STATED * 4 + [{"y_true": 1, "probs": [0.5, 0.5]}, {"y_true": 0, "y_pred": 0, "confidence": 0.5}] * 4
        if odd is not None:
            records.insert(13, odd)
        path = tmp_path / "p.jsonl"
        path.write_text(_jsonl_text(records))
        shipped = _ingest_outcome(path)
        monkeypatch.setattr(dataio, "_plain_arrays", lambda cells, rows, vectors: None)
        assert _ingest_outcome(path) == shipped
        if isinstance(shipped, str):
            assert re.match(r"\S*p\.jsonl:14: ", shipped), shipped


class TestFormatInference:
    def test_unknown_suffix_requires_explicit_format(self, tmp_path):
        path = tmp_path / "p.dat"
        path.write_text("y_true,y_pred,confidence\n0,0,0.5\n")
        with pytest.raises(IngestError, match="cannot infer"):
            ingest(path)
        assert len(ingest(path, fmt="csv")) == 1


class TestRoundTrip:
    def test_emit_then_ingest_is_metric_exact(self, tmp_path):
        for kind, seed in (("calibrated", 11), ("random", 12), ("overconfident", 13)):
            ds = generate(ArchetypeSpec.for_kind(kind, seed=seed))
            path = tmp_path / f"{kind}.csv"
            write_predictions_csv(ds, path)
            back = ingest(path)
            assert np.array_equal(back.confidence, ds.confidence)
            assert np.array_equal(back.y_true, ds.y_true)
            assert np.array_equal(back.y_pred, ds.y_pred)
            for tau in (0.5, 0.73, 0.9):
                a = point_metrics(ds, tau)
                b = point_metrics(back, tau)
                assert (a.cwsa, a.cwsa_plus, a.coverage) == (b.cwsa, b.cwsa_plus, b.coverage)
            assert aurc(ds) == aurc(back)
            assert brier(ds) == brier(back)

    def test_credit_file_text_is_pinned(self, tmp_path):
        ds = EvaluationSet([0, 1, 2], [0, 2, 2], [0.9, 1 / 3, 0.1], [0.25, np.nan, 1.0])
        path = tmp_path / "p.csv"
        write_predictions_csv(ds, path)
        assert path.read_text() == (
            "y_true,y_pred,confidence,credit\n"
            "0,0,0.9,0.25\n"
            "1,2,0.3333333333333333,\n"
            "2,2,0.1,1.0\n"
        )


class TestReportSerialization:
    def test_deterministic_bytes(self, tmp_path):
        ds = generate(ArchetypeSpec.for_kind("calibrated", seed=21))
        doc = sweep_report_doc(ds, ThresholdGrid(), BinningSpec(), "sha256:x")
        assert dumps_report(doc) == dumps_report(
            sweep_report_doc(ds, ThresholdGrid(), BinningSpec(), "sha256:x")
        )

    def test_round_trips_through_json(self):
        ds = generate(ArchetypeSpec.for_kind("random", seed=22))
        report = sweep(ds)
        doc = sweep_report_doc(ds, ThresholdGrid(), BinningSpec(), "sha256:x")
        parsed = json.loads(dumps_report(doc))
        assert parsed["curves"]["cwsa"]["value"] == [p.cwsa for p in report.points]
        assert parsed["scalars"]["aurc"] == report.scalars["aurc"]
        lengths = {
            len(parsed["curves"][name][key])
            for name in parsed["curves"]
            for key in ("tau", "coverage", "value")
        }
        assert lengths == {50}

    def test_null_encodes_undefined_selective_accuracy(self, tmp_path):
        path = tmp_path / "low.csv"
        path.write_text("y_true,y_pred,confidence\n0,0,0.2\n")
        doc = point_report_doc(ingest(path), 0.9, BinningSpec(), "sha256:x")
        text = dumps_report(doc)
        assert '"selective_accuracy": null' in text
        assert json.loads(text)["selective_accuracy"] is None

    def test_booleans_and_empty_objects(self):
        doc = {"flags": {"on": True, "off": False}, "empty": {}, "list": [True, {}, None]}
        text = dumps_report(doc)
        assert text == ('{\n  "flags": {\n    "on": true,\n    "off": false\n  },\n'
                        '  "empty": {},\n  "list": [true, {}, null]\n}\n')
        assert json.loads(text) == doc

    @pytest.mark.parametrize("value", [{1, 2}, b"bytes", object()], ids=["set", "bytes", "object"])
    def test_an_unsupported_value_raises_type_error(self, value):
        with pytest.raises(TypeError, match=rf"^cannot serialize {type(value).__name__}$"):
            dumps_report({"scalars": {"x": value}})


def run_cli(argv):
    return main(argv)


class TestCliEvaluate:
    def test_perfect_point_report(self, tmp_path):
        pred = tmp_path / "p.csv"
        out = tmp_path / "r.json"
        assert run_cli(["synth", "--kind", "perfect", "--n", "10", "--seed", "7",
                        "--output", str(pred)]) == 0
        assert run_cli(["evaluate", "--input", str(pred), "--tau", "0.9",
                        "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["cwsa"] == 1.0 and doc["cwsa_plus"] == 1.0
        assert doc["coverage"] == 1.0 and doc["selective_accuracy"] == 1.0
        assert doc["baselines"]["aurc"] == 0.0

    def test_degenerate_abstention_report(self, tmp_path):
        pred = tmp_path / "low.csv"
        pred.write_text("y_true,y_pred,confidence\n0,0,0.4\n1,2,0.3\n")
        out = tmp_path / "r.json"
        assert run_cli(["evaluate", "--input", str(pred), "--tau", "0.99",
                        "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["cwsa"] == 0.0 and doc["cwsa_plus"] == 0.0
        assert doc["selective_accuracy"] is None

    def test_sweep_report_with_custom_grid(self, tmp_path):
        pred = tmp_path / "p.csv"
        run_cli(["synth", "--kind", "calibrated", "--seed", "3", "--output", str(pred)])
        out = tmp_path / "r.json"
        assert run_cli(["evaluate", "--input", str(pred), "--grid", "0.5:0.9:0.1",
                        "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report_type"] == "sweep"
        assert doc["grid"] == {"start": 0.5, "end": 0.9, "step": 0.1}
        assert len(doc["curves"]["cwsa"]["tau"]) == 5

    def test_exit_codes(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["evaluate", "--input", "x.csv", "--no-such-flag"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli(["evaluate", "--input", "x.csv"])  # missing --output
        assert exc.value.code == 2
        assert run_cli(["evaluate", "--input", str(tmp_path / "absent.csv"),
                        "--output", str(tmp_path / "r.json")]) == 1
        bad = tmp_path / "bad.csv"
        bad.write_text("y_true,y_pred,confidence\n0,0,1.5\n")
        assert run_cli(["evaluate", "--input", str(bad),
                        "--output", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "bad.csv:2" in err

    def test_bad_tau_is_exit_1_before_reading(self, tmp_path, monkeypatch, capsys):
        def no_ingest(*args):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "_ingest", no_ingest)
        assert run_cli(["evaluate", "--input", str(tmp_path / "absent.csv"), "--tau", "1.5",
                        "--output", str(tmp_path / "r.json")]) == 1
        assert "threshold must lie in [0, 1), got 1.5" in capsys.readouterr().err

    def test_infinite_grid_step_is_exit_1_before_reading(self, tmp_path, monkeypatch, capsys):
        def no_ingest(*args):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "_ingest", no_ingest)
        assert run_cli(["evaluate", "--input", str(tmp_path / "absent.csv"),
                        "--grid", "0.5:0.9:inf", "--output", str(tmp_path / "r.json")]) == 1
        assert "step must be finite and positive, got inf" in capsys.readouterr().err

    def test_grid_rounding_to_one_is_exit_1_before_reading(self, tmp_path, monkeypatch, capsys):
        def no_ingest(*args):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "_ingest", no_ingest)
        assert run_cli(["evaluate", "--input", str(tmp_path / "absent.csv"),
                        "--grid", "0.99999999999:0.99999999999:0.01",
                        "--output", str(tmp_path / "r.json")]) == 1
        assert "rounds to 1.0, which is not below 1" in capsys.readouterr().err

    @pytest.mark.parametrize("class_count", [0, -3])
    def test_class_count_below_one_is_exit_1_before_reading(self, tmp_path, capsys, class_count):
        message = f"class_count must be positive, got {class_count}"
        with pytest.raises(ValueError, match=rf"^{message}$"):
            ingest(tmp_path / "absent.csv", class_count=class_count)
        pred = tmp_path / "cc.csv"
        pred.write_text("y_true,y_pred,confidence\n0,0,0.9\n")
        assert run_cli(["evaluate", "--input", str(pred), "--class-count", str(class_count),
                        "--output", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_oversized_grid_and_bins_are_exit_1(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        pred.write_text("y_true,y_pred,confidence\n0,0,0.9\n")
        out = str(tmp_path / "r.json")
        assert run_cli(["evaluate", "--input", str(pred), "--grid", "0.5:0.9:1e-12",
                        "--output", out]) == 1
        assert "thresholds" in capsys.readouterr().err
        assert run_cli(["evaluate", "--input", str(pred), "--bins", "1000000000",
                        "--output", out]) == 1
        assert "bin_count" in capsys.readouterr().err


class TestCliStdin:
    def test_evaluate_reads_a_csv_from_stdin(self, tmp_path):
        pred = tmp_path / "p.csv"
        run_cli(["synth", "--kind", "calibrated", "--n", "500", "--seed", "3", "--output", str(pred)])
        self._reads_as_the_file(tmp_path, pred, "csv")

    def test_evaluate_reads_a_jsonl_from_stdin(self, tmp_path):
        source = generate(ArchetypeSpec.for_kind("calibrated", n=500, seed=3))
        pred = tmp_path / "p.jsonl"
        pred.write_text(_jsonl_text(
            {"y_true": t, "y_pred": p, "confidence": c}
            for t, p, c in zip(source.y_true.tolist(), source.y_pred.tolist(), source.confidence.tolist())
        ))
        self._reads_as_the_file(tmp_path, pred, "jsonl")

    @staticmethod
    def _reads_as_the_file(tmp_path, pred, fmt):
        assert run_cli(["evaluate", "--input", str(pred), "--tau", "0.7",
                        "--output", str(tmp_path / "file.json")]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        piped = subprocess.run(
            [sys.executable, "-m", "cwsa_eval.cli", "evaluate", "--input", "/dev/stdin", "--format", fmt,
             "--tau", "0.7", "--output", str(tmp_path / "pipe.json")],
            input=pred.read_bytes(), env=env, capture_output=True, timeout=120,
        )
        assert piped.returncode == 0, piped.stderr.decode()
        docs = [json.loads((tmp_path / name).read_text()) for name in ("file.json", "pipe.json")]
        for doc in docs:  # named after the input
            del doc["source_id"]
        assert docs[0] == docs[1]
        assert docs[1]["input_digest"] == "sha256:" + hashlib.sha256(pred.read_bytes()).hexdigest()


def _feed(write_end, data, repeat=1, head=b""):
    """Write ``head``, then ``data`` ``repeat`` times, into the pipe
    ``write_end``, or until its reader closes it, and close it; returns the
    thread that writes."""

    def feed():
        try:
            for chunk in itertools.chain([head], itertools.repeat(data, repeat)):
                view = memoryview(chunk)
                while view:
                    view = view[os.write(write_end, view):]
        except BrokenPipeError:  # EPIPE: the reader closed the pipe
            pass
        finally:
            os.close(write_end)

    thread = threading.Thread(target=feed)
    thread.start()
    return thread


def _piped_outcome(data, fmt):
    """:func:`_outcome` of ``data`` written into a pipe, with the pipe's name
    in an error's text replaced by ``<input>``."""
    read_end, write_end = os.pipe()
    thread = _feed(write_end, data)
    try:
        outcome = _outcome(f"/dev/fd/{read_end}", fmt)
    finally:
        os.close(read_end)
        thread.join(timeout=30)
    assert not thread.is_alive()
    return outcome.replace(f"/dev/fd/{read_end}", "<input>") if isinstance(outcome, str) else outcome


# file name -> contents whose first lines a pipe's check reads, most of them bad
_PIPE_HEAD_FILES = {
    "empty.csv": b"",
    "no_header.csv": b"0,0,0.5\n0,1,0.5\n",
    "bom_short_header.csv": b"\xef\xbb\xbfy_true,y_pred\n0,0\n",
    "not_utf8_header.csv": b"y_true,y_pred,confidence\xff\n0,0,0.5\n",
    "cr_header.csv": b"y_true,y_pred\rconfidence\n0,0,0.5\n",
    "nul_header.csv": b"y_true,y_pred,confidence\x00\n0,0,0.5\n",
    # a quote inside a cell is text, so the quoted cell after it goes on past the even count's LF
    "text_quote_header.csv": b'x"y,"y_true\n",y_pred,confidence\n0,1,0.5\n',
    "not_json.jsonl": b"y\n" * 50,
    "blank_then_bad.jsonl": b"\n  \n\r\n\t\n[1]\n",
    "cr_lines.jsonl": b'{"y_true":0,"y_pred":0,"confidence":1.5}\r{"y_true":0}\n',
    "blank_then_late_fault.jsonl": b"\n \n" + _VALID.encode() * 3 + b"[1]\n",
}
# file name -> contents, each read from a pipe as from its file
_PIPED_FILES = {
    **{name: content for name, (content, _) in {**MALFORMED_FILES, **ACCEPTED_FILES}.items()},
    **ACCEPTED_JSONL_FILES,
    **_PIPE_HEAD_FILES,
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipeHead:
    """A pipe is copied into its spool only as far as the readers read it,
    one region at a time, so that an endless producer of bad lines fails at
    its first fault, and a pipe fails as its file fails, with the same text."""

    @pytest.mark.parametrize("fmt, head, line, error", [
        ("csv", b"", b"y\n", r"<input>: missing required column 'y_true'"),
        ("jsonl", b"", b"y\n", r"<input>:1: invalid JSON \(Expecting value\)"),
        ("csv", b"x" * 200_000 + b"\n", b"0,0,0.5\n",
         r"<input>:1: malformed CSV \(field larger than field limit \(131072\)\)"),
        # one quote a line, so the first row, the header, ends at the second line's LF
        ("csv", b"", b'"y\n', r"<input>: missing required column 'y_true'"),
        ("jsonl", b"", b'{"y_true": -1, "y_pred": 0, "confidence": 0.5}\n',
         r"<input>:1: y_true -1 outside \[0, class_count\)"),
        # a valid head, then a bad body
        ("csv", _CSV_HEADER.encode(), b"y\n", r"<input>:2: expected 3 columns, got 1"),
        ("csv", _CSV_HEADER.encode(), b"0,0,1.5\n", r"<input>:2: confidence 1\.5 outside \[0, 1\]"),
        ("csv", b'"y_true",y_pred,confidence\n', b"y\n", r"<input>:2: expected 3 columns, got 1"),
        ("jsonl", _VALID.encode(), b"y\n", r"<input>:2: invalid JSON \(Expecting value\)"),
        ("jsonl", _VALID.encode(), b'{"y_true": 0, "y_pred": 0, "confidence": 1.5}\n',
         r"<input>:2: confidence 1\.5 outside \[0, 1\]"),
        # a head the row reader reads, with a broken rule on line 2, then valid rows
        ("csv", b'"y_true",y_pred,confidence\n0,0,1.5\n', b"0,0,0.5\n", r"<input>:2: confidence 1\.5 outside \[0, 1\]"),
        ("csv", b"y_true,y_pred,confidence,credit\n0,0,0.5,2\n", b"0,0,0.5,1\n", r"<input>:2: credit 2\.0 outside \[0, 1\]"),
        ("csv", b"\xef\xbb\xbf" + _CSV_HEADER.encode() + b"-1,0,0.5\n", b"0,0,0.5\n",
         r"<input>:2: y_true -1 outside \[0, class_count\)"),
    ], ids=["csv_header", "jsonl_not_json", "csv_over_limit", "csv_quoted_header", "jsonl_broken_rule",
            "csv_body", "csv_body_broken_rule", "csv_quoted_header_body", "jsonl_body", "jsonl_body_broken_rule",
            "csv_quoted_header_broken_rule", "csv_credit_broken_rule", "csv_bom_broken_rule"])
    def test_an_endless_bad_producer_ends_in_its_fault(self, tmp_path, monkeypatch, capsys, fmt, head, line, error):
        spools = tmp_path / "spools"
        spools.mkdir()
        monkeypatch.setattr(tempfile, "TemporaryFile",
                            lambda: tempfile.NamedTemporaryFile(dir=spools, delete=False))
        read_end, write_end = os.pipe()
        # as `yes` writes, until EPIPE, after ``head``; the bound only keeps a failing run from filling the disk
        thread = _feed(write_end, line * (8192 // len(line)), repeat=64 * _ranges._FIRST_REGION // 8192, head=head)
        try:
            status = run_cli(["evaluate", "--input", f"/dev/fd/{read_end}", "--format", fmt,
                              "--tau", "0.7", "--output", str(tmp_path / "r.json")])
        finally:
            os.close(read_end)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert status == 1
        assert re.search(error, capsys.readouterr().err.replace(f"/dev/fd/{read_end}", "<input>"))
        sizes = [spool.stat().st_size for spool in spools.iterdir()]
        assert sizes and max(sizes) <= _ranges._FIRST_REGION
        if fmt == "csv" and not (head + line).startswith(_CSV_HEADER.encode()):  # the row reader reads it from the start
            assert max(sizes) < _ranges._FIRST_REGION

    @pytest.mark.parametrize("fmt, row, bad, error", [
        ("csv", b"0,1,0.5\n", b"y\n", "expected 3 columns, got 1"),
        ("csv", b"0,1,0.5\n", b"0,0,1.5\n", r"confidence 1\.5 outside \[0, 1\]"),
        ("jsonl", _VALID.encode(), b"y\n", r"invalid JSON \(Expecting value\)"),
        ("jsonl", _VALID.encode(), b'{"y_true": 0, "y_pred": 0, "confidence": 1.5}\n',
         r"confidence 1\.5 outside \[0, 1\]"),
    ], ids=["csv", "csv_broken_rule", "jsonl", "jsonl_broken_rule"])
    def test_a_fault_after_the_first_region_spools_one_more_region(self, tmp_path, monkeypatch, capsys,
                                                                    fmt, row, bad, error):
        monkeypatch.setattr(_ranges, "_SPLIT_BYTES", 1 << 16)
        monkeypatch.setattr(_ranges, "_usable_cpus", lambda: 2)
        region = 3 << 16  # a later region: _SPLIT_BYTES for each of the 2 CPUs and one more
        spools = tmp_path / "spools"
        spools.mkdir()
        monkeypatch.setattr(tempfile, "TemporaryFile",
                            lambda: tempfile.NamedTemporaryFile(dir=spools, delete=False))
        header = _CSV_HEADER.encode() if fmt == "csv" else b""
        head = header + row * ((_ranges._FIRST_REGION + 5 * region // 2) // len(row))  # a fault mid-region
        line = head.count(b"\n") + 1
        read_end, write_end = os.pipe()
        thread = _feed(write_end, bad * (8192 // len(bad)), repeat=64 * _ranges._FIRST_REGION // 8192, head=head)
        try:
            status = run_cli(["evaluate", "--input", f"/dev/fd/{read_end}", "--format", fmt,
                              "--tau", "0.7", "--output", str(tmp_path / "r.json")])
        finally:
            os.close(read_end)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert status == 1
        assert re.search(f"<input>:{line}: {error}", capsys.readouterr().err.replace(f"/dev/fd/{read_end}", "<input>"))
        sizes = [spool.stat().st_size for spool in spools.iterdir()]
        assert sizes and max(sizes) <= len(head) + region

    @pytest.mark.parametrize("name, text", [("p.jsonl", _VALID * 1000), ("p.csv", _CSV_HEADER + "0,1,0.5\n" * 6000)],
                             ids=["jsonl", "csv"])
    def test_no_forked_reader_reads_the_pipe(self, tmp_path, monkeypatch, name, text):
        path = tmp_path / name
        path.write_text(text)
        expected = _outcome(path)
        log = tmp_path / "pulls"  # the pid of each read of the pipe, from any process
        read, parent = os.read, os.getpid()

        def logged_read(fd, length):
            if os.fstat(fd).st_ino == os.fstat(read_end).st_ino:  # the pipe, by any descriptor
                with open(log, "a") as out:
                    out.write(f"{os.getpid()}\n")
            return read(fd, length)

        monkeypatch.setattr(os, "read", logged_read)
        monkeypatch.setattr(_ranges, "_FIRST_REGION", 1 << 12)
        monkeypatch.setattr(dataio, "_read_csv", _no_row_reader)
        read_end, write_end = os.pipe()
        thread = _feed(write_end, text.encode())
        try:
            with forced_split(2) as forks, mock.patch.object(_ranges, "_SPLIT_BYTES", 1 << 12):
                # the feeding thread keeps ingest from forking: let _workers see one thread
                with mock.patch.object(threading, "active_count", lambda: 1):
                    outcome = _outcome(f"/dev/fd/{read_end}", path.suffix[1:])
        finally:
            os.close(read_end)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome == expected
        assert len(forks) > 1  # a fork in more than one region
        assert set(log.read_text().split()) == {str(parent)}

    @pytest.mark.parametrize("head", [1 << 20, 16, 1], ids=["default", "16", "1"])
    @pytest.mark.parametrize("name", list(_PIPED_FILES))
    def test_a_pipe_reads_as_its_file(self, tmp_path, monkeypatch, name, head):
        content = _PIPED_FILES[name]
        data = content if isinstance(content, bytes) else content.encode()
        path = tmp_path / name
        path.write_bytes(data)
        expected = _outcome(path)
        monkeypatch.setattr(_ranges, "_FIRST_REGION", head)
        outcome = _piped_outcome(data, path.suffix[1:])
        assert outcome == (expected.replace(str(path), "<input>") if isinstance(expected, str) else expected)


class TestClippedCells:
    """A fault's text echoes a cell clipped to 64 characters and a marker,
    so that a huge bad cell does not flood stderr; a short cell is echoed whole."""

    @pytest.mark.parametrize("name, content, error", [
        ("p.jsonl", json.dumps({"y_true": "x" * (8 << 20), "y_pred": 0, "confidence": 0.5}) + "\n",
         ":1: y_true must be an integer, got '" + "x" * 63 + "...(clipped)\n"),
        ("p.csv", _CSV_HEADER + "x" * 131_000 + ",0,0.5\n",
         ":2: y_true must be an integer, got '" + "x" * 63 + "...(clipped)\n"),
        ("p.csv", _CSV_HEADER + "9" * 400 + ",0,0.5\n", ":2: y_true " + "9" * 64 + "...(clipped) does not fit in int64\n"),
        ("p.jsonl", json.dumps({"y_true": 0, "probs": [0.5, 0.5], "confidence": "y" * 200}) + "\n",
         ":1: confidence must be a number, got '" + "y" * 63 + "...(clipped)\n"),
        ("p.csv", "y_true,y_pred,confidence,credit\n0,0,0.5,nan" + " " * 200 + "\n",
         ":2: credit 'nan" + " " * 60 + "...(clipped) outside [0, 1]\n"),
    ], ids=["jsonl_label_8mib", "csv_label_131k", "csv_label_int64", "jsonl_number", "csv_credit"])
    def test_a_huge_cell_is_clipped(self, tmp_path, capsys, name, content, error):
        path = tmp_path / name
        path.write_text(content)
        assert run_cli(["evaluate", "--input", str(path), "--tau", "0.7", "--output", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert f"{path}{error}" in err, err[:300]
        assert len(err) < len(str(path)) + 200

    def test_a_disagreeing_confidence_is_clipped(self):
        with pytest.raises(dataio._Fault) as clipped:
            dataio._reduce_probs([0.5, 0.5], "0." + "5" * 100, 1)
        assert clipped.value.reason == f"confidence '0.{'5' * 61}...(clipped) disagrees with max(probs) 0.5"
        with pytest.raises(dataio._Fault) as whole:
            dataio._reduce_probs([0.5, 0.5], 0.501, 1)
        assert whole.value.reason == "confidence 0.501 disagrees with max(probs) 0.5"


# file name -> contents, for the NumPy CSV pass, the row reader and JSONL
_ONE_OPEN_INPUTS = {
    "bulk.csv": _CSV_ROWS,
    "quoted.csv": _CSV_ROWS.replace("0,1,0.5", '"0",1,0.5'),
    "p.jsonl": _VALID * 20 + '{"y_true": 1, "y_pred": 0, "confidence": 0.75}\n' * 20,
}


class TestOneOpen:
    """``evaluate`` and ``compare`` open each input path once: the digest,
    every reader and NumPy's parse read that one open file."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """The paths given to ``open`` and to ``dataio._parsed``, as text."""
        real_open, parsed = builtins.open, dataio._parsed
        names = {"open": [], "parsed": []}

        def counted_open(file, *args, **kwargs):
            if isinstance(file, (str, Path)):
                names["open"].append(str(file))
            return real_open(file, *args, **kwargs)

        def counted_parsed(name, *args):
            names["parsed"].append(name)
            return parsed(name, *args)

        monkeypatch.setattr(builtins, "open", counted_open)
        monkeypatch.setattr(dataio, "_parsed", counted_parsed)
        return names

    @pytest.mark.parametrize("name, workers", [
        ("bulk.csv", 1), ("bulk.csv", 2), ("quoted.csv", 1), ("p.jsonl", 1), ("p.jsonl", 2),
    ])
    def test_evaluate_opens_its_input_once(self, tmp_path, opened, name, workers):
        path = tmp_path / name
        path.write_text(_ONE_OPEN_INPUTS[name])
        with forced_split(workers) as forks:
            assert run_cli(["evaluate", "--input", str(path), "--output", str(tmp_path / "r.json")]) == 0
            sweep_forks = _ranges._workers(len(ThresholdGrid().thresholds()) // 2) - 1
        assert len(forks) == workers - 1 + sweep_forks
        assert opened["open"].count(str(path)) == 1
        assert str(path) not in opened["parsed"]
        assert bool(opened["parsed"]) == (name == "bulk.csv")

    def test_compare_opens_each_input_once(self, tmp_path, opened):
        paths = [tmp_path / name for name in _ONE_OPEN_INPUTS]
        for path in paths:
            path.write_text(_ONE_OPEN_INPUTS[path.name])
        with forced_split(2) as forks:
            assert run_cli(["compare", "--inputs", ",".join(map(str, paths)), "--by", "cwsa",
                            "--output", str(tmp_path / "r.json")]) == 0
            sweep_forks = _ranges._workers(len(ThresholdGrid().thresholds()) // 2) - 1
        assert len(forks) == sum(splits(path.read_bytes(), 2, path.suffix[1:]) for path in paths) \
            + len(paths) * sweep_forks
        assert [opened["open"].count(str(path)) for path in paths] == [1, 1, 1]
        assert opened["parsed"] and not set(map(str, paths)) & set(opened["parsed"])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_numpy_parses_no_name_of_the_input(self, tmp_path, monkeypatch, piped, workers):
        path = tmp_path / "bulk.csv"
        path.write_text(_ONE_OPEN_INPUTS["bulk.csv"])
        expected = _outcome(path)
        log = tmp_path / "files"  # "role device inode" of each file read, from any process
        bulk, parsed = dataio._bulk_columns, dataio._parsed

        def noted(role, st):
            with open(log, "a") as out:
                out.write(f"{role} {st.st_dev} {st.st_ino}\n")

        def noted_bulk(pread):
            noted("input", os.fstat(_fd_of(pread)))  # the file, or the spool of the pipe
            return bulk(pread)

        def noted_parsed(name, *args):
            noted("parsed", os.stat(name))
            return parsed(name, *args)

        monkeypatch.setattr(dataio, "_bulk_columns", noted_bulk)
        monkeypatch.setattr(dataio, "_parsed", noted_parsed)
        monkeypatch.setattr(dataio, "_read_csv", _no_row_reader)
        read_end, write_end = os.pipe()
        try:
            if piped:
                os.write(write_end, path.read_bytes())  # less than a pipe's buffer
            os.close(write_end)
            with forced_split(workers) as forks:
                outcome = _outcome_of(ingest(f"/dev/fd/{read_end}" if piped else path, "csv"))
        finally:
            os.close(read_end)
        assert outcome == expected
        assert len(forks) == workers - 1
        files = {"input": set(), "parsed": set()}
        for entry in log.read_text().splitlines():
            role, *identity = entry.split()
            files[role].add(tuple(identity))
        assert len(files["input"]) == 1 and files["parsed"]
        assert not files["input"] & files["parsed"]

    def test_no_reader_reads_at_the_descriptor_s_offset(self, tmp_path, monkeypatch):
        # On macOS, /dev/fd/N shares the offset of the shell's descriptor, which may have moved on.
        path = tmp_path / "quoted.csv"
        path.write_text(_ONE_OPEN_INPUTS["quoted.csv"])
        expected, digest = dataio._ingest(path)

        def moved_offset(pread):
            os.lseek(_fd_of(pread), 7, os.SEEK_SET)
            return None  # so the row reader reads the file

        monkeypatch.setattr(dataio, "_bulk_columns", moved_offset)
        read = _count_row_reads(monkeypatch)
        ds, moved_digest = dataio._ingest(path)
        assert read == [path]
        assert _outcome_of(ds) == _outcome_of(expected)
        assert moved_digest == digest

    @pytest.mark.parametrize("name, workers", [("bulk.csv", 1), ("bulk.csv", 2), ("quoted.csv", 1), ("p.jsonl", 2)])
    def test_a_file_replaced_after_the_open_is_neither_read_nor_digested(self, tmp_path, monkeypatch,
                                                                          name, workers):
        path = tmp_path / name
        original = _ONE_OPEN_INPUTS[name].encode()
        path.write_bytes(original)
        with forced_split(workers):
            assert run_cli(["evaluate", "--input", str(path), "--output", str(tmp_path / "file.json")]) == 0
        other = tmp_path / "other"
        other.write_bytes(_ONE_OPEN_INPUTS["p.jsonl" if name == "bulk.csv" else "bulk.csv"].encode())
        real_open = builtins.open

        def replacing_open(file, *args, **kwargs):
            opened = real_open(file, *args, **kwargs)
            if str(file) == str(path) and other.exists():
                os.replace(other, path)
            return opened

        monkeypatch.setattr(builtins, "open", replacing_open)
        with forced_split(workers):
            assert run_cli(["evaluate", "--input", str(path), "--format", path.suffix[1:],
                            "--output", str(tmp_path / "replaced.json")]) == 0
        monkeypatch.undo()
        assert path.read_bytes() != original
        docs = [json.loads((tmp_path / name).read_text()) for name in ("file.json", "replaced.json")]
        assert docs[0] == docs[1]
        assert docs[1]["input_digest"] == "sha256:" + hashlib.sha256(original).hexdigest()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_ONE_OPEN_INPUTS))
    def test_a_pipe_reports_as_its_file(self, tmp_path, name, workers):
        path = tmp_path / name
        path.write_text(_ONE_OPEN_INPUTS[name])
        data, fmt = path.read_bytes(), path.suffix[1:]
        with forced_split(workers):
            assert run_cli(["evaluate", "--input", str(path), "--output", str(tmp_path / "file.json")]) == 0
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)  # less than a pipe's buffer
            os.close(write_end)
            with forced_split(workers) as forks:
                assert run_cli(["evaluate", "--input", f"/dev/fd/{read_end}", "--format", fmt,
                                "--output", str(tmp_path / "pipe.json")]) == 0
        finally:
            os.close(read_end)
        assert bool(forks) == splits(data, workers, fmt)
        docs = [json.loads((tmp_path / name).read_text()) for name in ("file.json", "pipe.json")]
        assert docs[1]["source_id"] == str(read_end)
        del docs[0]["source_id"], docs[1]["source_id"]
        assert docs[0] == docs[1]
        assert docs[1]["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()


class TestCliSynthDeterminism:
    def test_byte_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--kind", "random", "--n", "500", "--seed", "99"]
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["synth", "--kind", "random", "--seed", "1", "--output", str(a)])
        run_cli(["synth", "--kind", "random", "--seed", "2", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_interval_overrides(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli(["synth", "--kind", "calibrated", "--p-correct", "1.0",
                        "--conf-correct", "0.95,1.0", "--output", str(out)]) == 0
        ds = ingest(out)
        assert np.all(ds.confidence >= 0.95)
        assert np.all(ds.y_true == ds.y_pred)

    def test_invalid_spec_is_exit_1(self, tmp_path):
        assert run_cli(["synth", "--kind", "perfect", "--p-correct", "0.5",
                        "--output", str(tmp_path / "o.csv")]) == 1


class TestCliCompare:
    def test_ranking_table(self, tmp_path, capsys):
        files = []
        for kind in ("perfect", "random"):
            path = tmp_path / f"{kind}.csv"
            run_cli(["synth", "--kind", kind, "--seed", "5", "--output", str(path)])
            files.append(str(path))
        out = tmp_path / "rank.json"
        assert run_cli(["compare", "--inputs", ",".join(files), "--by", "cwsa_plus",
                        "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [e["source_id"] for e in doc["ranking"]] == ["perfect.csv", "random.csv"]
        assert doc["ranking"][0]["auc_mcc_cwsa_plus"] == 1.0
        text = capsys.readouterr().out
        lines = text.strip().splitlines()
        assert lines[0].split() == ["rank", "source_id", "auc_mcc_cwsa_plus"]
        assert lines[1].split()[1] == "perfect.csv"

    def test_inputs_sharing_a_file_name_are_rejected(self, tmp_path, capsys):
        paths = []
        for kind in ("perfect", "random"):
            (tmp_path / kind).mkdir()
            paths.append(tmp_path / kind / "p.csv")
            run_cli(["synth", "--kind", kind, "--n", "20", "--output", str(paths[-1])])
        out = tmp_path / "rank.json"
        assert run_cli(["compare", "--inputs", ",".join(map(str, paths)), "--by", "cwsa",
                        "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(paths[0]) in err and str(paths[1]) in err
        assert not out.exists()

    def test_by_flag_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["compare", "--inputs", "a.csv", "--output", "r.json"])
        assert exc.value.code == 2


class TestCliCurves:
    def test_emits_csv_and_svg_per_metric(self, tmp_path):
        pred = tmp_path / "p.csv"
        run_cli(["synth", "--kind", "calibrated", "--seed", "8", "--output", str(pred)])
        report = tmp_path / "r.json"
        run_cli(["evaluate", "--input", str(pred), "--output", str(report)])
        doc = json.loads(report.read_text())
        markup = "a<b&c"  # a file name, which the SVG title must escape
        doc["curves"][markup] = doc["curves"]["cwsa"]
        report.write_text(json.dumps(doc))
        outdir = tmp_path / "curves"
        assert run_cli(["curves", "--report", str(report), "--output", str(outdir)]) == 0
        for name in ("cwsa", "cwsa_plus", "selective_accuracy", "coverage", markup):
            csv_path = outdir / f"{name}.csv"
            svg_path = outdir / f"{name}.svg"
            assert csv_path.exists() and svg_path.exists()
            rows = csv_path.read_text().splitlines()
            assert rows[0] == "tau,coverage,value"
            assert len(rows) == 51
            root = ET.fromstring(svg_path.read_text())
            assert root.tag.endswith("svg")
            assert any(child.tag.endswith("polyline") for child in root.iter())
            assert next(child for child in root if child.tag.endswith("text")).text == name

    def test_point_report_is_rejected(self, tmp_path):
        pred = tmp_path / "p.csv"
        run_cli(["synth", "--kind", "perfect", "--n", "5", "--output", str(pred)])
        report = tmp_path / "r.json"
        run_cli(["evaluate", "--input", str(pred), "--tau", "0.5", "--output", str(report)])
        assert run_cli(["curves", "--report", str(report),
                        "--output", str(tmp_path / "c")]) == 1

    def test_report_without_curves_is_exit_1(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text('{"report_type": "sweep"}\n')
        assert run_cli(["curves", "--report", str(report), "--output", str(tmp_path / "c")]) == 1
        assert "'curves'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[]", "sweep report"),
            ('{"report_type": "sweep", "curves": [1, 2]}', "'curves' object"),
            ('{"report_type": "sweep", "curves": {"cwsa": {"tau": [0.5], "value": [0.1]}}}',
             "'cwsa': 'coverage'"),
            ('{"report_type": "sweep", "curves": {"cwsa": {"tau": [], "coverage": [], "value": []}}}',
             "'cwsa': 'tau'"),
            ('{"report_type": "sweep", "curves": {"cwsa": {"tau": [0.5, 0.6], "coverage": [1.0, 1.0],'
             ' "value": [0.1]}}}', "'cwsa': 'value'"),
            ('{"report_type": "sweep", "curves": {"../up": {"tau": [0.5], "coverage": [1.0],'
             ' "value": [0.1]}}}', "'../up' is not a file name"),
            ("[" * 100_000, "nested too deeply"),
            ('{"report_type": "sweep", "curves": {"cwsa": {"tau": [0.5, 0.6, Infinity],'
             ' "coverage": [1.0, 1.0, 1.0], "value": [0.1, 0.5, 0.4]}}}', "'cwsa': 'tau' must hold finite"),
            ('{"report_type": "sweep", "curves": {"cwsa": {"tau": [0.5, 0.6], "coverage": [1.0, 1.0],'
             ' "value": [NaN, 0.5]}}}', "'cwsa': 'value' must hold finite"),
            ('{"report_type": "sweep", "curves": {"cwsa": {"tau": [0.5], "coverage": [1%s],'
             ' "value": [0.1]}}}' % ("0" * 400), "'cwsa': 'coverage' must hold finite"),
        ],
        ids=["not_an_object", "curves_not_an_object", "no_coverage", "empty_lists", "unequal_lengths",
             "name_leaves_output_dir", "deep_nesting", "non_finite_tau", "non_finite_value",
             "int_beyond_float"],
    )
    def test_malformed_report_is_exit_1(self, tmp_path, capsys, doc, message):
        report = tmp_path / "r.json"
        report.write_text(doc)
        outdir = tmp_path / "c"
        assert run_cli(["curves", "--report", str(report), "--output", str(outdir)]) == 1
        assert message in capsys.readouterr().err
        assert not outdir.exists() and not (tmp_path / "up.csv").exists()

    @pytest.mark.parametrize("values, polylines, circles", [
        ([None, 0.5, None, 0.6, 0.7], 1, 1),  # a lone point between undefined ones
        ([0.4, 0.5, None, 0.6, None], 1, 1),
        ([0.4, 0.5, None, None, 0.6], 1, 1),  # a lone point at the end
        ([0.4, None, 0.5, None, 0.6], 0, 3),
        ([0.4, 0.5, 0.6, 0.7, 0.8], 1, 0),
        ([None] * 5, 0, 0),
    ])
    def test_each_run_of_defined_points_is_drawn(self, tmp_path, values, polylines, circles):
        curve = {"tau": [0.1, 0.2, 0.3, 0.4, 0.5], "coverage": [1.0] * 5, "value": values}
        dataio.write_curves({"report_type": "sweep", "curves": {"m": curve}}, tmp_path)
        tags = [child.tag.rsplit("}", 1)[-1] for child in ET.fromstring((tmp_path / "m.svg").read_text())]
        assert (tags.count("polyline"), tags.count("circle")) == (polylines, circles)

    def test_a_one_threshold_curve_is_one_circle_mid_axis(self):
        svg = ET.fromstring(dataio.curve_svg("m", [0.6], [0.5]))
        shapes = [child for child in svg if child.tag.endswith(("circle", "polyline"))]
        assert [shape.tag.rsplit("}", 1)[-1] for shape in shapes] == ["circle"]
        # the x-range is widened to 0.59..0.61, so the point sits mid-plot: left + plot width / 2
        assert float(shapes[0].get("cx")) == 64 + (640 - 64 - 20) / 2

    def test_undefined_values_leave_gaps(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("y_true,y_pred,confidence\n0,0,0.6\n1,1,0.55\n")
        report = tmp_path / "r.json"
        run_cli(["evaluate", "--input", str(pred), "--output", str(report)])
        outdir = tmp_path / "c"
        assert run_cli(["curves", "--report", str(report), "--output", str(outdir)]) == 0
        rows = (outdir / "selective_accuracy.csv").read_text().splitlines()
        assert any(row.endswith(",") for row in rows[1:])


class TestCliExpect:
    def test_random_at_half(self, capsys):
        assert run_cli(["expect", "--kind", "random", "--tau", "0.5"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(values["coverage"]) == pytest.approx(5 / 7, abs=1e-12)
        assert float(values["cwsa"]) == pytest.approx(-1 / 6, abs=1e-12)
        assert float(values["cwsa_plus"]) == pytest.approx(1 / 6, abs=1e-12)

    def test_zero_coverage_prints_null(self, capsys):
        assert run_cli(["expect", "--kind", "underconfident", "--tau", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "selective_accuracy null" in out

    def test_bad_tau_is_exit_1(self, capsys):
        assert run_cli(["expect", "--kind", "random", "--tau", "1.0"]) == 1


class TestEvaluateDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        pred = tmp_path / "p.csv"
        run_cli(["synth", "--kind", "calibrated", "--seed", "31", "--output", str(pred)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["evaluate", "--input", str(pred), "--output", str(a)])
        run_cli(["evaluate", "--input", str(pred), "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_input_digest_present(self, tmp_path):
        pred = tmp_path / "p.csv"
        run_cli(["synth", "--kind", "perfect", "--n", "3", "--output", str(pred)])
        out = tmp_path / "r.json"
        run_cli(["evaluate", "--input", str(pred), "--output", str(out)])
        doc = json.loads(out.read_text())
        assert doc["input_digest"] == "sha256:" + hashlib.sha256(pred.read_bytes()).hexdigest()
        assert doc["input_digest"].startswith("sha256:")


class TestGoldenBytes:
    # SHA-256 of outputs of version 0.2.0.  A refactor must leave them as
    # they are; a version bump changes every report, and updates them.
    # Each test runs the grid kernel on 1 and on 2 workers: report bytes do
    # not depend on the worker count.
    EXPECTED = {
        "cal.csv": "7b4649ea3ca06babe7e23c70cf42c70219a2aa48429fac6a0645ee5166fc32da",
        "sweep.json": "28690e85be683116d54ff706076df1bbb49088d6646243fb1b9fd760fdbb1293",
        "point.json": "c7d782a1a5d31fc1ff63477e20c507edb0809d1a54e84f40d982cb4278607449",
        "compare.json": "bba47976bafc5786ba913f683537a23da8b7eeb5d6c44aeb7f076a941c7aae04",
    }

    @staticmethod
    def _runs(out):
        """The command lines that write the outputs of ``EXPECTED`` into the directory ``out``."""
        cal, over = out / "cal.csv", out / "over.csv"
        return [
            ["synth", "--kind", "calibrated", "--n", "200", "--seed", "5", "--output", str(cal)],
            ["synth", "--kind", "overconfident", "--n", "200", "--seed", "6", "--output", str(over)],
            ["evaluate", "--input", str(cal), "--output", str(out / "sweep.json")],
            ["evaluate", "--input", str(cal), "--tau", "0.7", "--output", str(out / "point.json")],
            ["compare", "--inputs", f"{cal},{over}", "--by", "cwsa", "--output", str(out / "compare.json")],
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outputs_match_pinned_digests(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(_ranges, "_usable_cpus", lambda: workers)
        for argv in self._runs(tmp_path):
            assert run_cli(argv) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.EXPECTED}
        assert digests == self.EXPECTED

    def test_outputs_match_pinned_digests_with_every_dispatch_target_off(self, tmp_path):
        """The same bytes from NumPy's baseline code alone: every SIMD dispatch
        target this machine enables is switched off in the processes that write them."""
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        enabled = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
        if not enabled:
            pytest.skip("NumPy enables no dispatch target on this machine")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(enabled),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run(*args):
            done = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr.decode()
            return done.stdout

        probe = ("from numpy._core._multiarray_umath import __cpu_dispatch__ as targets, __cpu_features__ as on; "
                 "print([target for target in targets if on.get(target)])")
        assert run("-c", probe).strip() == b"[]"
        for argv in self._runs(tmp_path):
            run("-m", "cwsa_eval.cli", *argv)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.EXPECTED}
        assert digests == self.EXPECTED

    # A 1000-point grid on 5000 records, so the sweep sums carry across
    # many blocks of the grid kernel.
    DENSE_EXPECTED = {
        "sweep.json": "ab150ca55a8519d7fa569516a83d3366d510129c0005b64ecdf2eb7cdd284a9a",
        "compare.json": "9b922631861e9c386884b3b689dbf09ec6a17f51b8f424e3feca34e6298c2014",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dense_grid_outputs_match_pinned_digests(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(_ranges, "_usable_cpus", lambda: workers)
        cal, over = tmp_path / "cal.csv", tmp_path / "over.csv"
        run_cli(["synth", "--kind", "calibrated", "--n", "5000", "--seed", "5", "--output", str(cal)])
        run_cli(["synth", "--kind", "overconfident", "--n", "5000", "--seed", "6", "--output", str(over)])
        grid = ["--grid", "0.0:0.999:0.001"]
        assert run_cli(["evaluate", "--input", str(cal), *grid,
                        "--output", str(tmp_path / "sweep.json")]) == 0
        assert run_cli(["compare", "--inputs", f"{cal},{over}", "--by", "cwsa_plus", *grid,
                        "--output", str(tmp_path / "compare.json")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.DENSE_EXPECTED}
        assert digests == self.DENSE_EXPECTED

    @pytest.mark.parametrize("workers", [1, 2])
    def test_split_csv_outputs_match_pinned_digests(self, tmp_path, workers):
        cal = tmp_path / "cal.csv"
        run_cli(["synth", "--kind", "calibrated", "--n", "200", "--seed", "5", "--output", str(cal)])
        with forced_split(workers) as forks:
            assert run_cli(["evaluate", "--input", str(cal), "--output", str(tmp_path / "sweep.json")]) == 0
            assert run_cli(["evaluate", "--input", str(cal), "--tau", "0.7",
                            "--output", str(tmp_path / "point.json")]) == 0
            sweep_forks = _ranges._workers(len(ThresholdGrid().thresholds()) // 2) - 1
        assert len(forks) == 2 * (workers - 1) + sweep_forks
        names = ("cal.csv", "sweep.json", "point.json")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
        assert digests == {name: self.EXPECTED[name] for name in names}

    # A JSONL file in each record layout, read by one reader and split
    # between two forked readers.
    JSONL_EXPECTED = {
        "cal.jsonl": "8f4cd19f75a14e1ddbf5a5d27718da4cb1825217f4f3b1deec7ad55e79687cc7",
        "point.json": "846ecd2546634c8b8532b57c2b883ff15981c9284900c5e2fbc70e98bbecb965",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jsonl_outputs_match_pinned_digests(self, tmp_path, workers):
        cal = tmp_path / "cal.jsonl"
        _write_golden_jsonl(cal)
        with forced_split(workers) as forks:
            assert run_cli(["evaluate", "--input", str(cal), "--tau", "0.7",
                            "--output", str(tmp_path / "point.json")]) == 0
        assert len(forks) == workers - 1
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.JSONL_EXPECTED}
        assert digests == self.JSONL_EXPECTED


def _write_golden_jsonl(path):
    """3000 calibrated records over 3 classes, in turn: probs alone, explicit
    fields, probs with confidence, probs with y_pred, explicit fields with
    credit, probs with credit; a blank line after every 250."""
    source = generate(ArchetypeSpec.for_kind("calibrated", n=3000, seed=5))
    lines = []
    for i, (t, p, c) in enumerate(zip(source.y_true.tolist(), source.y_pred.tolist(),
                                      source.confidence.tolist())):
        probs = [(1.0 - c) / 2] * 3
        probs[p] = c
        record = [
            {"y_true": t, "probs": probs},
            {"y_true": t, "y_pred": p, "confidence": c},
            {"y_true": t, "probs": probs, "confidence": max(probs)},
            {"y_true": t, "probs": probs, "y_pred": p},
            {"y_true": t, "y_pred": p, "confidence": c, "credit": i % 7 / 6},
            {"y_true": t, "probs": probs, "credit": None},
        ][i % 6]
        lines.append(json.dumps(record) + ("\n\n" if i % 250 == 249 else "\n"))
    path.write_text("".join(lines))


def _credited_set(n, seed):
    """A calibrated set of ``n`` records with a credit column, every third credit absent (NaN)."""
    source = generate(ArchetypeSpec.for_kind("calibrated", n=n, seed=seed))
    credit = np.random.default_rng(seed).random(n)
    credit[::3] = np.nan
    return EvaluationSet(source.y_true, source.y_pred, source.confidence, credit, class_count=source.class_count)


class TestSplitWriters:
    """``write_predictions_csv`` writes the same bytes formatted by 1, 2 or 3
    writers, a dead writer's records are formatted again, every forked
    writer is reaped, and none is forked where ``os.fork`` is unsafe."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_synth_file_matches_its_pinned_digest(self, tmp_path, workers):
        cal = tmp_path / "cal.csv"
        with forced_split(workers) as forks:
            run_cli(["synth", "--kind", "calibrated", "--n", "200", "--seed", "5", "--output", str(cal)])
        assert len(forks) == workers - 1
        assert hashlib.sha256(cal.read_bytes()).hexdigest() == TestGoldenBytes.EXPECTED["cal.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("chunk", [7, 1 << 14])
    def test_absent_credit_cells_at_two_writers(self, tmp_path, monkeypatch, chunk):
        ds = _credited_set(100, seed=3)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        write_predictions_csv(ds, one)  # 3.2 kB of columns: one writer
        monkeypatch.setattr(dataio, "_WRITE_CHUNK", chunk)
        with forced_split(2) as forks:
            write_predictions_csv(ds, two)
        assert len(forks) == 1
        assert two.read_bytes() == one.read_bytes()
        back = ingest(two)
        assert np.array_equal(back.credit, ds.credit, equal_nan=True) and np.isnan(back.credit).sum() == 34

    @pytest.mark.parametrize("n, forked", [(1, 0), (2, 1), (3, 2), (4, 2)])
    def test_as_many_writers_as_records_at_most(self, tmp_path, n, forked):
        ds = _credited_set(n, seed=4)
        one, three = tmp_path / "one.csv", tmp_path / "three.csv"
        write_predictions_csv(ds, one)
        with forced_split(3) as forks:
            write_predictions_csv(ds, three)
        assert len(forks) == forked
        assert three.read_bytes() == one.read_bytes() and len(one.read_text().splitlines()) == n + 1

    @pytest.mark.parametrize("death", ["before_formatting", "mid_payload"])
    def test_a_dead_writer_s_records_are_formatted_again(self, tmp_path, monkeypatch, death):
        ds = _credited_set(300, seed=5)
        expected = tmp_path / "one.csv"
        write_predictions_csv(ds, expected)
        parent = os.getpid()
        if death == "before_formatting":
            chunks = dataio._csv_chunks

            def dying_chunks(*args):
                if os.getpid() != parent:
                    os._exit(3)
                return chunks(*args)

            monkeypatch.setattr(dataio, "_csv_chunks", dying_chunks)
        else:  # the child sends half its result, then exits as if all went well
            dump = pickle.dump

            def short_dump(obj, file, protocol):
                if os.getpid() != parent:
                    payload = pickle.dumps(obj, protocol)
                    file.write(payload[: len(payload) // 2])
                    file.flush()
                    os._exit(0)
                return dump(obj, file, protocol)

            monkeypatch.setattr(pickle, "dump", short_dump)
        path = tmp_path / "three.csv"
        with forced_split(3) as forks:
            write_predictions_csv(ds, path)
        assert len(forks) == 2
        assert path.read_bytes() == expected.read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_writers_are_killed_when_a_write_fails(self, tmp_path, monkeypatch):
        ds = _credited_set(300, seed=7)
        parent, chunks = os.getpid(), dataio._csv_chunks

        def slow_chunks(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return chunks(*args)

        class FullDisk(io.FileIO):  # a disk that fills up once the header is written
            def write(self, data):
                if self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        statuses = []
        waitpid = os.waitpid

        def recorded_waitpid(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(dataio, "_csv_chunks", slow_chunks)
        monkeypatch.setattr(dataio, "open", FullDisk, raising=False)
        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        start = time.monotonic()
        with forced_split(3) as forks:
            with pytest.raises(OSError) as raised:
                write_predictions_csv(ds, tmp_path / "p.csv")
        assert time.monotonic() - start < 30
        assert raised.value.errno == errno.ENOSPC
        assert (tmp_path / "p.csv").read_bytes() == b"y_true,y_pred,confidence,credit\n"
        assert len(forks) == len(statuses) == 2
        assert all(os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL for status in statuses)

    def test_no_fork_beside_another_thread(self, tmp_path):
        ds = _credited_set(200, seed=6)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with forced_split(2) as forks:
                write_predictions_csv(ds, tmp_path / "threaded.csv")
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        with forced_split(2) as forks:
            write_predictions_csv(ds, tmp_path / "forked.csv")
        assert len(forks) == 1  # the same write forks once the thread is gone
        assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "threaded.csv").read_bytes()
