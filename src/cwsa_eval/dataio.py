"""Prediction-file ingestion, report serialization and SVG curve emission.

Formats
-------
* CSV: header row mandatory (``y_true,y_pred,confidence`` plus optional
  ``credit``), comma delimiter, UTF-8 with or without a byte-order mark,
  LF, CRLF or CR line endings, cells optionally quoted as in the ``csv``
  module's default dialect.  An ASCII file without quotes or ``credit``
  whose every line ends in LF or CRLF and holds one record, so that it
  has no empty line, is parsed by NumPy a piece at a time.  Any other
  file (an empty line or a lone CR included) and every file NumPy cannot
  parse is read by the row reader in one pass.  The canonical output
  format for synthetic sets.
* JSONL: one object per line with the same keys, plus an optional
  ``probs`` vector that is reduced to (argmax, max) when the explicit
  fields are absent.  The canonical format for real-model dumps.  Each
  line is decoded once; plainly laid-out records are checked as NumPy
  columns a chunk at a time, and any other record cell by cell in the
  same pass, under the same rules.
* Both formats are read the same way (see :mod:`cwsa_eval._ranges`): an
  input is opened once, and every reader and the digest read it through
  ``pread(n, at)``, a pipe from a temporary file that it is copied into
  only as far as the readers read.  A large input is split at line
  starts into one byte range per CPU, which forked readers read at the
  same time.  Every reader, the row reader included, yields its records
  a bounded chunk at a time, and one join, :func:`_join`, takes each
  chunk as it comes: it adds a running count of the lines before to the
  chunk's, checks its record rules and raises the first fault in file
  order, which closes the readers and stops a pipe's copy.  A chunk
  counts its lines that start no record by record count, so a run of
  blank lines costs one count.  So a reader holds one chunk of records
  at a time, and the canonical CSV writer writes each chunk as it
  formats it.  NumPy parses copies: each piece of a CSV file is written
  to a temporary file read as ``/dev/fd/N``, so POSIX only.
* Report JSON: fixed key order and fixed float formatting (17 significant
  digits, round-trip exact), so identical inputs produce byte-identical
  reports.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import warnings
from collections import Counter
from itertools import chain, groupby
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import _ranges
from ._version import TOOL_NAME, __version__
from .baselines import BinningSpec, baseline_scalars
from .core import _CHUNK, EvaluationSet, _checked_class_count, _first_bad_record
from .metrics import point_metrics
from .sweep import CURVE_METRICS, SweepReport, ThresholdGrid, rank, sweep

__all__ = [
    "IngestError",
    "ingest",
    "write_predictions_csv",
    "point_report_doc",
    "sweep_report_doc",
    "compare_report_doc",
    "dumps_report",
    "write_report",
    "write_curves",
    "curve_svg",
]

PROBS_TOLERANCE = 1e-6
# ASCII bytes that NumPy's CSV parse reads otherwise than the row reader (see _bulk_readable).
_NOT_BULK_BYTES = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# the bytes of a CSV range that _read_csv_range reads, checks and parses at a time, up to the next LF
_SCAN_BLOCK = 1 << 22
_BULK_DTYPE = np.dtype([("y_true", np.int64), ("y_pred", np.int64), ("confidence", np.float64)])
_WRITE_CHUNK = 1 << 14  # records write_predictions_csv formats at a time
# Labels are stored as int64.
INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)
_COLUMN_DTYPES = (np.int64, np.int64, np.float64)  # y_true, y_pred, confidence
_ABSENT = object()  # a missing JSONL key: its type fails every column's check

AUMCC_POLICY = (
    "trapezoid over coverage ascending; duplicate coverages averaged; "
    "undefined points excluded; normalized by the spanned coverage"
)


class IngestError(ValueError):
    """A prediction file could not be parsed or failed validation."""


class _Fault(Exception):
    """``_Fault(line, reason)``: a fault on line ``line`` of the lines a reader
    read, counted from 1; :func:`ingest` names the file and the file's line."""

    line = property(lambda self: self.args[0])
    reason = property(lambda self: self.args[1])


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise IngestError(f"{path}: cannot infer format from suffix {suffix!r}; pass format explicitly")


def _shown(raw: object) -> str:
    """``repr(raw)`` for a fault's text, clipped to 64 characters and a marker."""
    return text[:64] + "...(clipped)" if len(text := repr(raw)) > 64 else text


def _label(raw: object, name: str, line_no: int) -> int:
    """A label cell as an int that fits in int64: ``int()`` of text, or a
    JSON int or integral float.  The range is checked on the column."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    try:
        if isinstance(raw, bool) or not isinstance(raw, (str, int)):
            raise ValueError
        value = int(raw)
    except ValueError:
        raise _Fault(line_no, f"{name} must be an integer, got {_shown(raw)}") from None
    if not INT64_MIN <= value <= INT64_MAX:
        raise _Fault(line_no, f"{name} {_shown(value)} does not fit in int64")
    return value


def _number(raw: object, name: str, line_no: int) -> float:
    """A number cell as ``float()`` of text or of a JSON number.  The range
    is checked on the column."""
    if isinstance(raw, (str, int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except (ValueError, OverflowError):  # OverflowError: an int beyond the float range
            pass
    raise _Fault(line_no, f"{name} must be a number, got {_shown(raw)}")


def _credit(raw: object, line_no: int) -> float:
    """A credit cell as a number other than NaN.  The range is checked on the column."""
    value = _number(raw, "credit", line_no)
    if math.isnan(value):  # NaN would read as "absent" in the column
        raise _Fault(line_no, f"credit {_shown(raw)} outside [0, 1]")
    return value


def _utf8_lines(lines):
    """Lines read with ``errors="surrogateescape"``; one that held bytes
    other than UTF-8 raises, naming its line counted from the first."""
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _Fault(line_no, f"not valid UTF-8 ({exc.reason})") from None
        yield line


def _column_arrays(columns):
    """Lists of plain column values as arrays; in credit, ``None`` reads as NaN
    ("absent"), and a list of ``None`` alone as ``None``, no credit."""
    *required, credit = columns
    arrays = tuple(np.array(column, dtype=dtype) for column, dtype in zip(required, _COLUMN_DTYPES))
    return (*arrays, None if credit.count(None) == len(credit) else np.array(credit, dtype=np.float64))


def _csv_columns(header: Optional[List[str]]):
    """The indices of ``y_true``, ``y_pred``, ``confidence`` and ``credit``
    (-1 when absent) in the header row of a CSV file; a :class:`_Fault` of
    no line when it lacks one."""
    if header is None:
        raise _Fault(None, "empty file")
    index = {name.strip(): i for i, name in enumerate(header)}
    for required in ("y_true", "y_pred", "confidence"):
        if required not in index:
            raise _Fault(None, f"missing required column {required!r}")
    return index["y_true"], index["y_pred"], index["confidence"], index.get("credit", -1)


def _read_csv(pread):
    """``(part, skipped, fault)`` of each chunk of ``_CHUNK`` records of the CSV input read by
    ``pread``, read by the row reader as :func:`_read_csv_range` reads a range: the chunk's
    records, a :class:`~collections.Counter` of its lines that start no record by the record
    count before each, and, in the last chunk, the :class:`_Fault` that stopped the reading
    or ``None``, both counting lines from the chunk's first.  A header fault raises."""
    columns = y_true, y_pred, confidence, credit = [], [], [], []
    fault, width, done = None, 0, 0  # done: the lines of the chunks yielded
    window = io.BufferedReader(_ranges._ByteWindow(pread, 0, None))
    # utf-8-sig drops the byte-order mark a spreadsheet may write before the header
    with io.TextIOWrapper(window, encoding="utf-8-sig", errors="surrogateescape", newline="") as text:
        reader = csv.reader(_utf8_lines(text))
        try:
            i_true, i_pred, i_conf, i_credit = _csv_columns(next(reader, None))
            width, end = max(i_true, i_pred, i_conf) + 1, reader.line_num  # end: the last line read
            skipped = Counter({0: end})  # the header's lines
            for row in reader:
                line_no, end = end + 1, reader.line_num
                if end > line_no:  # a quoted cell's further lines
                    skipped[len(y_true) + 1] += end - line_no
                if not row:
                    skipped[len(y_true)] += 1
                    continue
                if len(row) < width:
                    raise _Fault(line_no, f"expected {width} columns, got {len(row)}")
                t = _label(row[i_true], "y_true", line_no)
                p = _label(row[i_pred], "y_pred", line_no)
                c = _number(row[i_conf], "confidence", line_no)
                given = 0 <= i_credit < len(row) and row[i_credit].strip()
                r = _credit(row[i_credit], line_no) if given else None
                for column, value in zip(columns, (t, p, c, r)):
                    column.append(value)
                if len(y_true) == _CHUNK:
                    yield _column_arrays(columns), skipped, None
                    for column in columns:
                        column.clear()
                    skipped, done = Counter(), end
        except csv.Error as exc:
            fault = _Fault(reader.line_num, f"malformed CSV ({exc})")
        except _Fault as exc:
            fault = exc
    if not width:  # the header's fault
        raise fault
    yield _column_arrays(columns), skipped, fault and _Fault(fault.line - done, fault.reason)


def _bulk_readable(piece: bytes) -> Optional[int]:
    """The count of lines in ``piece``, bytes of a CSV file that start a
    line and end one or the file, or ``None`` unless NumPy parses each line
    as one record, as :func:`_read_csv` does.

    The bytes must be ASCII: NumPy reads some other letters as digits.  They
    must hold no quote, since NumPy does not unquote (so the header is one
    line, as NumPy's ``skiprows=1`` takes it, and a LF always ends a line),
    and none of the bytes 0x1c-0x1f, which NumPy strips as whitespace and
    ``int()`` does not.  Each line must end in LF or CRLF, or else end the
    file; none may be empty, nor longer than the csv field limit, which
    NumPy does not keep.  A lone CR, which ends a line for the row reader,
    fails the check.
    """
    if not piece.isascii() or any(byte in piece for byte in _NOT_BULK_BYTES):
        return None
    if b"\n\n" in piece or b"\n\r\n" in piece or piece.startswith((b"\n", b"\r\n")):
        return None  # an empty line, which np.loadtxt skips; seen before any array is made
    codes = np.frombuffer(piece, dtype=np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    lengths = np.diff(ends, prepend=-1)  # each ended line's bytes, its LF included
    if b"\r" in piece:
        crlf = codes[ends - 1] == ord("\r")
        if np.count_nonzero(crlf) != np.count_nonzero(codes == ord("\r")):  # a lone CR
            return None
        lengths -= crlf  # a CRLF counts as one byte, as a LF does
    last = len(piece) - 1 - int(ends[-1]) if ends.size else len(piece)  # the bytes after the last LF
    if max(int(lengths.max(initial=0)), last) > csv.field_size_limit():
        return None  # a line over the field limit
    return ends.size + (last > 0)  # a last line with no line end holds a record too


def _bulk_columns(pread):
    """The ``usecols`` of ``y_true``, ``y_pred`` and ``confidence`` for
    ``np.loadtxt``, from the first line of the CSV input read by ``pread``, or
    ``None`` when :func:`_read_csv` must read the file: the line is not a
    header NumPy can take, or it names a ``credit`` column, since an empty
    credit cell, which means "no credit", fails ``np.loadtxt``."""
    want = min(csv.field_size_limit() + 1, 1 << 22)  # the whole of a line NumPy may take, or 4 MiB
    first = pread(want, 0).split(b"\n", 1)[0].split(b"\r", 1)[0]
    if len(first) == want or _bulk_readable(first) is None:  # no line end in reach, or not one NumPy reads
        return None
    try:
        i_true, i_pred, i_conf, i_credit = _csv_columns(next(csv.reader([first.decode()]), None))
    except (_Fault, csv.Error):
        return None
    return None if i_credit >= 0 else (i_true, i_pred, i_conf)


def _parsed(name: str, usecols, skiprows: int) -> Optional[np.ndarray]:
    """The records of the CSV file named ``name``, after its first
    ``skiprows`` lines, parsed by NumPy, or ``None`` when NumPy cannot
    parse them or finds none."""
    try:
        with warnings.catch_warnings():
            # a deprecated parse such as "1.0" as int, or an input with no data
            warnings.simplefilter("error")
            return np.loadtxt(
                name, dtype=_BULK_DTYPE, delimiter=",", skiprows=skiprows, comments=None,
                quotechar=None, encoding="utf-8", ndmin=1, usecols=usecols,
            )
    except (OSError, ValueError, Warning):
        return None


def _read_csv_range(usecols, pread, start: int, stop: int):
    """``(part, skipped, None)`` of each piece of bytes ``start`` to ``stop`` of a
    CSV file whose header names ``usecols`` and no ``credit``, parsed by NumPy;
    the file's first part counts the header's line, at record 0, in ``skipped``,
    ``Counter({0: 1})``, and every other an empty :class:`~collections.Counter`.
    ``None`` last, once a piece or the range declines, when :func:`_read_csv`
    must read the file.

    The range is taken a piece of about ``_SCAN_BLOCK`` bytes at a time,
    cut just past a LF.  A piece longer than ``_SCAN_BLOCK`` plus the csv
    field limit holds a line over the limit and is left unread; any other
    is read once, by one ``pread``, and :func:`_bulk_readable` counts
    its lines.  Each line after the file's first, the header, must be a
    record: a table of any other length sends the file to :func:`_read_csv`,
    and so does a range that gives no table, such as the header alone.

    Since only a name reaches ``np.loadtxt``'s fast reader, each piece is
    copied to one temporary file, which holds one piece at a time, and
    parsed by the name ``/dev/fd/N``.
    """
    skipped = Counter({0: 1} if start == 0 else {})  # the header's line starts no record, until a part holds it
    try:
        copy = tempfile.TemporaryFile()
    except OSError:  # no scratch file, so NumPy parses no piece
        copy = None
    with copy or contextlib.nullcontext():
        while copy and start < stop:
            end = _ranges._past_lf(pread, start + _SCAN_BLOCK, stop)
            if end - start > _SCAN_BLOCK + csv.field_size_limit():  # its last line is over the limit
                break
            piece = pread(end - start, start)
            count = _bulk_readable(piece)
            if count is None or len(piece) < end - start:  # a short read, as of a piece over 2 GiB
                break
            header = int(start == 0)
            if count > header:
                copy.seek(0)
                copy.truncate()
                copy.write(piece)
                copy.seek(0)  # flushes the piece; on macOS, /dev/fd/N shares this offset
                table = _parsed(f"/dev/fd/{copy.fileno()}", usecols, header)
                if table is None or len(table) != count - header:
                    break
                yield (table["y_true"], table["y_pred"], table["confidence"], None), skipped, None
                skipped = Counter()
            start = end
    if start < stop or skipped:  # a piece NumPy cannot take, no scratch file, or no part
        yield None


def _reduce_probs(probs: object, confidence: object, line_no: int):
    """``(argmax, max)`` of a ``probs`` vector, which must agree with the
    record's ``confidence`` unless that is ``_ABSENT``."""
    if not (isinstance(probs, list) and probs and all(type(p) in (int, float) for p in probs)):
        raise _Fault(line_no, "probs must be a non-empty list of numbers")
    try:
        values = [float(p) for p in probs]
        total = math.fsum(values)
    except (OverflowError, ValueError):  # beyond the float range, or inf - inf
        total = math.nan
    # A NaN or infinite entry makes the total NaN or infinite, which fails here.
    if not abs(total - 1.0) <= PROBS_TOLERANCE:
        raise _Fault(line_no, f"probs sum to {total!r}, expected 1 within {PROBS_TOLERANCE}")
    top = max(values)
    top_index = values.index(top)  # lowest index wins ties
    if confidence is not _ABSENT:
        conf = _number(confidence, "confidence", line_no)
        if abs(conf - top) > PROBS_TOLERANCE:
            raise _Fault(line_no, f"confidence {_shown(confidence)} disagrees with max(probs) {top!r}")
    return top_index, top


def _top_of_probs(vectors: List[list]):
    """``(argmax, max)`` arrays of ``probs`` vectors, or ``None`` unless each
    vector passes :func:`_reduce_probs`: finite int or float entries whose
    :func:`math.fsum` lies within ``PROBS_TOLERANCE`` of 1."""
    flat = list(chain.from_iterable(vectors))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    lengths = np.fromiter(map(len, vectors), dtype=np.int64, count=len(vectors))
    starts = np.cumsum(lengths) - lengths
    top_index = np.empty(len(vectors), dtype=np.int64)
    top = np.empty(len(vectors), dtype=np.float64)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        block = values[starts[rows, None] + np.arange(length)]
        top_index[rows] = block.argmax(axis=1)  # lowest index wins ties
        top[rows] = block.max(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            miss = np.abs(block.sum(axis=1) - 1.0)
            # About 4x the largest |np.sum - fsum| that rounding allows, so
            # np.sum decides every row farther than this from the edge.
            doubt = 2 * length * np.finfo(np.float64).eps * np.abs(block).sum(axis=1)
        unsure = ~(np.abs(miss - PROBS_TOLERANCE) > doubt)  # NaN and inf included
        if not (miss[~unsure] <= PROBS_TOLERANCE).all():
            return None
        for row in block[unsure].tolist():
            try:
                if not abs(math.fsum(row) - 1.0) <= PROBS_TOLERANCE:
                    return None
            except OverflowError:  # an intermediate overflow
                return None
    return top_index, top


def _jsonl_record(cells, probs: object, line_no: int):
    """``(y_true, y_pred, confidence, credit)`` of a JSONL record from its raw
    cells and ``probs``, under the row rules.  ``_ABSENT`` marks a missing
    key, and ``None`` a missing or null credit, in the cells and the result."""
    t_raw, p_raw, c_raw, credit = cells
    if t_raw is _ABSENT:
        raise _Fault(line_no, "missing key 'y_true'")
    t = _label(t_raw, "y_true", line_no)
    if probs is not _ABSENT:
        top_index, top = _reduce_probs(probs, c_raw, line_no)
        p_raw = top_index if p_raw is _ABSENT else p_raw
        c_raw = top if c_raw is _ABSENT else c_raw
    elif p_raw is _ABSENT or c_raw is _ABSENT:
        raise _Fault(line_no, "need y_pred and confidence (or probs)")
    p = _label(p_raw, "y_pred", line_no)
    c = _number(c_raw, "confidence", line_no)
    return t, p, c, None if credit is None else _credit(credit, line_no)


def _plain_arrays(cells, rows: List[int], vectors: List[list]):
    """The column arrays of a chunk of JSONL records, or ``None`` unless it
    has int labels, int or float numbers, no NaN credit and ``probs`` that
    :func:`_top_of_probs` reduces.  Only the records with ``probs``, at
    ``rows``, may lack ``y_pred`` or ``confidence`` (``_ABSENT``), which
    the reduction then gives; a given value is kept, and a given
    confidence must lie within ``PROBS_TOLERANCE`` of the reduction's max."""
    y_true, y_pred, confidence, credit = cells
    if not (
        set(map(type, y_true)) <= {int}
        and set(map(type, y_pred)) <= {int, object}  # object: _ABSENT
        and set(map(type, confidence)) <= {int, float, object}
        and set(map(type, credit)) <= {int, float, type(None)}
        and (tops := _top_of_probs(vectors)) is not None
    ):
        return None
    rows = np.array(rows, dtype=np.intp)
    filled = []
    for column, top in zip((y_pred, confidence), tops):
        values = np.fromiter(column, dtype=object, count=len(column))
        absent = values[rows] == _ABSENT
        if np.count_nonzero(absent) != column.count(_ABSENT):  # a record without probs lacks the key
            return None
        values[rows[absent]] = top[absent]
        filled.append(values)
    try:
        arrays = _column_arrays((y_true, *filled, credit))
    except OverflowError:  # a label beyond int64, a number beyond the float range
        return None
    # A NaN given in the file does not mean "absent", as None does.
    if arrays[3] is not None and np.count_nonzero(np.isnan(arrays[3])) != credit.count(None):
        return None
    stated = ~absent  # of the confidence column: the records with probs that give one
    if not (np.abs(arrays[2][rows[stated]] - tops[1][stated]) <= PROBS_TOLERANCE).all():  # NaN and inf fail too
        return None
    return arrays


def _chunk_arrays(cells, rows, vectors, skipped: Counter):
    """``(arrays, fault)`` of a chunk of JSONL records: their column arrays and
    ``None``, or, where :func:`_plain_arrays` rejects the chunk and it is
    converted record by record, the arrays of the records ahead of the first
    that breaks a row rule and its :class:`_Fault`, of the line that the
    chunk's ``skipped`` counts from the chunk's first."""
    arrays = _plain_arrays(cells, rows, vectors)
    if arrays is not None:
        return arrays, None
    probs_at, records = dict(zip(rows, vectors)), ([], [], [], [])
    for i, raw in enumerate(zip(*cells)):
        try:
            values = _jsonl_record(raw, probs_at.get(i, _ABSENT), None)  # the line is found once, on a fault
        except _Fault as fault:
            return _column_arrays(records), _Fault(_line_of(i, skipped), fault.reason)
        for column, value in zip(records, values):
            column.append(value)
    return _column_arrays(records), None


def _read_jsonl_range(pread, start: int, stop: int):
    """``(part, skipped, fault)`` of each chunk of the JSONL records in bytes
    ``start`` to ``stop`` of an input read by ``pread``, which start a line, as
    :func:`_read_csv` gives them, ``skipped`` counting the blank lines.  Each
    other line is decoded once, by ``raw_decode`` or, where that fails or leaves
    more than the newline, by ``json.loads``.
    A record whose ``probs`` is not a non-empty list is checked at once; the
    others are held, ``_CHUNK`` records plus probs values at a time, for
    :func:`_chunk_arrays`, whose fault comes before a later line's."""
    decode = json.JSONDecoder().raw_decode
    cells = y_true, y_pred, confidence, credit = [], [], [], []
    rows, vectors = [], []  # the chunk's records with a probs vector, and the vectors
    skipped, fault, held, done = Counter(), None, 0, 0  # held: its records and probs values; done: the lines yielded
    window = io.BufferedReader(_ranges._ByteWindow(pread, start, stop))
    # as open(path, "r", encoding="utf-8", errors="surrogateescape") decodes: LF, CRLF and CR end lines
    with io.TextIOWrapper(window, encoding="utf-8", errors="surrogateescape") as text:
        try:
            for line_no, line in enumerate(_utf8_lines(text), start=1):
                if line.isspace():  # a blank line, counted before it is decoded
                    skipped[len(y_true)] += 1
                    continue
                try:
                    obj, end = decode(line)
                    if line[end:] not in ("\n", ""):
                        raise ValueError
                except (ValueError, RecursionError):
                    try:
                        obj = json.loads(line)
                    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
                        raise _Fault(line_no, f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
                if type(obj) is not dict:
                    raise _Fault(line_no, "expected a JSON object")
                get = obj.get
                probs = get("probs", _ABSENT)
                if probs is not _ABSENT:
                    if type(probs) is not list or not probs:  # the row rules raise, naming the record's first fault
                        raw = (get("y_true", _ABSENT), get("y_pred", _ABSENT),
                               get("confidence", _ABSENT), get("credit"))
                        _jsonl_record(raw, probs, line_no)
                    rows.append(len(y_true))
                    vectors.append(probs)
                    held += len(probs)
                y_true.append(get("y_true", _ABSENT))
                y_pred.append(get("y_pred", _ABSENT))
                confidence.append(get("confidence", _ABSENT))
                credit.append(get("credit"))
                held += 1
                if held >= _CHUNK:
                    arrays, fault = _chunk_arrays(cells, rows, vectors, skipped)
                    yield arrays, skipped, fault
                    if fault is not None:
                        return
                    for column in (*cells, rows, vectors):
                        column.clear()
                    skipped, held, done = Counter(), 0, line_no
        except _Fault as exc:
            fault = _Fault(exc.line - done, exc.reason)
    arrays, held_fault = _chunk_arrays(cells, rows, vectors, skipped)
    yield arrays, skipped, held_fault or fault


def _join(chunks, class_count: Optional[int]):
    """The parts of ``chunks``, the ``(part, skipped, fault)`` of any reader in file
    order, each of the lines after those of the chunks before, or ``None`` at a
    ``None`` chunk, a range that NumPy cannot parse.  Each part's record rules are
    checked as it arrives (see :func:`cwsa_eval.core._first_bad_record`), so the first
    fault in file order, a broken rule or else the reader's, raises as a :class:`_Fault`
    of the file's line.  ``chunks`` is closed on return, which stops its readers."""
    parts, lines = [], 0  # lines: those of the chunks joined
    with contextlib.closing(chunks):
        for chunk in chunks:
            if chunk is None:
                return None
            part, skipped, fault = chunk
            bad = _first_bad_record(*part, class_count) if len(part[0]) else None
            if bad is not None:
                raise _Fault(lines + _line_of(bad[0], skipped), bad[1])
            parts.append(part)
            if fault is not None:
                raise _Fault(lines + fault.line, fault.reason)
            lines += len(part[0]) + sum(skipped.values())
    return parts


def _line_of(index: int, skipped: Counter) -> int:
    """The line of record ``index`` of a chunk, counted from the chunk's first, given the
    count of the lines that start no record at each record count before them."""
    return 1 + index + sum(lines for count, lines in skipped.items() if count <= index)


def _joined_arrays(parts: List[tuple]):
    """The column arrays of ``parts`` joined, each read-only; a ``None`` credit
    part holds no credit, and is read as NaN ("absent") beside a part that does."""
    *columns, credits = zip(*parts)
    arrays = [np.concatenate(column) for column in columns]
    given = any(part is not None for part in credits)
    arrays.append(np.concatenate([np.full(len(y_true), np.nan) if part is None else part
                                  for y_true, part in zip(columns[0], credits)]) if given else None)
    for column in arrays:  # fresh, so the set need not copy them
        if column is not None:
            column.setflags(write=False)
    return arrays


def ingest(path, fmt: Optional[str] = None, class_count: Optional[int] = None) -> EvaluationSet:
    """Read and validate a prediction file into an :class:`EvaluationSet`.

    ``class_count`` defaults to 1 + the largest label seen, and is checked
    before the file is opened.  The file is opened once, a pipe copied into
    a temporary file only as far as it is read.  One reader reads the file
    (for CSV, the NumPy pass or else the row reader; a large file is split
    between forked readers that read as one) up to its first fault, and the
    one join, which checks the record rules of each chunk read as it comes,
    names the first malformed line in :class:`IngestError`.  Lines that start
    no record, such as blank ones, are counted, so they cost no memory per line.
    """
    return _ingest(path, fmt, class_count, digested=False)[0]


def _ingest(path, fmt: Optional[str] = None, class_count: Optional[int] = None, digested: bool = True):
    """``(dataset, digest)``: :func:`ingest` of ``path``, and the ``sha256:``
    digest of the bytes it read (``None`` unless ``digested``), taken after
    the readers from the one open file, so that a file replaced after the
    open is neither read nor digested.  :func:`_join` takes the chunks of the
    ranges' readers or else the row reader's, and raises the fault that is
    named, which closes them: forked readers are killed, a pipe's copy stops."""
    path = Path(path)
    class_count = _checked_class_count(class_count)
    if fmt is None:
        fmt = _infer_format(path)
    if fmt not in ("csv", "jsonl"):
        raise IngestError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")

    with contextlib.ExitStack() as stack:
        fd = stack.enter_context(open(path, "rb")).fileno()
        if stat.S_ISREG(os.fstat(fd).st_mode):
            pread, regions = functools.partial(os.pread, fd), [(0, os.fstat(fd).st_size)]
        else:  # a pipe, which only one pass can read
            pread = _ranges._Pipe(fd, stack.enter_context(tempfile.TemporaryFile()))
            regions = pread.regions()
        try:
            if fmt == "jsonl":
                read_range = _read_jsonl_range
            else:
                usecols = _bulk_columns(pread)
                read_range = usecols and functools.partial(_read_csv_range, usecols)
            parts = read_range and _join(_ranges.read_ranges(pread, regions, read_range), class_count)
            if parts is None:  # the row reader reads a file NumPy cannot take
                parts = _join(_read_csv(pread), class_count)
        except _Fault as fault:
            where = path if fault.line is None else f"{path}:{fault.line}"
            raise IngestError(f"{where}: {fault.reason}") from None
        digest = _digest(pread) if digested else None
    arrays = _joined_arrays(parts)
    if not len(arrays[0]):
        raise IngestError(f"{path}: no prediction rows")
    return EvaluationSet(*arrays, class_count=class_count, source_id=path.name), digest


def _digest(pread) -> str:
    """``sha256:`` and the hex SHA-256 of the input read by ``pread``, to its end."""
    digest, at = hashlib.sha256(), 0
    while block := pread(1 << 16, at):
        digest.update(block)
        at += len(block)
    return f"sha256:{digest.hexdigest()}"


def write_predictions_csv(dataset: EvaluationSet, path) -> None:
    """Write ``dataset`` in the canonical CSV layout (LF endings, shortest
    round-trip float formatting, an empty cell for an absent credit).

    The records are split evenly into as many ranges as ingest would read
    the bytes of their columns in (``_ranges._workers``: one per CPU, at
    most one per 4 MiB, and one off Linux or beside a second thread).  This
    process formats the first range, writing each chunk of ``_WRITE_CHUNK``
    records as it formats it, while a forked writer formats each other; the
    ranges are written in order, and a range whose writer died is formatted
    here."""
    columns, header = [dataset.y_true, dataset.y_pred, dataset.confidence], b"y_true,y_pred,confidence"
    if dataset.credit is not None:
        columns.append(dataset.credit)
        header += b",credit"
    n = len(dataset)
    workers = _ranges._workers(sum(column.nbytes for column in columns))
    bounds = sorted({n * k // workers for k in range(workers + 1)})
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        fh.flush()  # so that no forked writer inherits the header unwritten in its buffer
        ranges = list(zip(bounds, bounds[1:]))
        with contextlib.closing(_ranges.run_ranges(ranges, functools.partial(_csv_chunks, columns))) as chunks:
            fh.writelines(chunks)


def _csv_chunks(columns, start: int, stop: int):
    """The bytes of the canonical CSV lines of records ``start`` to ``stop`` of
    ``columns``, ``_WRITE_CHUNK`` records at a time."""
    for lo in range(start, stop, _WRITE_CHUNK):
        cells = [column[lo : min(stop, lo + _WRITE_CHUNK)].tolist() for column in columns]
        if len(cells) == 3:
            text = "".join([f"{t},{p},{c!r}\n" for t, p, c in zip(*cells)])
        else:
            text = "".join([f"{t},{p},{c!r},{'' if math.isnan(r) else repr(r)}\n" for t, p, c, r in zip(*cells)])
        yield text.encode()


# --------------------------------------------------------------------------
# Report documents


def _report_head(report_type: str, dataset: EvaluationSet, bins: BinningSpec, input_digest: str):
    """The keys that open every single-set report, in their fixed order."""
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "report_type": report_type,
        "source_id": dataset.source_id,
        "input_digest": input_digest,
        "record_count": len(dataset),
        "class_count": dataset.class_count,
        "bin_count": bins.bin_count,
    }


def point_report_doc(
    dataset: EvaluationSet, tau: float, bins: BinningSpec, input_digest: str
) -> Dict[str, object]:
    """Single-threshold report document (fixed key order)."""
    pm = point_metrics(dataset, tau)
    return {
        **_report_head("point", dataset, bins, input_digest),
        "tau": pm.tau,
        "retained_count": pm.retained_count,
        "coverage": pm.coverage,
        "selective_accuracy": pm.selective_accuracy,
        "cwsa": pm.cwsa,
        "cwsa_plus": pm.cwsa_plus,
        "baselines": baseline_scalars(dataset, bins),
    }


def sweep_report_doc(
    dataset: EvaluationSet, grid: ThresholdGrid, bins: BinningSpec, input_digest: str
) -> Dict[str, object]:
    """Full sweep report document (fixed key order): one curve per metric
    of :data:`CURVE_METRICS` over the thresholds of ``grid``."""
    report = sweep(dataset, grid, bins)
    taus = [p.tau for p in report.points]
    coverages = [p.coverage for p in report.points]
    curves = {
        name: {"tau": taus, "coverage": coverages, "value": [getattr(p, name) for p in report.points]}
        for name in CURVE_METRICS
    }
    return {
        **_report_head("sweep", dataset, bins, input_digest),
        "grid": {"start": grid.start, "end": grid.end, "step": grid.step},
        "aumcc_policy": AUMCC_POLICY,
        "curves": curves,
        "scalars": dict(report.scalars),
    }


def compare_report_doc(
    reports: Sequence[SweepReport], by: str, digests: Dict[str, str]
) -> Dict[str, object]:
    """Ranking document of several sweeps on one grid (fixed key order);
    ``digests`` maps each source id to its input digest."""
    ranking = rank(reports, by)
    grid = reports[0].grid
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "report_type": "compare",
        "by": by,
        "grid": {"start": grid.start, "end": grid.end, "step": grid.step},
        "ranking": [
            {"rank": i, "source_id": sid, f"auc_mcc_{by}": value}
            for i, (sid, value) in enumerate(ranking, start=1)
        ],
        "scalars_by_source": {r.source_id: dict(r.scalars) for r in reports},
        "input_digests": digests,
    }


def _format_number(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value, ".17g")


def _dump_value(value, out: List[str], indent: int) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, float):
        out.append(_format_number(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _dump_value(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items: List[str] = []
        for item in value:
            part: List[str] = []
            _dump_value(item, part, indent)
            items.append("".join(part))
        out.append("[" + ", ".join(items) + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_report(doc: Dict[str, object]) -> str:
    """Serialize a report with stable key order and 17-significant-digit
    floats; identical documents always yield identical bytes."""
    out: List[str] = []
    _dump_value(doc, out, 0)
    out.append("\n")
    return "".join(out)


def write_report(doc: Dict[str, object], path) -> None:
    Path(path).write_text(dumps_report(doc), encoding="utf-8")


# --------------------------------------------------------------------------
# Curve emission (CSV + SVG)


def write_curve_csv(curve: Dict[str, list], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tau", "coverage", "value"])
        for tau, cov, value in zip(curve["tau"], curve["coverage"], curve["value"]):
            writer.writerow([repr(float(tau)), repr(float(cov)), "" if value is None else repr(float(value))])


def curve_svg(metric_name: str, taus: Sequence[float], values: Sequence[Optional[float]]) -> str:
    """A minimal SVG line chart of metric value against threshold.

    Hand-emitted SVG 1.1: axes, threshold ticks, and one polyline per run
    of defined points, or a circle for a lone one.  No plotting dependency
    on purpose.
    """
    from xml.sax.saxutils import escape  # here: it imports urllib.request, which would slow every start

    width, height = 640, 420
    left, right, top, bottom = 64.0, 20.0, 32.0, 48.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    x_min, x_max = float(taus[0]), float(taus[-1])
    if x_max == x_min:
        x_min, x_max = x_min - 0.01, x_max + 0.01
    defined = [v for v in values if v is not None]
    if defined:
        y_min, y_max = min(defined), max(defined)
    else:
        y_min, y_max = 0.0, 1.0
    if y_max == y_min:
        y_min, y_max = y_min - 0.05, y_max + 0.05
    pad = 0.05 * (y_max - y_min)
    y_min, y_max = y_min - pad, y_max + pad

    def sx(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return top + (y_max - y) / (y_max - y_min) * plot_h

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(
        f'<text x="{left:.2f}" y="{top - 12:.2f}" font-family="monospace" '
        f'font-size="13">{escape(metric_name)}</text>'
    )
    axis = (
        f'<path d="M {left:.2f} {top:.2f} L {left:.2f} {top + plot_h:.2f} '
        f'L {left + plot_w:.2f} {top + plot_h:.2f}" stroke="black" fill="none"/>'
    )
    parts.append(axis)

    tick_count = min(6, len(taus))
    tick_idx = sorted({round(i * (len(taus) - 1) / max(tick_count - 1, 1)) for i in range(tick_count)})
    for i in tick_idx:
        x = sx(float(taus[i]))
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" x2="{x:.2f}" '
            f'y2="{top + plot_h + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" font-family="monospace" '
            f'font-size="10" text-anchor="middle">{taus[i]:g}</text>'
        )
    for j in range(5):
        y_val = y_min + j * (y_max - y_min) / 4
        y = sy(y_val)
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left:.2f}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{y + 3:.2f}" font-family="monospace" '
            f'font-size="10" text-anchor="end">{y_val:.3g}</text>'
        )

    for undefined, run in groupby(zip(taus, values), key=lambda point: point[1] is None):
        points = [f"{sx(float(tau)):.2f},{sy(float(value)):.2f}" for tau, value in run if not undefined]
        if len(points) > 1:
            parts.append(f'<polyline points="{" ".join(points)}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
        elif points:
            x, y = points[0].split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="#1f6fb2"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _check_curve(name: str, curve: object) -> None:
    """Raise ``ValueError`` unless ``curve`` holds ``tau``, ``coverage`` and ``value``
    lists of finite numbers (``value`` may hold null) of one shared, non-zero length.

    ``json.load`` accepts ``NaN`` and ``Infinity``, which no report holds.
    """
    if name in ("", ".", "..") or Path(name).name != name:  # it names the output files
        raise ValueError(f"curve name {name!r} is not a file name")
    if not isinstance(curve, dict):
        raise ValueError(f"curve {name!r} must be an object")
    for key in ("tau", "coverage", "value"):
        points = curve.get(key)
        if not isinstance(points, list) or not points or len(points) != len(curve["tau"]):
            raise ValueError(f"curve {name!r}: {key!r} must be a non-empty list as long as 'tau'")
        numbers = [v for v in points if not (key == "value" and v is None)]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in numbers):
            raise ValueError(f"curve {name!r}: {key!r} must hold numbers")
        if not all(map(_is_finite, numbers)):
            raise ValueError(f"curve {name!r}: {key!r} must hold finite numbers")


def _is_finite(number) -> bool:
    """Whether ``number`` is a finite float, or an int that converts to one."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def write_curves(report_doc: Dict[str, object], out_dir) -> List[Path]:
    """Emit one CSV and one SVG per metric curve of a sweep report."""
    if not isinstance(report_doc, dict) or report_doc.get("report_type") != "sweep":
        raise ValueError("curve emission needs a sweep report (report_type == 'sweep')")
    if not isinstance(report_doc.get("curves"), dict):
        raise ValueError("sweep report has no 'curves' object")
    for name, curve in report_doc["curves"].items():
        _check_curve(name, curve)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, curve in report_doc["curves"].items():
        csv_path = out_dir / f"{name}.csv"
        write_curve_csv(curve, csv_path)
        svg_path = out_dir / f"{name}.svg"
        svg_path.write_text(curve_svg(name, curve["tau"], curve["value"]), encoding="utf-8")
        written.extend([csv_path, svg_path])
    return written
