"""JSONL ingest split across CPUs.

:func:`read_jsonl_file` cuts a large JSONL file just past a LF into one
byte range per CPU the process may run on, at most one per
``_SPLIT_BYTES``, and reads the ranges at the same time: the calling
process reads the first, and a forked child reads each other with the
same :func:`~cwsa_eval.dataio._read_jsonl` and sends back its column
arrays, its line map and its fault.  Joined in file order, these are
what one reader of the whole file gives, so every ``file:line`` and
every fault is the same at any reader count.  The reader holds the
interpreter lock, so threads could not share the parsing.

Forking is safe only in a process running one thread, so off Linux and
beside a second thread the file is read by the calling process alone.
``dataio`` imports this module when it first reads a JSONL file.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import sys
import threading
from pathlib import Path
from signal import SIGKILL
from typing import List

from . import dataio, kernels

_SPLIT_BYTES = 1 << 22  # the fewest bytes per reader


class _ByteWindow(io.RawIOBase):
    """Bytes ``start`` to ``stop`` of the file open at ``fd``, read with
    ``os.pread``, so that readers sharing ``fd`` share no file offset."""

    def __init__(self, fd: int, start: int, stop: int) -> None:
        self._fd, self._at, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._stop - self._at), self._at)
        buffer[: len(data)] = data
        self._at += len(data)
        return len(data)


def _window_text(fd: int, start: int, stop: int) -> io.TextIOWrapper:
    """Bytes ``start`` to ``stop`` of the file open at ``fd``, decoded by
    :func:`~cwsa_eval.dataio._text`."""
    return dataio._text(io.BufferedReader(_ByteWindow(fd, start, stop)))


def _jsonl_workers(size: int) -> int:
    """Readers for a JSONL file of ``size`` bytes: one per CPU, at most one
    per ``_SPLIT_BYTES``, and one unless the process is a Linux process
    running one thread, where ``os.fork`` is safe."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return max(1, min(kernels._usable_cpus(), size // _SPLIT_BYTES))


def _line_cuts(raw, size: int, workers: int) -> List[int]:
    """The offsets just past the first LF at or after ``k * size // workers``
    for ``k`` from 1, without repeats, up to the first that reaches EOF."""
    cuts: List[int] = []
    for k in range(1, workers):
        raw.seek(k * size // workers)
        while (piece := raw.readline(dataio._SCAN_BLOCK)) and not piece.endswith(b"\n"):
            pass
        cut = raw.tell()
        if cut >= size:
            break
        if not cuts or cut > cuts[-1]:
            cuts.append(cut)
    return cuts


def _lines_before(fd: int, stop: int) -> int:
    """The line ends (LF, CRLF and lone CR) in the first ``stop`` bytes of
    the file open at ``fd``, counted ``dataio._SCAN_BLOCK`` bytes at a time."""
    lines, last = 0, b""
    for at in range(0, stop, dataio._SCAN_BLOCK):
        block = os.pread(fd, min(dataio._SCAN_BLOCK, stop - at), at)
        lines += block.count(b"\n")
        if b"\r" in block:  # a CR ends a line unless a LF follows it
            lines += block.count(b"\r") - block.count(b"\r\n")
        lines -= last + block[:1] == b"\r\n"  # a CRLF across the blocks' seam
        last = block[-1:]
    return lines


def _read_jsonl_range(path: Path, fd: int, start: int, stop: int, lines: int):
    """``(parts, skipped, fault)`` of bytes ``start`` to ``stop`` of a JSONL
    file, which begin after its ``lines``-th line end: ``skipped`` counts
    records from the range's first, and ``fault`` is the text of the
    :class:`~cwsa_eval.dataio.IngestError` that stopped the reading, or ``None``."""
    parts: List[tuple] = []
    skipped = [0] * lines
    try:
        with _window_text(fd, start, stop) as text:
            dataio._read_jsonl(path, text, parts, skipped)
    except dataio.IngestError as exc:
        return parts, skipped[lines:], str(exc)
    return parts, skipped[lines:], None


def _fork_reader(path: Path, fd: int, start: int, stop: int):
    """``(pid, read end of its pipe)`` of a forked child that counts the
    lines before ``start``, reads the range with :func:`_read_jsonl_range`
    and pickles its result into the pipe; ``None`` when no child starts."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)  # so that the pipe ends when the child exits
        return pid, os.fdopen(read_end, "rb")
    status = 1
    try:
        os.close(read_end)
        result = _read_jsonl_range(path, fd, start, stop, _lines_before(fd, start))
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # run none of the parent's cleanup, whatever was raised


def _reap(pid: int) -> None:
    """Wait for child ``pid`` to exit; where SIGCHLD is ignored, the system reaps it."""
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)


def read_jsonl_file(path: Path, parts: List[tuple], skipped: List[int]) -> None:
    """Read a JSONL file with :func:`~cwsa_eval.dataio._read_jsonl`, in
    ``_jsonl_workers`` byte ranges cut just past a LF, at the same time.

    This process reads the first range while a forked child reads each
    other.  The ranges are then joined in file order, up to the first that
    reports a fault, which is raised as that range's reader raised it, so
    ``parts``, ``skipped`` and the error are those of one reader of the
    whole file.  A range whose child died, or sent less than its whole
    result, is read here.  The file is opened once; every child is reaped,
    and killed first if this process raises.
    """
    with open(path, "rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        workers = _jsonl_workers(size)  # 1 for a pipe, whose size reads 0
        bounds = [0, *_line_cuts(raw, size, workers), size]
        if len(bounds) == 2:
            if workers > 1:
                raw.seek(0)  # back from the search for cuts
            with dataio._text(raw) as text:
                dataio._read_jsonl(path, text, parts, skipped)
            return
        fd = raw.fileno()
        ranges = list(zip(bounds, bounds[1:]))
        children = [_fork_reader(path, fd, start, stop) for start, stop in ranges[1:]]
        try:
            with _window_text(fd, 0, bounds[1]) as text:
                dataio._read_jsonl(path, text, parts, skipped)
            for k, (start, stop) in enumerate(ranges[1:]):
                result = None
                if children[k] is not None:
                    pid, pipe = children[k]
                    with pipe:
                        try:
                            result = pickle.load(pipe)
                        except (EOFError, pickle.UnpicklingError):  # cut short: the child died
                            pass
                    _reap(pid)
                    children[k] = None
                records = sum(len(part[0]) for part in parts)
                if result is None:
                    result = _read_jsonl_range(path, fd, start, stop, records + len(skipped))
                range_parts, range_skipped, fault = result
                parts.extend(range_parts)
                skipped.extend(records + count for count in range_skipped)
                if fault is not None:
                    raise dataio.IngestError(fault)
        except BaseException:
            for pid, _ in filter(None, children):
                os.kill(pid, SIGKILL)
            raise
        finally:
            # A child holds the read ends of the pipes made before it, so no
            # child is waited for before every read end here is closed.
            live = [child for child in children if child is not None]
            for _, pipe in live:
                pipe.close()
            for pid, _ in live:
                _reap(pid)
