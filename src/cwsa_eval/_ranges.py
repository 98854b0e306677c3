"""Reading a file in byte ranges at the same time, one forked reader per CPU.

:func:`read_ranges` cuts a file just past a LF into one byte range per
CPU the process may run on, at most one per ``_SPLIT_BYTES``, and reads
the ranges with a range reader the format passes in: the calling process
reads the first, and a forked child reads each other and pickles its
result back through a pipe.  A small file is one range, read in the
calling process.  ``dataio`` joins the results in file order, in one join
for both formats.  Each reader reads its own bytes of the one open file
with ``os.pread``, so readers share no file offset, and reads no byte
before its range: it numbers its own lines from 1, and the join adds the
lines of the ranges before.  So the engine knows no line end but the LF
it cuts after.  JSONL ranges are decoded and CSV ranges parsed by NumPy;
both hold the interpreter lock, so threads could not share the reading.

Forking is safe only in a process running one thread, so off Linux and
beside a second thread a file is one range.  The file must be a regular
file, whose size ``os.fstat`` gives: ``dataio`` copies a pipe to one
first.  ``dataio`` imports this module when it first reads a file.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import sys
import threading
from signal import SIGKILL
from typing import Callable, List

from . import kernels

_SPLIT_BYTES = 1 << 22  # the fewest bytes per reader
_LF_SEARCH = 1 << 16  # the most bytes read at a time in search of a LF
_DIED = object()  # the result of a child that sent less than its whole result


class _ByteWindow(io.RawIOBase):
    """Bytes ``start`` to ``stop`` of the file open at ``fd`` (a JSONL range, or all
    of a CSV file), read with ``os.pread``, so that readers share no file offset."""

    def __init__(self, fd: int, start: int, stop: int) -> None:
        self._fd, self._at, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._stop - self._at), self._at)
        buffer[: len(data)] = data
        self._at += len(data)
        return len(data)


def _workers(size: int) -> int:
    """Readers for a file of ``size`` bytes: one per CPU, at most one per
    ``_SPLIT_BYTES``, and one unless the process is a Linux process
    running one thread, where ``os.fork`` is safe."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return max(1, min(kernels._usable_cpus(), size // _SPLIT_BYTES))


def _past_lf(fd: int, at: int, stop: int) -> int:
    """The offset just past the first LF at or after ``at`` in the file
    open at ``fd``, or ``stop`` when none comes before it."""
    while at < stop:
        block = os.pread(fd, min(_LF_SEARCH, stop - at), at)
        if not block:
            break
        found = block.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(block)
    return stop


def _line_cuts(raw, size: int, workers: int) -> List[int]:
    """The offsets just past the first LF at or after ``k * size // workers``
    for ``k`` from 1, without repeats, up to the first that reaches EOF."""
    cuts: List[int] = []
    for k in range(1, workers):
        cut = _past_lf(raw.fileno(), k * size // workers, size)
        if cut >= size:
            break
        if not cuts or cut > cuts[-1]:
            cuts.append(cut)
    return cuts


def _fork_reader(read_range: Callable, fd: int, start: int, stop: int):
    """``(pid, read end of its pipe)`` of a forked child that pickles
    ``read_range(fd, start, stop)`` into the pipe; ``None`` when no child starts."""
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
        result = read_range(fd, start, stop)
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # run none of the parent's cleanup, whatever was raised


def _reap(pid: int) -> None:
    """Wait for child ``pid`` to exit; where SIGCHLD is ignored, the system reaps it."""
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)


def read_ranges(raw, read_range: Callable, join: Callable) -> None:
    """Read the regular file open as ``raw`` in ``_workers`` byte ranges
    cut just past a LF, at the same time, and pass each range's
    ``read_range(fd, start, stop)`` to ``join`` in file order.

    This process reads the first range, the whole file when it is one
    range, while a forked child reads each other.  A range whose child
    died, or sent less than its whole result, is read here.  ``join``
    stops the reading by raising, which this function raises on once every
    child is killed and reaped.
    """
    fd = raw.fileno()
    size = os.fstat(fd).st_size
    bounds = [0, *_line_cuts(raw, size, _workers(size)), size]
    ranges = list(zip(bounds, bounds[1:]))
    children = [_fork_reader(read_range, fd, start, stop) for start, stop in ranges[1:]]
    try:
        join(read_range(fd, *ranges[0]))
        for k, (start, stop) in enumerate(ranges[1:]):
            result = _DIED
            if children[k] is not None:
                pid, pipe = children[k]
                with pipe:
                    with contextlib.suppress(EOFError, pickle.UnpicklingError):  # cut short: the child died
                        result = pickle.load(pipe)
                _reap(pid)
                children[k] = None
            join(read_range(fd, start, stop) if result is _DIED else result)
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
