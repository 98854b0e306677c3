"""Working ranges of an input or an output at the same time, one forked worker per CPU.

The work of a range yields one bounded chunk at a time.  :func:`run_ranges`
works the first range in this process, joining each chunk as it is made,
and each other in a forked child, whose chunks come back as one pickled list
through a pipe (the work holds the interpreter lock, so threads could not
share it), and joins the ranges in order; a range whose child died is worked
here, chunk by chunk.  Forking is safe only in a process running one thread,
so off Linux and beside a second thread :func:`_workers` gives one range.

Readers read through ``pread(n, at)``, sharing no file offset: a file's
``os.pread``, or a :class:`_Pipe`, which copies a pipe into a spool only as
far as a read reaches.  A file is one byte region, a pipe a run of regions,
each spooled before it is read, so that no forked reader reads the pipe and
a fault the join raises stops the copy.  :func:`read_ranges` cuts a region
just past a LF into one range per CPU, at most one per ``_SPLIT_BYTES``.  A
reader numbers the lines of each chunk from 1, and ``dataio``'s one join adds
the lines before, so the engine knows no line end but the LF it cuts after.
``dataio``'s canonical CSV writer splits its records evenly into as many
ranges as ``_workers`` gives for the bytes of its columns, and writes each
chunk's bytes as it comes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import pickle
import sys
import threading
from signal import SIGKILL
from typing import Callable, List, Optional

from . import kernels

_SPLIT_BYTES = 1 << 22  # the fewest bytes per worker
_FIRST_REGION = 1 << 20  # the most bytes of a pipe spooled before its first region is read
_LF_SEARCH = 1 << 16  # the most bytes read at a time in search of a LF
_PULL_BYTES = 1 << 16  # the most bytes copied from a pipe at a time


class _ByteWindow(io.RawIOBase):
    """Bytes ``start`` to ``stop``, or to the end when ``None``, read by ``pread``."""

    def __init__(self, pread: Callable, start: int, stop: Optional[int]) -> None:
        self._pread, self._at, self._stop = pread, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        want = len(buffer) if self._stop is None else min(len(buffer), self._stop - self._at)
        data = self._pread(want, self._at)
        buffer[: len(data)] = data
        self._at += len(data)
        return len(data)


class _Pipe:
    """``pread(n, at)`` of the pipe open at ``fd``, from ``spool``, a temporary file
    that the pipe is copied into ``_PULL_BYTES`` at a time as far as a read reaches."""

    def __init__(self, fd: int, spool) -> None:
        self._fd, self._spool, self._size, self._ended = fd, spool, 0, False

    def __call__(self, n: int, at: int) -> bytes:
        self._pull(at + n)
        return os.pread(self._spool.fileno(), n, at)

    def _pull(self, stop: int) -> int:
        """The spool's size, once it holds the pipe up to byte ``stop`` or its end."""
        while self._size < stop and not self._ended:
            block = os.read(self._fd, min(_PULL_BYTES, stop - self._size))
            self._ended = not block
            self._size += self._spool.write(block)
        self._spool.flush()  # os.pread reads the spool
        return self._size

    def regions(self):
        """``(lo, hi)`` of each byte region of the pipe in file order, spooled before it
        is given; one the pipe goes on past ends past its last LF, or else the first after."""
        lo, want = 0, _FIRST_REGION
        while True:
            hi = min(self._pull(lo + want), lo + want)
            if hi == lo + want:
                hi = _past_last_lf(self, lo, hi) or _past_lf(self, hi, None)
            yield lo, hi
            lo, want = hi, _SPLIT_BYTES * (kernels._usable_cpus() + 1)  # cut back to a LF, still a share per CPU
            if self._pull(lo + 1) == lo:  # the pipe ended with the region
                return


def _workers(size: int) -> int:
    """Workers for ``size`` bytes: one per CPU, at most one per ``_SPLIT_BYTES``, and
    one unless the process is a Linux process running one thread, where ``os.fork`` is safe."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return max(1, min(kernels._usable_cpus(), size // _SPLIT_BYTES))


def _past_lf(pread: Callable, at: int, stop: Optional[int]) -> int:
    """The offset just past the first LF at or after ``at``, or else ``stop`` (the end when ``None``)."""
    while stop is None or at < stop:
        block = pread(_LF_SEARCH if stop is None else min(_LF_SEARCH, stop - at), at)
        if not block:
            break
        found = block.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(block)
    return at if stop is None else stop


def _past_last_lf(pread: Callable, lo: int, hi: int) -> Optional[int]:
    """The offset just past the last LF in bytes ``lo`` to ``hi``, read back from ``hi``, or ``None``."""
    while hi > lo:
        at = max(lo, hi - _LF_SEARCH)
        found = pread(hi - at, at).rfind(b"\n")
        if found >= 0:
            return at + found + 1
        hi = at
    return None


def _line_cuts(pread: Callable, region, workers: int) -> List[int]:
    """The offsets just past the first LF at or after ``lo + k * (hi - lo) // workers``
    in the region ``(lo, hi)`` for ``k`` from 1, without repeats, up to the first that reaches ``hi``."""
    lo, hi = region
    cuts: List[int] = []
    for k in range(1, workers):
        cut = _past_lf(pread, lo + k * (hi - lo) // workers, hi)
        if cut >= hi:
            break
        if not cuts or cut > cuts[-1]:
            cuts.append(cut)
    return cuts


def _fork(work: Callable, start: int, stop: int):
    """``(pid, read end of its pipe)`` of a forked child that pickles the list
    of the chunks of ``work(start, stop)`` into the pipe; ``None`` when no child starts."""
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
        chunks = list(work(start, stop))
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(chunks, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # run none of the parent's cleanup, whatever was raised


def _reap(pid: int) -> None:
    """Wait for child ``pid`` to exit; where SIGCHLD is ignored, the system reaps it."""
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)


def read_ranges(pread: Callable, region, read_range: Callable, join: Callable) -> None:
    """Read the byte region ``(lo, hi)``, which starts a line and is spooled if
    piped, in ``_workers`` ranges cut just past a LF, and pass each chunk of each
    range's ``read_range(pread, start, stop)`` to ``join`` in file order, by :func:`run_ranges`."""
    lo, hi = region
    bounds = [lo, *_line_cuts(pread, region, _workers(hi - lo)), hi]
    run_ranges(list(zip(bounds, bounds[1:])), functools.partial(read_range, pread), join)


def run_ranges(ranges, work: Callable, join: Callable) -> None:
    """Pass each chunk of ``work(start, stop)``, an iterable, of each ``(start, stop)``
    of ``ranges`` to ``join`` in order, the ranges worked at the same time.

    This process works the first range, each chunk joined as soon as it is
    made, while a forked child works each other; a range whose child died, or
    sent less than its whole list of chunks, is worked here.  ``join`` stops
    the work by raising, which this function raises on once every child is
    killed and reaped."""
    children = [None] + [_fork(work, start, stop) for start, stop in ranges[1:]]
    try:
        for k, (start, stop) in enumerate(ranges):
            chunks = None  # until a child sends its whole list
            if children[k] is not None:
                pid, pipe = children[k]
                with pipe:
                    with contextlib.suppress(EOFError, pickle.UnpicklingError):  # cut short: the child died
                        chunks = pickle.load(pipe)
                _reap(pid)
                children[k] = None
            for chunk in work(start, stop) if chunks is None else chunks:
                join(chunk)
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
