"""The fork, kill and reap code of ingest lives in one module, the range
engine that both file formats share, and the in-memory file that NumPy
parses a CSV piece from in one other, ``dataio``."""

from pathlib import Path

import pytest

import cwsa_eval

SOURCES = sorted(Path(cwsa_eval.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("needle", ["os.fork(", "SIGKILL"])
def test_one_module_forks_and_kills(needle):
    assert [path.name for path in SOURCES if needle in path.read_text()] == ["_ranges.py"]


@pytest.mark.parametrize("needle", ["memfd_create", "/proc/self/fd/"])
def test_one_module_makes_an_in_memory_file(needle):
    assert [path.name for path in SOURCES if needle in path.read_text()] == ["dataio.py"]
