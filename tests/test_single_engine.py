"""The fork, kill and reap code of ingest and of the canonical CSV writer
lives in one module, the range engine that both file formats and the writer
share; the writer reaches it through the engine's range runner alone.  The
temporary file that NumPy parses each CSV piece from lives in one other,
``dataio``, which names no Linux-only file.  The engine uses nothing of
``dataio`` and keeps no line-end rule, and ``dataio`` writes the
``file:line`` of an error in one place for a reader's fault and one for a
record rule's.  ``dataio`` opens an input by path in one place and no
descriptor with ``open``, calls the engine's reader in one place, whose join
alone adds the lines before a range to a fault's line, and the engine reads
every file, one range or many, so it never declines one.  Every reader and
the writer's formatter yield one chunk at a time, which the join takes as it
comes."""

import ast
import inspect
from pathlib import Path

import pytest

import cwsa_eval
from cwsa_eval import dataio

PACKAGE = Path(cwsa_eval.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("needle", ["os.fork(", "SIGKILL"])
def test_one_module_forks_and_kills(needle):
    assert [path.name for path in SOURCES if needle in path.read_text()] == ["_ranges.py"]


@pytest.mark.parametrize("needle", ["TemporaryFile(", "np.loadtxt"])
def test_one_module_makes_a_scratch_file_for_numpy(needle):
    assert [path.name for path in SOURCES if needle in path.read_text()] == ["dataio.py"]


@pytest.mark.parametrize("needle", ["memfd_create", "/proc/self/fd/"])
def test_no_module_makes_a_linux_only_file(needle):
    assert [path.name for path in SOURCES if needle in path.read_text()] == []


def test_the_range_engine_uses_no_dataio_and_no_line_end_rule():
    source = (PACKAGE / "_ranges.py").read_text()
    assert "dataio." not in source
    assert "\\r" not in source


def test_one_file_line_format_per_fault_kind():
    assert (PACKAGE / "dataio.py").read_text().count('f"{path}:{') == 1


def test_dataio_checks_the_record_rules_in_one_place():
    tree = ast.parse((PACKAGE / "dataio.py").read_text())
    callers = [function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "_first_bad_record"]
    assert callers == ["_join"]


def test_dataio_opens_an_input_by_path_in_one_place():
    tree = ast.parse((PACKAGE / "dataio.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"]
    reads = [call for call in calls if not any(
        isinstance(arg, ast.Constant) and "w" in str(arg.value) for arg in call.args[1:2])]
    assert [ast.unparse(call.args[0]) for call in reads] == ["path"]


def test_dataio_joins_the_ranges_in_one_place():
    tree = ast.parse((PACKAGE / "dataio.py").read_text())
    engine_calls = [node for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "_ranges.read_ranges"]
    fault_lines = [node for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                   and any(isinstance(side, ast.Attribute) and side.attr == "line"
                           for side in (node.left, node.right))]
    assert len(engine_calls) == 1
    assert [ast.unparse(node) for node in fault_lines] == ["lines + fault.line"]


def test_the_range_engine_reads_every_file():
    assert "return False" not in (PACKAGE / "_ranges.py").read_text()


def test_the_writer_forks_only_through_the_range_engine():
    tree = ast.parse((PACKAGE / "dataio.py").read_text())
    writer = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "write_predictions_csv")
    calls = {ast.unparse(node.func) for node in ast.walk(writer) if isinstance(node, ast.Call)}
    assert {call for call in calls if call.startswith("_ranges.")} == {"_ranges._workers", "_ranges.run_ranges"}
    assert not {call for call in calls if call.startswith(("os.", "pickle."))}
    source = (PACKAGE / "dataio.py").read_text()
    assert not [name for name in ("os.fork", "os.kill", "os.waitpid", "os._exit", "os.pipe", "pickle")
                if name in source]


@pytest.mark.parametrize("name", ["_read_csv", "_read_csv_range", "_read_jsonl_range", "_csv_chunks"])
def test_every_reader_and_the_writer_yield_their_chunks(name):
    assert inspect.isgeneratorfunction(getattr(dataio, name))


@pytest.mark.parametrize("name", ["_read_jsonl", "_csv_rows", "_close_chunk", "_PROBS_CHUNK"])
def test_the_list_filling_reader_internals_are_gone(name):
    assert not hasattr(dataio, name)
