"""Tests of the benchmark itself, on tiny inputs.

    python -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs
import reference
import run
import tracer
from cwsa_eval import ingest

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_traced_layers_match_the_workload():
    proc = _bench(ROOT, "--workload", "compare-dense-grid", "--seed", "5", "--seconds", "0.5",
                  "--trace", "1", "--smoke")
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert metrics["metrics.point_metrics_calls"] == 4 * 1000
    assert metrics["kernels.point_accumulate_calls"] == 4 * 1000
    assert metrics["sweep.thresholds"] == 4 * 1000
    assert metrics["dataio.ingest_records"] == 4 * 1000
    assert metrics["baselines.sort_calls"] == 4 * 2
    assert metrics["sweep.rank_s"] > 0
    assert metrics["metrics.cwsa_gradient_s"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "evaluate-csv-1m", "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--smoke")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_expect_equal_is_exact_on_integers_and_tolerant_on_floats():
    expected = {"retained_count": 3, "coverage": 0.5, "ranking": [{"source_id": "a"}]}
    reference.expect_equal({"retained_count": 3, "coverage": 0.5 + 1e-12,
                            "ranking": [{"source_id": "a"}], "extra": 1}, expected)
    for wrong in ({"retained_count": 4}, {"retained_count": 3.0}, {"coverage": 0.5 + 1e-8},
                  {"ranking": [{"source_id": "b"}]}, {"ranking": []}):
        with pytest.raises(reference.CheckError):
            reference.expect_equal({**expected, **wrong}, expected)


def test_judge_rejects_a_report_that_changes_between_runs(tmp_path):
    job = run.Job(records=1, outputs=["report.json"], check=lambda out: None, args=list)
    judge = run.Judge(job)
    ok = run.Sample(1.0, 1.0, 1.0, 0, "")
    (tmp_path / "report.json").write_text("1\n")
    assert judge(ok, tmp_path, "first")
    (tmp_path / "report.json").write_text("2\n")
    assert not judge(ok, tmp_path, "second")
    assert not judge(run.Sample(1.0, 1.0, 1.0, 3, "boom"), tmp_path, "third")
    assert len(judge.failures) == 2


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        [1, "sweep", 0, 100, None, 1],
        [2, "point", 10, 50, 1, 2],  # two pool threads, overlapping
        [3, "point", 30, 70, 1, 3],
        [4, "kernel", 20, 40, 2, 2],
    ]
    times = tracer.self_times(spans)
    assert times["sweep"] == pytest.approx(40e-9)
    assert times["point"] == pytest.approx(60e-9)
    assert times["kernel"] == pytest.approx(20e-9)


def test_jsonl_input_ingests_to_the_generated_arrays(tmp_path):
    arrays = inputs.archetype("calibrated", 500, 9, class_count=10)
    path = tmp_path / "x.jsonl"
    path.write_text(inputs.jsonl_text(arrays, 9), encoding="utf-8")
    ds = ingest(path)
    assert np.array_equal(ds.y_true, arrays.y_true)
    assert np.array_equal(ds.y_pred, arrays.y_pred)
    assert np.array_equal(ds.confidence, arrays.confidence)


def test_pool_thread_spans_attribute_to_their_sweep(tmp_path):
    paths = []
    for kind in ("calibrated", "random"):
        paths.append(tmp_path / f"{kind}.csv")
        paths[-1].write_text(inputs.csv_text(inputs.archetype(kind, 300, 2)), encoding="utf-8")
    spans_path = tmp_path / "spans.json"
    env = run.child_env({"CWSA_EVAL_THREADS": "2"})
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans_path), "cli", "compare",
                    "--inputs", ",".join(map(str, paths)), "--by", "cwsa", "--grid", "0.5:0.9:0.1",
                    "--output", str(tmp_path / "ranking.json")],
                   env=env, check=True, capture_output=True, timeout=120)
    spans = json.loads(spans_path.read_text())["spans"]
    names = {span[0]: span[1] for span in spans}
    points = [span for span in spans if span[1] == "metrics.point_metrics"]
    assert len(points) == 2 * 5
    assert {names[span[4]] for span in points} == {"sweep.sweep"}
    assert len({span[5] for span in points} - {span[5] for span in spans if span[1] == "sweep.sweep"}) >= 1
