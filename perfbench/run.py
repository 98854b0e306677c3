"""End-to-end benchmark of the cwsa-eval CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the package is imported from ``src/`` next to this
directory, with nothing built or installed.  Each workload runs as a
fresh child process with every ``CWSA_EVAL_*`` variable cleared unless the
workload sets it.  Inputs are generated from ``--seed`` before any timing
and cached under ``perfbench/_work/``.

``--trace 0`` runs the workload repeatedly (at least ``MIN_REPS`` runs,
then as many as fit in ``--seconds`` of child wall time) and reports the
end-to-end metrics: medians of the children's wall time, CPU time and
own peak RSS (``os.wait4``), records per second, and ``setup_s``, the
median of children that only import the package (``SETUP_PER_RUN``
after each workload run).

``--trace 1`` alternates untraced and traced runs (``tracer.py``) for the
same time and reports the per-layer metrics: the median self time of
each traced layer, the counts taken at the same wrappers, the traced
run's total (``cli.main_s``) and the tracing overhead.

Every run's outputs are checked against NumPy recomputations
(``reference.py``) and must be byte-identical to every other run of the
workload, traced or not.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
with the samples, the failures, ``failed_frac`` and the environment
(kernel backend, NumPy and Python versions, ``nproc``, the ``CWSA_EVAL_*``
values the children saw) is written to ``perfbench/_work/results/``.
``--smoke`` shrinks every input to a few thousand records, for the
benchmark's own tests (``python -m pytest perfbench/tests``).  The
figures of the seed commit are in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import inputs
    import reference
    import tracer
    from reference import CheckError, expect_equal
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the package from {SRC}: {exc}")

MIN_REPS = 3
SETUP_PER_RUN = 2
CHILD_TIMEOUT_S = 150.0
LIBRARY_TAU = 0.7

END_TO_END = {
    "wall_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "dataio.ingest_s": "s",
    "dataio.ingest_records": "count",
    "dataio.file_digest_s": "s",
    "dataio.report_doc_s": "s",
    "dataio.write_report_s": "s",
    "dataio.write_predictions_csv_s": "s",
    "core.evaluation_set_s": "s",
    "kernels.point_accumulate_s": "s",
    "kernels.point_accumulate_calls": "count",
    "kernels.credit_accumulate_s": "s",
    "metrics.point_metrics_s": "s",
    "metrics.point_metrics_calls": "count",
    "metrics.cwsa_generalized_s": "s",
    "metrics.cwsa_gradient_s": "s",
    "synthgen.generate_s": "s",
    "baselines.aurc_s": "s",
    "baselines.eaurc_s": "s",
    "baselines.risk_coverage_points_s": "s",
    "baselines.sort_calls": "count",
    "baselines.ece_s": "s",
    "baselines.mce_s": "s",
    "baselines.bin_calls": "count",
    "baselines.brier_s": "s",
    "sweep.sweep_s": "s",
    "sweep.thresholds": "count",
    "sweep.rank_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Job:
    """One workload, ready to run: its child command, inputs and output check.

    The child runs ``script`` with ``args(out)``, or the CLI when ``script``
    is None; traced children run the same command under ``tracer.py``.
    """

    records: int
    outputs: List[str]
    check: Callable[[Path], None]
    args: Callable[[Path], List[str]]
    script: Optional[Path] = None
    env: Dict[str, str] = field(default_factory=dict)

    def command(self, out: Path, spans: Optional[Path] = None) -> List[str]:
        traced = [] if spans is None else [str(BENCH / "tracer.py"), str(spans)]
        if self.script is None:
            head = [*traced, "cli"] if traced else ["-m", "cwsa_eval.cli"]
        else:
            head = [*traced, "script", str(self.script)] if traced else [str(self.script)]
        return [sys.executable, *head, *self.args(out)]


def _check_report(expected: dict, name: str) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        expect_equal(json.loads((out / name).read_text(encoding="utf-8")), expected, name)

    return check


def _csv_input(kind: str, n: int, seed: int):
    arrays = inputs.archetype(kind, n, seed)
    path = inputs.cached_file(WORK / "inputs", f"{kind}-n{n}-s{seed}.csv",
                              lambda: inputs.csv_text(arrays))
    return path, arrays


def evaluate_csv(seed: int, smoke: bool) -> Job:
    n = 2_000 if smoke else 1_000_000
    path, arrays = _csv_input("calibrated", n, seed)
    expected = reference.sweep_report(arrays, path, 0.5, 0.99, 0.01, 15)
    return Job(
        records=n,
        outputs=["report.json"],
        check=_check_report(expected, "report.json"),
        args=lambda out: ["evaluate", "--input", str(path), "--output", str(out / "report.json")],
    )


def evaluate_jsonl(seed: int, smoke: bool) -> Job:
    n = 2_000 if smoke else 300_000
    arrays = inputs.archetype("calibrated", n, seed, class_count=10)
    path = inputs.cached_file(WORK / "inputs", f"calibrated10-n{n}-s{seed}.jsonl",
                              lambda: inputs.jsonl_text(arrays, seed))
    expected = reference.point_report(arrays, path, 0.7, 15)
    return Job(
        records=n,
        outputs=["report.json"],
        check=_check_report(expected, "report.json"),
        args=lambda out: ["evaluate", "--input", str(path), "--tau", "0.7",
                              "--output", str(out / "report.json")],
    )


def compare_dense(seed: int, smoke: bool) -> Job:
    n = 1_000 if smoke else 100_000
    files = dict(_csv_input(kind, n, seed)
                 for kind in ("calibrated", "overconfident", "underconfident", "random"))
    expected = reference.compare_report(files, "cwsa_plus", 0.0, 0.999, 0.001, 15)
    joined = ",".join(str(p) for p in files)
    return Job(
        records=n * len(files),
        outputs=["ranking.json"],
        check=_check_report(expected, "ranking.json"),
        args=lambda out: ["compare", "--inputs", joined, "--by", "cwsa_plus",
                              "--grid", "0.0:0.999:0.001", "--output", str(out / "ranking.json")],
        env={"CWSA_EVAL_THREADS": "2"},
    )


def library(seed: int, smoke: bool) -> Job:
    n = 2_000 if smoke else 500_000
    tau = LIBRARY_TAU
    arrays = inputs.archetype("calibrated", n, seed)
    credit = inputs.library_credit(n, seed)
    expected = reference.library_summary(arrays, credit, tau)

    def check(out: Path) -> None:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        expect_equal(summary, expected, "summary.json")
        if set(summary["status_counts"]) != set(expected["status_counts"]):
            raise CheckError(f"summary.json: status counts {summary['status_counts']}")
        csv_path = out / "predictions.csv"
        with open(csv_path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        if header != "y_true,y_pred,confidence,credit":
            raise CheckError(f"predictions.csv: header {header!r}")
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        for i, (name, column) in enumerate(
            [("y_true", arrays.y_true), ("y_pred", arrays.y_pred), ("confidence", arrays.confidence),
             ("credit", credit)]
        ):
            if table.shape != (n, 4) or not np.array_equal(table[:, i], column):
                raise CheckError(f"predictions.csv: column {name} does not read back")

    return Job(
        records=n,
        outputs=["predictions.csv", "summary.json"],
        check=check,
        args=lambda out: [str(n), str(seed), repr(tau), str(out)],
        script=BENCH / "library_job.py",
    )


# Why each workload: see the ``why`` fields of BENCHMARK.json.
WORKLOADS = {
    "evaluate-csv-1m": evaluate_csv,
    "evaluate-jsonl-point": evaluate_jsonl,
    "compare-dense-grid": compare_dense,
    "library-500k": library,
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


def child_env(extra: Dict[str, str]) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CWSA_EVAL_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def spawn(argv: List[str], env: Dict[str, str]) -> Sample:
    """Run one child; time it from spawn to exit and take its own rusage."""
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")[-2000:]
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, stderr)


class Judge:
    """Checks each run's outputs once per distinct content, and requires
    every run of the workload to write the same bytes."""

    def __init__(self, job: Job) -> None:
        self.job = job
        self.verdicts: Dict[str, Optional[str]] = {}
        self.accepted: Optional[str] = None
        self.failures: List[str] = []

    def __call__(self, sample: Sample, out: Path, label: str) -> bool:
        error = None
        if sample.returncode != 0:
            error = f"exit code {sample.returncode}: {sample.stderr.strip()}"
        else:
            content = hashlib.sha256()
            for name in self.job.outputs:
                content.update((out / name).read_bytes())
            key = content.hexdigest()
            if key not in self.verdicts:
                try:
                    self.job.check(out)
                    self.verdicts[key] = None
                except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
                    self.verdicts[key] = f"output check failed: {exc}"
            error = self.verdicts[key]
            if error is None and self.accepted not in (None, key):
                error = "output bytes differ from an earlier run"
            if error is None:
                self.accepted = key
        if error:
            self.failures.append(f"{label}: {error}")
        return error is None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def keep_going(walls: List[float], seconds: float, minimum: int) -> bool:
    """True until ``minimum`` runs are made and one more typical run would
    overrun ``seconds`` of measured time."""
    return len(walls) < minimum or sum(walls) + statistics.median(walls) <= seconds


def measure(job: Job, env: Dict[str, str], seconds: float, judge: Judge) -> dict:
    version = [sys.executable, "-m", "cwsa_eval.cli", "--version"]
    spawn(version, env)  # warms the file cache and writes the bytecode cache
    runs, setup, spent = [], [], []
    while keep_going(spent, seconds, MIN_REPS):
        out = fresh_dir(WORK / "out" / "plain")
        runs.append(spawn(job.command(out), env))
        judge(runs[-1], out, f"run {len(runs)}")
        # Set-up probes are spread over the run, so that they sample the
        # same stretch of machine time as the workload.
        probes = [spawn(version, env) for _ in range(SETUP_PER_RUN)]
        for probe in probes:
            if probe.returncode != 0:
                judge.failures.append(f"set-up probe: exit code {probe.returncode}")
        setup.extend(probes)
        spent.append(runs[-1].wall_s + sum(p.wall_s for p in probes))
    wall = statistics.median(s.wall_s for s in runs)
    metrics = {
        "wall_s": wall,
        "records_per_s": job.records / wall,
        "cpu_s": statistics.median(s.cpu_s for s in runs),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in runs),
        "setup_s": statistics.median(s.wall_s for s in setup),
    }
    return {"metrics": metrics, "attempted": len(runs) + len(setup), "runs": runs, "setup": setup}


def layer_values(spans_doc: dict) -> Dict[str, float]:
    values = {name: 0 for name in PER_LAYER}
    for name, seconds in tracer.self_times(spans_doc["spans"]).items():
        if f"{name}_s" in values:
            values[f"{name}_s"] = seconds
    for name, count in spans_doc["counts"].items():
        if name in values:
            values[name] = count
    values["cli.main_s"] = tracer.root_seconds(spans_doc["spans"])
    return values


def measure_traced(job: Job, env: Dict[str, str], seconds: float, judge: Judge) -> dict:
    plain, traced, layers = [], [], []
    while keep_going([a.wall_s + b.wall_s for a, b in zip(plain, traced)], seconds, 1):
        out = fresh_dir(WORK / "out" / "plain")
        plain.append(spawn(job.command(out), env))
        judge(plain[-1], out, f"untraced run {len(plain)}")
        out = fresh_dir(WORK / "out" / "traced")
        spans = WORK / "out" / "spans.json"
        traced.append(spawn(job.command(out, spans), env))
        if judge(traced[-1], out, f"traced run {len(traced)}"):
            layers.append(layer_values(json.loads(spans.read_text(encoding="utf-8"))))
    metrics = {name: statistics.median_low(v[name] for v in layers) if layers else 0
               for name in PER_LAYER}
    metrics["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                   - statistics.median(s.wall_s for s in plain))
    return {"metrics": metrics, "attempted": len(plain) + len(traced),
            "runs": plain, "traced_runs": traced}


def environment(env: Dict[str, str]) -> dict:
    probe = ("import json, platform, numpy, cwsa_eval; print(json.dumps({"
             "'kernel_backend': getattr(cwsa_eval, 'KERNEL_BACKEND', None), "
             "'numpy': numpy.__version__, 'python': platform.python_version()}))")
    found = json.loads(subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                                      capture_output=True, text=True, check=True,
                                      timeout=CHILD_TIMEOUT_S).stdout)
    found["nproc"] = len(os.sched_getaffinity(0))
    found["cwsa_eval_env"] = {k: v for k, v in sorted(env.items()) if k.startswith("CWSA_EVAL_")}
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    job = WORKLOADS[args.workload](args.seed, args.smoke)
    env = child_env(job.env)
    judge = Judge(job)
    if args.trace:
        result = measure_traced(job, env, args.seconds, judge)
        units = PER_LAYER
    else:
        result = measure(job, env, args.seconds, judge)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(env),
        "failures": judge.failures,
        "failed_frac": len(judge.failures) / result["attempted"],
        "metrics": result["metrics"],
        "samples": {k: [vars(s) for s in v] for k, v in result.items()
                    if k in ("runs", "traced_runs", "setup")},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(WORK / "out", ignore_errors=True)

    for failure in judge.failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({
        "correct": not judge.failures,
        "attempted": result["attempted"],
        "failed": len(judge.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
