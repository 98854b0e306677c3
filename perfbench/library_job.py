"""The ``library-500k`` workload: one pass over the library's write side.

    python perfbench/library_job.py N SEED TAU OUT_DIR

Generates a calibrated set, attaches the benchmark's seeded credit column
through ``EvaluationSet``, writes it with ``write_predictions_csv``, then
takes the per-record gradient, the graded score and the full
risk-coverage curve.  ``OUT_DIR`` receives ``predictions.csv`` and
``summary.json``, which ``run.py`` checks against NumPy recomputations.
"""

import json
import math
import sys
from collections import Counter
from pathlib import Path

from cwsa_eval import (
    ArchetypeSpec,
    EvaluationSet,
    cwsa_generalized,
    cwsa_gradient,
    generate,
    risk_coverage_points,
    write_predictions_csv,
)
from inputs import library_credit


def main(argv):
    n, seed, tau, out = int(argv[0]), int(argv[1]), float(argv[2]), Path(argv[3])
    base = generate(ArchetypeSpec.for_kind("calibrated", n=n, seed=seed))
    ds = EvaluationSet(base.y_true, base.y_pred, base.confidence, library_credit(n, seed),
                       class_count=base.class_count, source_id=base.source_id)
    write_predictions_csv(ds, out / "predictions.csv")
    gradient = cwsa_gradient(ds, tau)
    graded = cwsa_generalized(ds, tau)
    curve = risk_coverage_points(ds)
    summary = {
        "gradient_count": len(gradient),
        "status_counts": dict(sorted(Counter(e.status for e in gradient).items())),
        "gradient_sum": math.fsum(e.value for e in gradient if e.value is not None),
        "cwsa_generalized": graded,
        "curve_count": len(curve),
        "curve_coverage_sum": math.fsum(p.coverage for p in curve),
        "curve_risk_sum": math.fsum(p.risk for p in curve),
    }
    (out / "summary.json").write_text(json.dumps(summary) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
