"""Expected report values, recomputed with plain NumPy, and the comparison.

The formulas follow the definitions in the project README: point metrics
over the records with ``confidence >= tau``, equal-width calibration bins
with the top bin closed, the top-1 Brier score, and risk-coverage areas
over a stable confidence-descending order.  Integers and orderings must
match exactly; floats within ``FLOAT_TOLERANCE`` relative to ``max(1, |x|)``,
since a kernel may legitimately change the summation order.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from inputs import Arrays

FLOAT_TOLERANCE = 1e-9
SCALAR_METRICS = ("cwsa", "cwsa_plus", "selective_accuracy")


class CheckError(AssertionError):
    """A report or output file disagrees with the recomputed value."""


def digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def grid_taus(start: float, end: float, step: float) -> List[float]:
    count = int(math.floor((end - start) / step + 1e-9)) + 1
    return [round(start + i * step, 10) for i in range(count)]


def points(a: Arrays, taus: List[float]) -> List[Dict[str, object]]:
    """Point metrics at each threshold, from one confidence-descending order."""
    order = np.argsort(-a.confidence, kind="stable")
    conf = a.confidence[order]
    neg_conf = -conf  # ascending, for searchsorted
    hit = a.correct[order].astype(np.float64)
    miss = 1.0 - hit
    hits = np.concatenate(([0], np.cumsum(a.correct[order], dtype=np.int64)))
    found = []
    for tau in taus:
        retained = int(np.searchsorted(neg_conf, -tau, side="right"))  # conf >= tau
        if retained == 0:
            found.append({"retained_count": 0, "coverage": 0.0, "selective_accuracy": None,
                          "cwsa": 0.0, "cwsa_plus": 0.0})
            continue
        weight = (conf[:retained] - tau) / (1.0 - tau)
        s_correct = float(weight @ hit[:retained])
        s_wrong = float(weight @ miss[:retained])
        found.append({
            "retained_count": retained,
            "coverage": retained / len(a),
            "selective_accuracy": int(hits[retained]) / retained,
            "cwsa": (s_correct - s_wrong) / retained,
            "cwsa_plus": s_correct / retained,
        })
    return found


def baselines(a: Arrays, bin_count: int) -> Dict[str, float]:
    n = len(a)
    conf = a.confidence
    correct = a.correct.astype(np.float64)
    idx = np.minimum((conf * bin_count).astype(np.int64), bin_count - 1)
    counts = np.bincount(idx, minlength=bin_count)
    used = counts > 0
    acc = np.bincount(idx, weights=correct, minlength=bin_count)[used] / counts[used]
    mean_conf = np.bincount(idx, weights=conf, minlength=bin_count)[used] / counts[used]
    gaps = np.abs(acc - mean_conf)

    order = np.argsort(-conf, kind="stable")
    k = np.arange(1, n + 1, dtype=np.float64)
    risks = np.cumsum(1.0 - correct[order]) / k
    oracle = np.maximum(0.0, k - correct.sum()) / k
    return {
        "ece": float(np.sum(counts[used] / n * gaps)),
        "mce": float(gaps.max()),
        "brier": float(np.mean((conf - correct) ** 2)),
        "aurc": float(risks.mean()),
        "eaurc": float(risks.mean() - oracle.mean()),
    }


def curve_area(coverage: List[float], values: List[Optional[float]]) -> Optional[float]:
    """Mean height of the value-coverage curve; equal coverages averaged first."""
    groups: Dict[float, List[float]] = {}
    for c, v in zip(coverage, values):
        if v is not None:
            groups.setdefault(c, []).append(v)
    pts = [(c, sum(vs) / len(vs)) for c, vs in sorted(groups.items())]
    if not pts:
        return None
    if len(pts) == 1:
        return pts[0][1]
    area = sum((v0 + v1) * 0.5 * (c1 - c0) for (c0, v0), (c1, v1) in zip(pts, pts[1:]))
    return area / (pts[-1][0] - pts[0][0])


def sweep(a: Arrays, taus: List[float], bin_count: int):
    """(curves, scalars) of a sweep report over ``taus``."""
    pts = points(a, taus)
    cov = [p["coverage"] for p in pts]
    curves = {
        name: {"tau": taus, "coverage": cov, "value": [p[name] for p in pts]}
        for name in SCALAR_METRICS
    }
    curves["coverage"] = {"tau": taus, "coverage": cov, "value": cov}
    scalars = {f"auc_mcc_{m}": curve_area(cov, curves[m]["value"]) for m in SCALAR_METRICS}
    scalars.update(baselines(a, bin_count))
    return curves, scalars


def _header(a: Arrays, path: Path, kind: str, bin_count: int) -> Dict[str, object]:
    return {
        "report_type": kind,
        "source_id": path.name,
        "input_digest": digest(path),
        "record_count": len(a),
        "class_count": int(max(a.y_true.max(), a.y_pred.max())) + 1,
        "bin_count": bin_count,
    }


def sweep_report(a: Arrays, path: Path, start: float, end: float, step: float, bin_count: int):
    curves, scalars = sweep(a, grid_taus(start, end, step), bin_count)
    doc = _header(a, path, "sweep", bin_count)
    doc.update(grid={"start": start, "end": end, "step": step}, curves=curves, scalars=scalars)
    return doc


def point_report(a: Arrays, path: Path, tau: float, bin_count: int):
    doc = _header(a, path, "point", bin_count)
    doc.update(tau=tau, **points(a, [tau])[0], baselines=baselines(a, bin_count))
    return doc


def compare_report(inputs: Dict[Path, Arrays], by: str, start: float, end: float, step: float,
                   bin_count: int):
    taus = grid_taus(start, end, step)
    scalars = {path.name: sweep(a, taus, bin_count)[1] for path, a in inputs.items()}
    key = f"auc_mcc_{by}"
    order = sorted(scalars, key=lambda s: (scalars[s][key] is None, -(scalars[s][key] or 0.0), s))
    return {
        "report_type": "compare",
        "by": by,
        "grid": {"start": start, "end": end, "step": step},
        "ranking": [{"rank": i + 1, "source_id": s, key: scalars[s][key]} for i, s in enumerate(order)],
        "scalars_by_source": scalars,
        "input_digests": {path.name: digest(path) for path in inputs},
    }


def library_summary(a: Arrays, credit: np.ndarray, tau: float) -> Dict[str, object]:
    """What ``library_job.py`` reports: gradient statuses and sum, the graded
    score and the risk-coverage curve, all at ``tau``."""
    n = len(a)
    kept = a.confidence >= tau
    interior = a.confidence > tau
    retained = int(kept.sum())
    statuses = {"abstained": n - retained, "interior": int(interior.sum()),
                "kink": retained - int(interior.sum())}
    signs = np.where(a.correct, 1, -1)
    weight = (a.confidence[kept] - tau) / (1.0 - tau)
    return {
        "gradient_count": n,
        "status_counts": {k: v for k, v in statuses.items() if v},
        "gradient_sum": int(signs[interior].sum()) / (retained * (1.0 - tau)),
        "cwsa_generalized": float(np.sum(weight * (2.0 * credit[kept] - 1.0))) / retained,
        "curve_count": n,
        "curve_coverage_sum": (n + 1) / 2,
        "curve_risk_sum": baselines(a, 1)["aurc"] * n,
    }


def expect_equal(actual, expected, where: str = "report") -> None:
    """Raise :class:`CheckError` unless ``actual`` matches ``expected``.

    Dicts are compared on the expected keys only; extra keys in the report
    are not checked.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            raise CheckError(f"{where}: expected an object, got {actual!r}")
        for key, value in expected.items():
            if key not in actual:
                raise CheckError(f"{where}: missing key {key!r}")
            expect_equal(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, (list, tuple)):
        if not isinstance(actual, list) or len(actual) != len(expected):
            raise CheckError(f"{where}: expected {len(expected)} items, got {actual!r:.200}")
        for i, (x, y) in enumerate(zip(actual, expected)):
            expect_equal(x, y, f"{where}[{i}]")
    elif isinstance(expected, float):
        # 17-digit output writes integral floats without a point, so an int
        # is a valid float here.
        ok = isinstance(actual, (int, float)) and not isinstance(actual, bool) and (
            abs(actual - expected) <= FLOAT_TOLERANCE * max(1.0, abs(expected))
        )
        if not ok:
            raise CheckError(f"{where}: expected {expected!r}, got {actual!r}")
    elif type(actual) is not type(expected) or actual != expected:
        raise CheckError(f"{where}: expected {expected!r}, got {actual!r}")
