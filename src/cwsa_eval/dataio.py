"""Prediction-file ingestion, report serialization and SVG curve emission.

Formats
-------
* CSV: header row mandatory (``y_true,y_pred,confidence`` plus optional
  ``credit``), comma delimiter, UTF-8, LF line endings.  The canonical
  output format for synthetic sets.
* JSONL: one object per line with the same keys, plus an optional
  ``probs`` vector that is reduced to (argmax, max) when the explicit
  fields are absent.  The canonical format for real-model dumps.
* Report JSON: fixed key order and fixed float formatting (17 significant
  digits, round-trip exact), so identical inputs produce byte-identical
  reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ._version import TOOL_NAME, __version__
from .baselines import BinningSpec, baseline_scalars
from .core import EvaluationSet
from .metrics import point_metrics
from .sweep import SweepReport

__all__ = [
    "IngestError",
    "ingest",
    "write_predictions_csv",
    "file_digest",
    "point_report_doc",
    "sweep_report_doc",
    "dumps_report",
    "write_report",
    "write_curves",
    "curve_svg",
]

PROBS_TOLERANCE = 1e-6
# Labels are stored as int64.
MAX_LABEL = int(np.iinfo(np.int64).max)

AUMCC_POLICY = (
    "trapezoid over coverage ascending; duplicate coverages averaged; "
    "undefined points excluded; normalized by the spanned coverage"
)


class IngestError(ValueError):
    """A prediction file could not be parsed or failed validation."""


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise IngestError(f"{path}: cannot infer format from suffix {suffix!r}; pass format explicitly")


def _parse_label(raw: object, name: str, where: str) -> int:
    if isinstance(raw, bool):
        raise IngestError(f"{where}: {name} must be an integer, got {raw!r}")
    if isinstance(raw, int):
        value = raw
    elif isinstance(raw, float) and raw.is_integer():
        value = int(raw)
    elif isinstance(raw, str):
        try:
            value = int(raw.strip())
        except ValueError:
            raise IngestError(f"{where}: {name} must be an integer, got {raw!r}") from None
    else:
        raise IngestError(f"{where}: {name} must be an integer, got {raw!r}")
    if value < 0:
        raise IngestError(f"{where}: {name} must be non-negative, got {value}")
    if value > MAX_LABEL:
        raise IngestError(f"{where}: {name} {value} exceeds the largest label {MAX_LABEL}")
    return value


def _parse_fraction(raw: object, name: str, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise IngestError(f"{where}: {name} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except (ValueError, OverflowError):
        raise IngestError(f"{where}: {name} must be a number, got {raw!r}") from None
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise IngestError(f"{where}: {name} {raw!r} outside [0, 1]")
    return value


def _not_utf8(path: Path) -> IngestError:
    """The error for a file that is not UTF-8, naming its first bad line.

    Called only once decoding has failed, so valid files are read once;
    the line is found by re-reading the file in binary.
    """
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return IngestError(f"{path}:{line_no}: not valid UTF-8 ({exc.reason})")
    return IngestError(f"{path}: not valid UTF-8")


def _csv_rows(reader, path: Path):
    """The rows of ``reader``, with ``csv.Error`` turned into an :class:`IngestError`."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None


def _rows_from_csv(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        columns = {name.strip(): i for i, name in enumerate(header)}
        for required in ("y_true", "y_pred", "confidence"):
            if required not in columns:
                raise IngestError(f"{path}: missing required column {required!r}")
        credit_col = columns.get("credit")

        required_width = max(columns[c] for c in ("y_true", "y_pred", "confidence")) + 1
        for line_no, row in enumerate(rows, start=2):
            if not row:
                continue
            where = f"{path}:{line_no}"
            if len(row) < required_width:
                raise IngestError(f"{where}: expected {required_width} columns, got {len(row)}")
            y_true = _parse_label(row[columns["y_true"]], "y_true", where)
            y_pred = _parse_label(row[columns["y_pred"]], "y_pred", where)
            conf = _parse_fraction(row[columns["confidence"]], "confidence", where)
            credit = None
            if credit_col is not None and credit_col < len(row) and row[credit_col].strip():
                credit = _parse_fraction(row[credit_col], "credit", where)
            yield y_true, y_pred, conf, credit


def _reduce_probs(obj: dict, where: str):
    """Apply the argmax reduction for rows carrying a ``probs`` vector."""
    probs = obj["probs"]
    if not isinstance(probs, list) or not probs:
        raise IngestError(f"{where}: probs must be a non-empty list of numbers")
    for p in probs:
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise IngestError(f"{where}: probs must be a non-empty list of numbers")
    try:
        values = [float(p) for p in probs]
        total = math.fsum(values)
    except (OverflowError, ValueError):  # beyond the float range, or inf - inf
        total = math.nan
    # A NaN or infinite entry makes the total NaN or infinite, which fails here.
    if not abs(total - 1.0) <= PROBS_TOLERANCE:
        raise IngestError(f"{where}: probs sum to {total!r}, expected 1 within {PROBS_TOLERANCE}")
    top = max(values)
    top_index = values.index(top)  # lowest index wins ties
    if "confidence" in obj:
        conf = _parse_fraction(obj["confidence"], "confidence", where)
        if abs(conf - top) > PROBS_TOLERANCE:
            raise IngestError(
                f"{where}: confidence {obj['confidence']!r} disagrees with max(probs) {top!r}"
            )
    return top_index, top


def _rows_from_jsonl(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
                raise IngestError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
            if not isinstance(obj, dict):
                raise IngestError(f"{where}: expected a JSON object")
            if "y_true" not in obj:
                raise IngestError(f"{where}: missing key 'y_true'")
            y_true = _parse_label(obj["y_true"], "y_true", where)

            if "probs" in obj:
                top_index, top = _reduce_probs(obj, where)
                y_pred_raw = obj.get("y_pred", top_index)
                conf_raw = obj.get("confidence", top)
            else:
                if "y_pred" not in obj or "confidence" not in obj:
                    raise IngestError(f"{where}: need y_pred and confidence (or probs)")
                y_pred_raw = obj["y_pred"]
                conf_raw = obj["confidence"]

            y_pred = _parse_label(y_pred_raw, "y_pred", where)
            conf = _parse_fraction(conf_raw, "confidence", where)
            credit = None
            if obj.get("credit") is not None:
                credit = _parse_fraction(obj["credit"], "credit", where)
            yield y_true, y_pred, conf, credit


def ingest(path, fmt: Optional[str] = None, class_count: Optional[int] = None) -> EvaluationSet:
    """Read and validate a prediction file into an :class:`EvaluationSet`.

    ``class_count`` defaults to 1 + the largest label seen.  Malformed
    rows raise :class:`IngestError` naming the offending line.
    """
    path = Path(path)
    if fmt is None:
        fmt = _infer_format(path)
    if fmt not in ("csv", "jsonl"):
        raise IngestError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")

    rows = _rows_from_csv(path) if fmt == "csv" else _rows_from_jsonl(path)
    y_true: List[int] = []
    y_pred: List[int] = []
    confidence: List[float] = []
    credit: List[float] = []
    any_credit = False
    try:
        for yt, yp, conf, cr in rows:
            y_true.append(yt)
            y_pred.append(yp)
            confidence.append(conf)
            credit.append(math.nan if cr is None else cr)
            any_credit = any_credit or cr is not None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not y_true:
        raise IngestError(f"{path}: no prediction rows")

    if class_count is not None:
        bound = max(max(y_true), max(y_pred))
        if bound >= class_count:
            raise IngestError(
                f"{path}: label {bound} outside the declared class_count {class_count}"
            )
    return EvaluationSet(
        np.array(y_true, dtype=np.int64),
        np.array(y_pred, dtype=np.int64),
        np.array(confidence, dtype=np.float64),
        np.array(credit, dtype=np.float64) if any_credit else None,
        class_count=class_count,
        source_id=path.name,
    )


def write_predictions_csv(dataset: EvaluationSet, path) -> None:
    """Write ``dataset`` in the canonical CSV layout (LF endings, shortest
    round-trip float formatting)."""
    path = Path(path)
    with_credit = dataset.credit is not None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["y_true", "y_pred", "confidence"]
        if with_credit:
            header.append("credit")
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [
                int(dataset.y_true[i]),
                int(dataset.y_pred[i]),
                repr(float(dataset.confidence[i])),
            ]
            if with_credit:
                c = dataset.credit[i]
                row.append("" if np.isnan(c) else repr(float(c)))
            writer.writerow(row)


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


# --------------------------------------------------------------------------
# Report documents


def point_report_doc(
    dataset: EvaluationSet, tau: float, bins: BinningSpec, input_digest: str
) -> Dict[str, object]:
    """Single-threshold report document (fixed key order)."""
    pm = point_metrics(dataset, tau)
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "report_type": "point",
        "source_id": dataset.source_id,
        "input_digest": input_digest,
        "record_count": len(dataset),
        "class_count": dataset.class_count,
        "bin_count": bins.bin_count,
        "tau": pm.tau,
        "retained_count": pm.retained_count,
        "coverage": pm.coverage,
        "selective_accuracy": pm.selective_accuracy,
        "cwsa": pm.cwsa,
        "cwsa_plus": pm.cwsa_plus,
        "baselines": baseline_scalars(dataset, bins),
    }


def sweep_report_doc(
    report: SweepReport, dataset: EvaluationSet, bins: BinningSpec, input_digest: str
) -> Dict[str, object]:
    """Full sweep report document (fixed key order)."""
    curves = {}
    for name, curve in report.curves.items():
        curves[name] = {
            "tau": curve.taus(),
            "coverage": curve.coverages(),
            "value": curve.values(),
        }
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "report_type": "sweep",
        "source_id": report.source_id,
        "input_digest": input_digest,
        "record_count": len(dataset),
        "class_count": dataset.class_count,
        "bin_count": bins.bin_count,
        "grid": {
            "start": report.grid.start,
            "end": report.grid.end,
            "step": report.grid.step,
        },
        "aumcc_policy": AUMCC_POLICY,
        "curves": curves,
        "scalars": dict(report.scalars),
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


def _curve_rows(curve: Dict[str, list]):
    return zip(curve["tau"], curve["coverage"], curve["value"])


def write_curve_csv(curve: Dict[str, list], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tau", "coverage", "value"])
        for tau, cov, value in _curve_rows(curve):
            writer.writerow([repr(float(tau)), repr(float(cov)), "" if value is None else repr(float(value))])


def curve_svg(metric_name: str, taus: Sequence[float], values: Sequence[Optional[float]]) -> str:
    """A minimal SVG line chart of metric value against threshold.

    Hand-emitted SVG 1.1: axes, threshold ticks, one polyline (split at
    undefined points).  No plotting dependency on purpose.
    """
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
        f'font-size="13">{metric_name}</text>'
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

    segment: List[str] = []
    for tau, value in zip(taus, values):
        if value is None:
            if len(segment) > 1:
                parts.append(
                    f'<polyline points="{" ".join(segment)}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
                )
            segment = []
            continue
        segment.append(f"{sx(float(tau)):.2f},{sy(float(value)):.2f}")
    if len(segment) > 1:
        parts.append(
            f'<polyline points="{" ".join(segment)}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
        )
    elif len(segment) == 1:
        x, y = segment[0].split(",")
        parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="#1f6fb2"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_curves(report_doc: Dict[str, object], out_dir) -> List[Path]:
    """Emit one CSV and one SVG per metric curve of a sweep report."""
    if report_doc.get("report_type") != "sweep":
        raise ValueError("curve emission needs a sweep report (report_type == 'sweep')")
    if "curves" not in report_doc:
        raise ValueError("sweep report has no 'curves' key")
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
