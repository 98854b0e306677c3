"""Command-line interface.

Subcommands: ``evaluate`` (point metrics or a full threshold sweep over a
prediction file), ``synth`` (write a seeded synthetic prediction file),
``compare`` (rank several prediction files by an area summary),
``curves`` (emit CSV/SVG curves from a sweep report) and ``expect``
(print the analytic archetype expectations).

Exit codes: 0 success, 1 validation or I/O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from ._version import TOOL_NAME, __version__
from .baselines import BinningSpec
from .core import validate_threshold
from .dataio import (
    _ingest,
    compare_report_doc,
    point_report_doc,
    sweep_report_doc,
    write_curves,
    write_predictions_csv,
    write_report,
)
from .sweep import THRESHOLD_METRICS, ThresholdGrid, sweep
from .synthgen import KINDS, ArchetypeSpec, expected_point_metrics, generate

__all__ = ["main", "entrypoint"]


def _interval(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected an interval 'a,b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers 'a,b', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Confidence-weighted selective accuracy evaluation for classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="evaluate a prediction file at one threshold or over a grid")
    p.add_argument("--input", required=True, help="prediction file (CSV or JSONL)")
    p.add_argument("--format", choices=("csv", "jsonl"), default=None,
                   help="input format (default: inferred from the file suffix)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", type=float, default=None, help="single threshold in [0, 1)")
    group.add_argument("--grid", default=None, help="threshold grid start:end:step (default 0.5:0.99:0.01)")
    p.add_argument("--bins", type=int, default=15, help="calibration-error bin count (default 15)")
    p.add_argument("--class-count", type=int, default=None,
                   help="label universe size (default: 1 + max observed label)")
    p.add_argument("--output", required=True, help="report JSON path")

    p = sub.add_parser("synth", help="generate a synthetic prediction file")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class-count", type=int, default=3)
    p.add_argument("--p-correct", type=float, default=None)
    p.add_argument("--conf-correct", type=_interval, default=None, metavar="A,B")
    p.add_argument("--conf-wrong", type=_interval, default=None, metavar="A,B")
    p.add_argument("--output", required=True, help="output CSV path")

    p = sub.add_parser("compare", help="rank several prediction files by an area summary")
    p.add_argument("--inputs", required=True, help="comma-separated prediction files")
    p.add_argument("--by", required=True, choices=THRESHOLD_METRICS)
    p.add_argument("--grid", default=None, help="threshold grid start:end:step (default 0.5:0.99:0.01)")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--output", required=True, help="ranking JSON path")

    p = sub.add_parser("curves", help="emit per-metric CSV and SVG curves from a sweep report")
    p.add_argument("--report", required=True, help="sweep report JSON produced by evaluate")
    p.add_argument("--output", required=True, help="output directory")

    p = sub.add_parser("expect", help="print analytic archetype expectations at one threshold")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--tau", required=True, type=float)

    return parser


def _cmd_evaluate(args) -> int:
    bins = BinningSpec(args.bins)
    grid = ThresholdGrid.parse(args.grid) if args.grid else ThresholdGrid()
    if args.tau is not None:
        validate_threshold(args.tau)
    dataset, digest = _ingest(args.input, args.format, args.class_count)
    if args.tau is not None:
        doc = point_report_doc(dataset, args.tau, bins, digest)
    else:
        doc = sweep_report_doc(dataset, grid, bins, digest)
    write_report(doc, args.output)
    return 0


def _cmd_synth(args) -> int:
    spec = ArchetypeSpec.for_kind(
        args.kind,
        n=args.n,
        class_count=args.class_count,
        seed=args.seed,
        p_correct=args.p_correct,
        conf_correct=args.conf_correct,
        conf_wrong=args.conf_wrong,
    )
    write_predictions_csv(generate(spec), args.output)
    return 0


def _cmd_compare(args) -> int:
    paths = [p for p in args.inputs.split(",") if p]
    if not paths:
        raise ValueError("no input files given")
    # Reports are keyed by source id, which ingest takes from the file name.
    by_name = {}
    for path in paths:
        name = Path(path).name
        if name in by_name:
            raise ValueError(f"inputs {by_name[name]} and {path} share the source id {name!r}")
        by_name[name] = path
    grid = ThresholdGrid.parse(args.grid) if args.grid else ThresholdGrid()
    bins = BinningSpec(args.bins)
    reports = []
    digests = {}
    for path in paths:
        dataset, digest = _ingest(path)
        digests[dataset.source_id] = digest
        reports.append(sweep(dataset, grid, bins))
    doc = compare_report_doc(reports, args.by, digests)
    write_report(doc, args.output)

    key = f"auc_mcc_{args.by}"
    width = max(len("source_id"), max(len(e["source_id"]) for e in doc["ranking"]))
    print(f"{'rank':>4}  {'source_id':<{width}}  {key}")
    for entry in doc["ranking"]:
        shown = "n/a" if entry[key] is None else f"{entry[key]:.6f}"
        print(f"{entry['rank']:>4}  {entry['source_id']:<{width}}  {shown}")
    return 0


def _cmd_curves(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.report}: JSON nested too deeply") from None
    write_curves(doc, args.output)
    return 0


def _cmd_expect(args) -> int:
    spec = ArchetypeSpec.for_kind(args.kind)
    expected = expected_point_metrics(spec, args.tau)
    sel = "null" if expected.selective_accuracy is None else repr(expected.selective_accuracy)
    print(f"kind {args.kind}")
    print(f"tau {args.tau!r}")
    print(f"coverage {expected.coverage!r}")
    print(f"selective_accuracy {sel}")
    print(f"cwsa {expected.cwsa!r}")
    print(f"cwsa_plus {expected.cwsa_plus!r}")
    return 0


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "synth": _cmd_synth,
    "compare": _cmd_compare,
    "curves": _cmd_curves,
    "expect": _cmd_expect,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # IngestError is a ValueError
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
