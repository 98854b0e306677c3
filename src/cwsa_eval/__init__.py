"""Confidence-weighted selective accuracy evaluation.

A library and CLI for judging classifiers that may abstain: the signed
and normalized confidence-weighted selective accuracy scores, classical
baselines (calibration error, Brier, risk-coverage areas), dense
threshold sweeps with area summaries, seeded synthetic classifier
archetypes with closed-form expectations, and prediction-file I/O.
"""

from ._version import TOOL_NAME, __version__
from .baselines import (
    BinningSpec,
    RiskCoveragePoint,
    aurc,
    brier,
    eaurc,
    ece,
    mce,
    risk_coverage_points,
)
from .core import EvaluationSet, validate_threshold
from .dataio import IngestError, ingest, write_predictions_csv
from .metrics import (
    GRADIENT_ABSTAINED,
    GRADIENT_INTERIOR,
    GRADIENT_KINK,
    GradientEntry,
    PointMetrics,
    cwsa,
    cwsa_generalized,
    cwsa_gradient,
    cwsa_plus,
    point_metrics,
    selective_accuracy,
)
from .sweep import (
    CURVE_METRICS,
    THRESHOLD_METRICS,
    InsufficientDataError,
    SweepReport,
    ThresholdGrid,
    aumcc,
    rank,
    sweep,
)
from .synthgen import (
    ARCHETYPE_DEFAULTS,
    KINDS,
    ArchetypeSpec,
    ExpectedPointMetrics,
    expected_point_metrics,
    generate,
)

__all__ = [
    "TOOL_NAME",
    "__version__",
    # core
    "EvaluationSet",
    "validate_threshold",
    # metrics
    "PointMetrics",
    "GradientEntry",
    "GRADIENT_INTERIOR",
    "GRADIENT_KINK",
    "GRADIENT_ABSTAINED",
    "point_metrics",
    "cwsa",
    "cwsa_plus",
    "selective_accuracy",
    "cwsa_generalized",
    "cwsa_gradient",
    # baselines
    "BinningSpec",
    "RiskCoveragePoint",
    "ece",
    "mce",
    "brier",
    "aurc",
    "eaurc",
    "risk_coverage_points",
    # sweep
    "ThresholdGrid",
    "SweepReport",
    "InsufficientDataError",
    "THRESHOLD_METRICS",
    "CURVE_METRICS",
    "sweep",
    "aumcc",
    "rank",
    # synthgen
    "KINDS",
    "ARCHETYPE_DEFAULTS",
    "ArchetypeSpec",
    "ExpectedPointMetrics",
    "generate",
    "expected_point_metrics",
    # io
    "IngestError",
    "ingest",
    "write_predictions_csv",
]
