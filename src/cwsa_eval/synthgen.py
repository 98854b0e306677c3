"""Seeded synthetic classifier archetypes and their closed-form expectations.

Five archetypes with known confidence behavior (calibrated, overconfident,
underconfident, perfect, random) serve as ground truth for exercising the
metrics: correctness is Bernoulli, confidences are uniform on
per-correctness intervals, and every draw comes from a named, splittable
generator so identical spec + seed always reproduces the identical set.

For each archetype the large-sample value of every threshold-local metric
has a closed form (uniform retention probability plus the conditional
mean of the confidence weight over the retained part of each interval);
:func:`expected_point_metrics` computes those, which is what the
statistical acceptance checks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import EvaluationSet, validate_threshold

__all__ = [
    "KINDS",
    "ARCHETYPE_DEFAULTS",
    "ArchetypeSpec",
    "ExpectedPointMetrics",
    "generate",
    "expected_point_metrics",
]

KINDS = ("calibrated", "overconfident", "underconfident", "perfect", "random")

Interval = Tuple[float, float]

# Per-kind defaults: correctness rate and the confidence intervals used
# for correct / wrong predictions.  The random kind draws its predicted
# label uniformly, so its correctness rate is not a free parameter
# (None) and both intervals coincide.  The underconfident interval is a
# reconstruction that reproduces the intended "accurate but timid"
# behavior; it is not a published constant.
ARCHETYPE_DEFAULTS: Dict[str, Dict[str, object]] = {
    "calibrated": {"p_correct": 0.9, "conf_correct": (0.8, 1.0), "conf_wrong": (0.5, 0.7)},
    "overconfident": {"p_correct": 0.9, "conf_correct": (0.9, 1.0), "conf_wrong": (0.9, 1.0)},
    "underconfident": {"p_correct": 0.9, "conf_correct": (0.3, 0.6), "conf_wrong": (0.3, 0.6)},
    "perfect": {"p_correct": 1.0, "conf_correct": (1.0, 1.0), "conf_wrong": (1.0, 1.0)},
    "random": {"p_correct": None, "conf_correct": (0.3, 1.0), "conf_wrong": (0.3, 1.0)},
}

# Substream indices for the splittable RNG.  Each field of the generated
# records draws from its own PCG64 stream (SeedSequence(seed, spawn_key))
# so adding or reordering draw sites can never perturb the other fields.
_STREAM_TRUE_LABELS = 0
_STREAM_CORRECTNESS = 1
_STREAM_PREDICTIONS = 2
_STREAM_CONFIDENCE = 3


def _check_interval(name: str, interval: Interval) -> Tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError(f"{name} must be an interval a <= b inside [0, 1], got ({a}, {b})")
    return a, b


@dataclass(frozen=True)
class ArchetypeSpec:
    """Generative parameters for one synthetic model.

    Build with :meth:`for_kind` to pick up the per-kind defaults; pass
    explicit fields to override them.  The perfect kind is pinned to
    always-correct, always-fully-confident; the random kind ignores
    ``p_correct`` because correctness emerges from the uniform label
    choice.
    """

    kind: str
    n: int = 1000
    class_count: int = 3
    p_correct: Optional[float] = None
    conf_correct: Interval = (0.0, 1.0)
    conf_wrong: Interval = (0.0, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown archetype kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.class_count < 1:
            raise ValueError(f"class_count must be positive, got {self.class_count}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        _check_interval("conf_correct", self.conf_correct)
        _check_interval("conf_wrong", self.conf_wrong)
        if self.kind == "random":
            if self.p_correct is not None:
                raise ValueError("the random kind ignores p_correct; leave it unset")
        else:
            if self.p_correct is None or not 0.0 <= self.p_correct <= 1.0:
                raise ValueError(f"p_correct must lie in [0, 1], got {self.p_correct!r}")
        if self.kind == "perfect":
            if self.p_correct != 1.0 or self.conf_correct != (1.0, 1.0) or self.conf_wrong != (1.0, 1.0):
                raise ValueError(
                    "the perfect kind is always correct with confidence 1.0; "
                    "its rate and intervals cannot be overridden"
                )
        if self.class_count < 2 and self.kind != "perfect" and self.p_correct != 1.0:
            raise ValueError("wrong predictions need at least 2 classes")

    @classmethod
    def for_kind(
        cls,
        kind: str,
        n: int = 1000,
        class_count: int = 3,
        seed: int = 0,
        p_correct: Optional[float] = None,
        conf_correct: Optional[Interval] = None,
        conf_wrong: Optional[Interval] = None,
    ) -> "ArchetypeSpec":
        """Spec for ``kind`` with defaults applied; explicit arguments win."""
        if kind not in ARCHETYPE_DEFAULTS:
            raise ValueError(f"unknown archetype kind {kind!r}; expected one of {KINDS}")
        defaults = ARCHETYPE_DEFAULTS[kind]
        return cls(
            kind=kind,
            n=n,
            class_count=class_count,
            p_correct=defaults["p_correct"] if p_correct is None else p_correct,
            conf_correct=tuple(conf_correct if conf_correct is not None else defaults["conf_correct"]),
            conf_wrong=tuple(conf_wrong if conf_wrong is not None else defaults["conf_wrong"]),
            seed=seed,
        )


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def generate(spec: ArchetypeSpec) -> EvaluationSet:
    """Draw the synthetic evaluation set described by ``spec``.

    Draw order per stream is fixed: true labels, correctness flags,
    predicted-label offsets, then raw confidence uniforms, each exactly
    ``n`` values regardless of the realized correctness pattern.
    Confidences are ``a + u * (b - a)`` with ``u ~ U[0, 1)``, i.e.
    half-open uniforms except for the degenerate interval where the
    value is exactly ``a``.
    """
    n, k = spec.n, spec.class_count
    y_true = _stream(spec.seed, _STREAM_TRUE_LABELS).integers(0, k, n)

    if spec.kind == "random":
        # Predictions are blind to the truth; correctness just happens.
        y_pred = _stream(spec.seed, _STREAM_PREDICTIONS).integers(0, k, n)
        correct = y_pred == y_true
    else:
        correct = _stream(spec.seed, _STREAM_CORRECTNESS).random(n) < spec.p_correct
        if k >= 2:
            offsets = _stream(spec.seed, _STREAM_PREDICTIONS).integers(0, k - 1, n)
        else:
            offsets = np.zeros(n, dtype=np.int64)
        # offset in [0, k-2] shifts the true label to a uniformly chosen *different* label:
        offsets += 1  # (y_true + 1 + offsets) % k, summed in place (exact in any order)
        offsets += y_true
        offsets %= k
        y_pred = np.where(correct, y_true, offsets)

    (ca, cb), (wa, wb) = spec.conf_correct, spec.conf_wrong
    confidence = _stream(spec.seed, _STREAM_CONFIDENCE).random(n)  # u, scaled in place below
    confidence *= np.where(correct, cb - ca, wb - wa)
    confidence += np.where(correct, ca, wa)  # u * width + low: the same sum as low + u * width

    for column in (y_true, y_pred, confidence):  # fresh, so the set need not copy them
        column.setflags(write=False)
    return EvaluationSet(
        y_true,
        y_pred,
        confidence,
        class_count=k,
        source_id=f"{spec.kind}-{spec.seed}",
    )


@dataclass(frozen=True)
class ExpectedPointMetrics:
    """Large-sample values of the threshold-local metrics for an archetype."""

    coverage: float
    selective_accuracy: Optional[float]
    cwsa: float
    cwsa_plus: float


def _retention_fraction(interval: Interval, tau: float) -> float:
    """P(confidence >= tau) for a uniform draw on ``interval``."""
    a, b = interval
    if tau <= a:
        return 1.0
    if tau >= b:
        return 0.0
    return (b - tau) / (b - a)


def _mean_weight_retained(interval: Interval, tau: float) -> float:
    """E[(c - tau)/(1 - tau) | c >= tau] for a uniform draw on ``interval``.

    The conditional distribution is uniform on [max(a, tau), b], so the
    conditional mean confidence is the midpoint of that stretch.
    """
    a, b = interval
    lo = max(a, tau)
    mean_conf = (lo + b) / 2.0
    return (mean_conf - tau) / (1.0 - tau)


def expected_point_metrics(spec: ArchetypeSpec, tau: float) -> ExpectedPointMetrics:
    """Analytic expectations for ``spec`` at ``tau``.

    Combines the per-class retention probabilities with the conditional
    mean weights by total probability.  These are the n -> infinity
    values; empirical metrics converge to them at the usual root-n rate.
    """
    tau = validate_threshold(tau)
    p = 1.0 / spec.class_count if spec.kind == "random" else float(spec.p_correct)
    q = 1.0 - p
    r_correct = _retention_fraction(spec.conf_correct, tau)
    r_wrong = _retention_fraction(spec.conf_wrong, tau)
    cov = p * r_correct + q * r_wrong
    if cov == 0.0:
        return ExpectedPointMetrics(coverage=0.0, selective_accuracy=None, cwsa=0.0, cwsa_plus=0.0)
    share_correct = p * r_correct / cov
    w_correct = _mean_weight_retained(spec.conf_correct, tau) if r_correct > 0 else 0.0
    w_wrong = _mean_weight_retained(spec.conf_wrong, tau) if r_wrong > 0 else 0.0
    plus = share_correct * w_correct
    signed = plus - (1.0 - share_correct) * w_wrong
    return ExpectedPointMetrics(
        coverage=cov,
        selective_accuracy=share_correct,
        cwsa=signed,
        cwsa_plus=plus,
    )
