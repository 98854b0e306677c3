"""Property-based checks of the metric invariants.

Confidences are drawn on a 1/64 lattice and thresholds on a 1/16 lattice
so the strict-inequality margins stay far above float rounding.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwsa_eval import (
    aumcc,
    aurc,
    brier,
    cwsa,
    cwsa_plus,
    eaurc,
    ece,
    mce,
    BinningSpec,
    point_metrics,
)
from conftest import make_set, weight_of

lattice_confidence = st.integers(min_value=0, max_value=64).map(lambda i: i / 64)
lattice_tau = st.integers(min_value=0, max_value=15).map(lambda i: i / 16)
record_lists = st.lists(
    st.tuples(lattice_confidence, st.booleans()), min_size=1, max_size=60
)


@given(record_lists, lattice_tau)
@settings(max_examples=150)
def test_monotone_in_correct_confidence(pairs, tau):
    """Raising a retained correct record's confidence strictly raises both scores."""
    candidates = [i for i, (c, corr) in enumerate(pairs) if corr and tau <= c < 1.0]
    if not candidates:
        return
    i = candidates[0]
    raised = list(pairs)
    raised[i] = ((pairs[i][0] * 64 + 1) / 64, True)
    before = point_metrics(make_set(pairs), tau)
    after = point_metrics(make_set(raised), tau)
    assert after.cwsa > before.cwsa
    assert after.cwsa_plus > before.cwsa_plus


@given(record_lists, lattice_tau)
@settings(max_examples=150)
def test_overconfident_mistakes_are_penalized(pairs, tau):
    """Raising a retained wrong record's confidence strictly lowers the signed
    score and leaves the reward-only score bit-identical."""
    candidates = [i for i, (c, corr) in enumerate(pairs) if not corr and tau <= c < 1.0]
    if not candidates:
        return
    i = candidates[0]
    raised = list(pairs)
    raised[i] = ((pairs[i][0] * 64 + 1) / 64, False)
    before = point_metrics(make_set(pairs), tau)
    after = point_metrics(make_set(raised), tau)
    assert after.cwsa < before.cwsa
    assert after.cwsa_plus == before.cwsa_plus


@given(record_lists, lattice_tau, st.integers(min_value=0, max_value=59))
@settings(max_examples=150)
def test_abstained_records_cannot_move_any_metric(pairs, tau, pick):
    below = [i for i, (c, _) in enumerate(pairs) if c < tau]
    if not below:
        return
    i = below[pick % len(below)]
    flipped = list(pairs)
    flipped[i] = (pairs[i][0], not pairs[i][1])
    before = point_metrics(make_set(pairs), tau)
    after = point_metrics(make_set(flipped), tau)
    assert (after.cwsa, after.cwsa_plus) == (before.cwsa, before.cwsa_plus)
    assert after.selective_accuracy == before.selective_accuracy
    assert after.coverage == before.coverage


@given(record_lists, lattice_tau)
@settings(max_examples=200)
def test_normalization_bounds(pairs, tau):
    pm = point_metrics(make_set(pairs), tau)
    assert 0.0 <= pm.cwsa_plus <= 1.0
    assert -1.0 <= pm.cwsa <= 1.0
    assert pm.cwsa <= pm.cwsa_plus
    if pm.retained_count:
        assert pm.cwsa_plus <= pm.selective_accuracy
    saturated = (
        pm.retained_count > 0
        and all(corr and c == 1.0 for c, corr in pairs if c >= tau)
    )
    assert (pm.cwsa_plus == 1.0) == saturated


@given(record_lists, lattice_tau)
@settings(max_examples=150)
def test_swapping_miscalibrated_confidences_helps(pairs, tau):
    """If a retained wrong record out-confides a retained correct one,
    exchanging their confidences strictly raises the signed score."""
    retained = [(i, c, corr) for i, (c, corr) in enumerate(pairs) if c >= tau]
    wrongs = [(i, c) for i, c, corr in retained if not corr]
    rights = [(i, c) for i, c, corr in retained if corr]
    pair = next(
        ((iw, ir) for iw, cw in wrongs for ir, cr in rights if cw > cr), None
    )
    if pair is None:
        return
    iw, ir = pair
    swapped = list(pairs)
    swapped[iw] = (pairs[ir][0], False)
    swapped[ir] = (pairs[iw][0], True)
    assert cwsa(make_set(swapped), tau) > cwsa(make_set(pairs), tau)


@given(record_lists, lattice_tau)
@settings(max_examples=150)
def test_signed_score_identity(pairs, tau):
    """cwsa decomposes into the correct-weight and wrong-weight means."""
    retained = [(c, corr) for c, corr in pairs if c >= tau]
    if not retained:
        return
    k = len(retained)
    s_correct = math.fsum((c - tau) / (1 - tau) for c, corr in retained if corr)
    s_wrong = math.fsum((c - tau) / (1 - tau) for c, corr in retained if not corr)
    ds = make_set(pairs)
    assert cwsa(ds, tau) == pytest.approx((s_correct - s_wrong) / k, abs=1e-12)
    assert cwsa(ds, tau) == pytest.approx(
        2 * cwsa_plus(ds, tau) - (s_correct + s_wrong) / k, abs=1e-12
    )


@given(record_lists, lattice_tau, lattice_tau)
@settings(max_examples=150)
def test_coverage_non_increasing_and_selection_nested(pairs, tau_a, tau_b):
    lo, hi = min(tau_a, tau_b), max(tau_a, tau_b)
    ds = make_set(pairs)
    at_lo, at_hi = point_metrics(ds, lo), point_metrics(ds, hi)
    assert at_hi.coverage <= at_lo.coverage
    assert at_hi.retained_count <= at_lo.retained_count
    # what hi keeps lies inside what lo keeps
    kept_lo = [(c, corr) for c, corr in pairs if c >= lo]
    assert at_lo.retained_count == len(kept_lo)
    if kept_lo:
        assert point_metrics(make_set(kept_lo), hi).retained_count == at_hi.retained_count


@given(lattice_tau, lattice_confidence, lattice_confidence)
@settings(max_examples=200)
def test_weight_strictly_monotone_in_confidence(tau, c1, c2):
    lo, hi = min(c1, c2), max(c1, c2)
    if lo < tau or lo == hi:
        return
    assert weight_of(hi, tau) > weight_of(lo, tau)


@given(lattice_confidence, lattice_tau, lattice_tau)
@settings(max_examples=200)
def test_weight_strictly_decreasing_in_threshold(c, tau_a, tau_b):
    lo, hi = min(tau_a, tau_b), max(tau_a, tau_b)
    if c < 1.0 and lo < hi <= c:
        assert weight_of(c, hi) < weight_of(c, lo)


@given(record_lists)
@settings(max_examples=150)
def test_risk_coverage_family_invariants(pairs):
    ds = make_set(pairs)
    assert eaurc(ds) >= 0.0
    assert 0.0 <= aurc(ds) <= 1.0
    assert 0.0 <= brier(ds) <= 1.0
    bins = BinningSpec(10)
    assert ece(ds, bins) <= mce(ds, bins) + 1e-15


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=20, max_value=100).map(lambda i: i / 100),
            st.integers(min_value=-64, max_value=64).map(lambda i: i / 64),
        ),
        min_size=2,
        max_size=40,
        unique_by=lambda cv: cv[0],
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150)
def test_aumcc_order_invariance(coverage_values, rnd):
    coverage_values.sort(key=lambda cv: -cv[0])
    base = aumcc([c for c, _ in coverage_values], [v for _, v in coverage_values])
    shuffled = list(coverage_values)
    rnd.shuffle(shuffled)
    assert aumcc([c for c, _ in shuffled], [v for _, v in shuffled]) == base
