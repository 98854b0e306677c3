import contextlib
import gc

import numpy as np
import pytest

from cwsa_eval import (
    ArchetypeSpec,
    EvaluationSet,
    GradientEntry,
    RiskCoveragePoint,
    cwsa_gradient,
    generate,
    point_metrics,
    risk_coverage_points,
    validate_threshold,
)
from cwsa_eval.core import _CHUNK, _entries
from conftest import make_set, random_pairs, weight_of
import naive_impl


def one_record(y_true=0, y_pred=0, confidence=0.5, credit=None):
    return EvaluationSet(
        [y_true], [y_pred], [confidence], None if credit is None else [credit]
    )


class TestPredictionRecord:
    """The record rules, checked on one-record evaluation sets."""

    def test_valid_record(self):
        ds = one_record(1, 1, 0.9)
        assert ds.correct_u8[0] == 1
        assert ds.credit is None

    def test_wrong_prediction(self):
        assert one_record(0, 2, 0.4).correct_u8[0] == 0

    @pytest.mark.parametrize("confidence", [-0.1, 1.2, float("nan")])
    def test_confidence_out_of_range(self, confidence):
        with pytest.raises(ValueError, match="record 0: confidence"):
            one_record(confidence=confidence)

    @pytest.mark.parametrize("credit", [-0.5, 1.5])
    def test_credit_out_of_range(self, credit):
        with pytest.raises(ValueError, match="record 0: credit"):
            one_record(credit=credit)

    def test_negative_labels(self):
        with pytest.raises(ValueError, match=r"record 0: y_true -1 outside \[0, class_count\)"):
            one_record(-1, 0, 0.5)
        with pytest.raises(ValueError, match="record 0: y_pred -1"):
            one_record(0, -1, 0.5)
        # checked before class_count is inferred from the labels
        with pytest.raises(ValueError, match="record 0"):
            EvaluationSet([-1], [-1], [0.5])


class TestEvaluationSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one record"):
            EvaluationSet([], [], [])

    def test_rejects_label_outside_universe(self):
        with pytest.raises(ValueError, match="record 1: y_true 5 .*class_count 2"):
            EvaluationSet([0, 5], [1, 0], [0.5, 0.5], class_count=2)

    def test_rejects_bad_confidence_naming_record(self):
        y = np.array([0, 0, 0])
        with pytest.raises(ValueError, match="record 2"):
            EvaluationSet(y, y, np.array([0.5, 0.5, 1.5]))

    def test_first_bad_record_is_named_across_columns(self):
        y = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="record 1: credit"):
            EvaluationSet(y, [0, 0, 0, -1], [0.5, 0.5, 2.0, 0.5], [np.nan, 1.5, 0.5, 0.5])

    def test_infers_class_count(self):
        ds = make_set([(0.5, True), (0.9, False)])
        assert ds.class_count == 2
        assert EvaluationSet([4], [2], [0.5]).class_count == 5

    def test_arrays_are_read_only(self):
        ds = make_set([(0.5, True)])
        with pytest.raises(ValueError):
            ds.confidence[0] = 0.1
        with pytest.raises(ValueError):
            ds.y_pred[0] = 1

    def test_caller_arrays_stay_writable_and_apart(self):
        columns = [np.array([0, 1]), np.array([0, 1]), np.array([0.5, 0.7]), np.array([0.2, 0.4])]
        ds = EvaluationSet(*columns)
        for column in columns:
            assert column.flags.writeable
            column[0] = 1
        assert ds.y_true.tolist() == [0, 1] and ds.y_pred.tolist() == [0, 1]
        assert ds.confidence.tolist() == [0.5, 0.7] and ds.credit.tolist() == [0.2, 0.4]

    def test_read_only_view_of_writable_array_is_copied(self):
        confidence = np.array([0.5, 0.7])
        view = confidence[:]
        view.setflags(write=False)
        ds = EvaluationSet([0, 1], [0, 1], view)
        confidence[0] = 0.1
        assert ds.confidence.tolist() == [0.5, 0.7]

    def test_read_only_columns_of_another_set_are_shared(self):
        ds = make_set([(0.5, True), (0.6, False)])
        again = EvaluationSet(ds.y_true, ds.y_pred, ds.confidence)
        assert again.y_true is ds.y_true
        assert again.y_pred is ds.y_pred
        assert again.confidence is ds.confidence

    def test_credit_absent_when_no_record_has_one(self):
        ds = make_set([(0.5, True), (0.6, False)])
        assert ds.credit is None


class TestThresholdValidation:
    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.99, 0.9999])
    def test_accepts_half_open_interval(self, tau):
        assert validate_threshold(tau) == tau

    @pytest.mark.parametrize("tau", [1.0, 1.5, -0.01, float("nan")])
    def test_rejects_outside(self, tau):
        with pytest.raises(ValueError, match="threshold"):
            validate_threshold(tau)


class TestSelect:
    """Retention at a threshold (``confidence >= tau``), read from point_metrics."""

    def test_filters_by_confidence(self):
        ds = make_set([(0.4, True), (0.6, True), (0.9, False)])
        assert point_metrics(ds, 0.5).retained_count == 2

    def test_zero_threshold_keeps_everything(self):
        ds = make_set([(0.0, True), (0.3, False), (1.0, True)])
        assert point_metrics(ds, 0.0).retained_count == 3

    def test_can_be_empty(self):
        ds = make_set([(0.3, True), (0.49, False)])
        assert point_metrics(ds, 0.5).retained_count == 0

    def test_tie_at_threshold_is_retained(self):
        ds = make_set([(0.5, True), (0.4999, True)])
        pm = point_metrics(ds, 0.5)
        assert pm.retained_count == 1
        assert pm.selective_accuracy == 1.0
        assert pm.cwsa_plus == 0.0  # retained with weight 0

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        pairs = list(zip(rng.uniform(0, 1, 50).tolist(), (rng.random(50) < 0.5).tolist()))
        kept = [(c, correct) for c, correct in pairs if c >= 0.6]
        assert point_metrics(make_set(pairs), 0.6).retained_count == len(kept)
        assert point_metrics(make_set(kept), 0.6).coverage == 1.0


class TestConfidenceWeight:
    def test_zero_at_threshold(self):
        assert weight_of(0.5, 0.5) == 0.0

    def test_one_at_full_confidence(self):
        for tau in (0.0, 0.3, 0.5, 0.99):
            assert weight_of(1.0, tau) == 1.0

    def test_midpoint(self):
        # (0.75 - 0.5) / (1 - 0.5), exact in binary floating point
        assert weight_of(0.75, 0.5) == 0.5

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            tau = rng.uniform(0, 0.99)
            c = rng.uniform(tau, 1.0)
            assert 0.0 <= weight_of(c, tau) <= 1.0


class TestCoverage:
    def test_full_confidence_means_full_coverage(self):
        ds = make_set([(1.0, True)] * 4)
        assert point_metrics(ds, 0.99).coverage == 1.0

    def test_two_of_three(self):
        ds = make_set([(0.4, True), (0.6, True), (0.9, False)])
        assert point_metrics(ds, 0.5).coverage == 2 / 3

    def test_non_increasing_in_threshold(self):
        rng = np.random.default_rng(8)
        ds = make_set(list(zip(rng.uniform(0, 1, 300).tolist(), [True] * 300)))
        values = [point_metrics(ds, t).coverage for t in np.linspace(0.0, 0.99, 34)]
        assert all(b <= a for a, b in zip(values, values[1:]))


@contextlib.contextmanager
def collector(enabled):
    """Run the block with the cyclic garbage collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestEntries:
    """The per-record lists are built with the cyclic collector held off, and
    the caller's collector setting is left as it was."""

    def test_the_per_record_builds_start_no_full_collection(self):
        ds = generate(ArchetypeSpec.for_kind("calibrated", n=200_000, seed=11))
        starts = []

        def record(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        with collector(True):
            gc.collect()
            gc.callbacks.append(record)
            try:
                built = [cwsa_gradient(ds, 0.7), risk_coverage_points(ds)]
            finally:
                gc.callbacks.remove(record)
        assert [len(entries) for entries in built] == [200_000, 200_000]
        assert starts.count(2) == 0  # with the collector on while building: 4 at 2e5 records

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_setting_is_kept(self, enabled):
        rows = [(0, 0.5, "interior"), (1, None, "kink")]
        with collector(enabled):
            assert _entries(GradientEntry, len(rows), lambda lo, hi: iter(rows[lo:hi])) == rows
            assert gc.isenabled() is enabled
            assert cwsa_gradient(make_set([(0.5, True), (0.7, False)]), 0.5)[0].status == "kink"
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_setting_is_kept_when_a_build_raises(self, enabled):
        def rows(lo, hi):
            yield (0, 0.5, "interior")
            raise RuntimeError("row 1")

        with collector(enabled):
            with pytest.raises(RuntimeError, match="row 1"):
                _entries(GradientEntry, 2, rows)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("n", [0, 1, _CHUNK, _CHUNK + 1])
    def test_every_slot_is_filled_in_order(self, n):
        chunks = []

        def rows(lo, hi):
            chunks.append((lo, hi))
            return ((i, float(i)) for i in range(lo, hi))

        built = _entries(RiskCoveragePoint, n, rows)
        assert type(built) is list and len(built) == n
        assert built == [(i, float(i)) for i in range(n)]
        assert all(type(entry) is RiskCoveragePoint for entry in built)
        assert chunks == [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]

    def test_a_gradient_shares_its_value_objects(self):
        ds = generate(ArchetypeSpec.for_kind("calibrated", n=200_000, seed=11))
        # 0.0, None and the two signed quotients, not one float per record
        assert len({id(entry.value) for entry in cwsa_gradient(ds, 0.7)}) <= 4

    def test_entries_across_chunks_equal_the_oracles(self):
        rng = np.random.default_rng(41)
        n = 2 * _CHUNK + 5
        # two-decimal confidences: ties, and records exactly at the threshold
        pairs = [(round(c, 2), correct) for c, correct in random_pairs(rng, n)]
        ds = make_set(pairs)

        def typed(rows):
            return [tuple((type(value), value) for value in row) for row in rows]

        assert typed(cwsa_gradient(ds, 0.7)) == typed(naive_impl.gradient_naive(pairs, 0.7))
        curve = zip([(i + 1) / n for i in range(n)], naive_impl.prefix_risks_naive(pairs))
        assert typed(risk_coverage_points(ds)) == typed(curve)
