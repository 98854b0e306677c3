import builtins
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from cwsa_eval import (
    EvaluationSet,
    GRADIENT_ABSTAINED,
    GRADIENT_INTERIOR,
    GRADIENT_KINK,
    ThresholdGrid,
    cwsa,
    cwsa_generalized,
    cwsa_gradient,
    cwsa_plus,
    point_metrics,
    selective_accuracy,
)
from cwsa_eval import _ranges, kernels
from conftest import forced_split, make_set, random_pairs
import naive_impl


class TestCwsa:
    def test_reward_penalty_example(self):
        # weights 1.0 and 0.5, signs +1 and -1 -> (1.0 - 0.5) / 2
        ds = make_set([(1.0, True), (0.75, False)])
        assert cwsa(ds, 0.5) == 0.25

    def test_saturates_at_one(self):
        ds = make_set([(1.0, True)] * 8)
        assert cwsa(ds, 0.5) == 1.0

    def test_empty_retention_returns_zero(self):
        ds = make_set([(0.3, True), (0.2, False)])
        assert cwsa(ds, 0.5) == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            pairs = random_pairs(rng, int(rng.integers(1, 60)))
            tau = float(rng.uniform(0, 0.95))
            assert cwsa(make_set(pairs), tau) == pytest.approx(
                naive_impl.cwsa_naive(pairs, tau), abs=1e-12
            )


class TestCwsaPlus:
    def test_half_weight_example(self):
        ds = make_set([(1.0, True), (0.75, False)])
        assert cwsa_plus(ds, 0.5) == 0.5

    def test_all_wrong_scores_zero(self):
        ds = make_set([(0.9, False), (0.7, False), (0.5, False)])
        assert cwsa_plus(ds, 0.5) == 0.0

    def test_saturates_at_one(self):
        ds = make_set([(1.0, True)] * 5)
        assert cwsa_plus(ds, 0.5) == 1.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            pairs = random_pairs(rng, int(rng.integers(1, 60)))
            tau = float(rng.uniform(0, 0.95))
            assert cwsa_plus(make_set(pairs), tau) == naive_impl.cwsa_plus_naive(pairs, tau)


class TestSelectiveAccuracy:
    def test_half_correct(self):
        ds = make_set([(0.9, True), (0.9, False)])
        assert selective_accuracy(ds, 0.5) == 0.5

    def test_perfect_set(self):
        ds = make_set([(1.0, True)] * 10)
        for tau in (0.0, 0.5, 0.99):
            assert selective_accuracy(ds, tau) == 1.0

    def test_undefined_on_empty_retention(self):
        ds = make_set([(0.3, True), (0.4, False)])
        assert selective_accuracy(ds, 0.5) is None


class TestPointMetrics:
    def test_bundles_all_values(self):
        ds = make_set([(1.0, True), (0.75, False), (0.4, True)])
        pm = point_metrics(ds, 0.5)
        assert pm.retained_count == 2
        assert pm.coverage == 2 / 3
        assert pm.selective_accuracy == 0.5
        assert pm.cwsa == cwsa(ds, 0.5)
        assert pm.cwsa_plus == cwsa_plus(ds, 0.5)

    def test_empty_retention_marker(self):
        ds = make_set([(0.1, True)])
        pm = point_metrics(ds, 0.9)
        assert (pm.cwsa, pm.cwsa_plus, pm.selective_accuracy) == (0.0, 0.0, None)
        assert pm.retained_count == 0 and pm.coverage == 0.0

    def test_ordering_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            pairs = random_pairs(rng, int(rng.integers(1, 80)))
            pm = point_metrics(make_set(pairs), float(rng.uniform(0, 0.95)))
            assert pm.cwsa <= pm.cwsa_plus
            if pm.retained_count > 0:
                assert pm.cwsa_plus <= pm.selective_accuracy
                assert -1.0 <= pm.cwsa <= 1.0
                assert 0.0 <= pm.cwsa_plus <= 1.0

    def test_signed_score_decomposes_into_correct_and_wrong_sums(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            pairs = random_pairs(rng, int(rng.integers(1, 60)))
            tau = float(rng.uniform(0, 0.95))
            retained = [(c, corr) for c, corr in pairs if c >= tau]
            if not retained:
                continue
            s_correct = sum(naive_impl.weight(c, tau) for c, corr in retained if corr)
            s_wrong = sum(naive_impl.weight(c, tau) for c, corr in retained if not corr)
            pm = point_metrics(make_set(pairs), tau)
            assert pm.cwsa == pytest.approx(
                (s_correct - s_wrong) / len(retained), abs=1e-12
            )
            assert pm.cwsa_plus == pytest.approx(s_correct / len(retained), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(25)
        pairs = random_pairs(rng, 500)
        base = point_metrics(make_set(pairs), 0.4)
        for _ in range(5):
            shuffled = list(pairs)
            rng.shuffle(shuffled)
            pm = point_metrics(make_set(shuffled), 0.4)
            assert pm.cwsa == pytest.approx(base.cwsa, abs=1e-12)
            assert pm.cwsa_plus == pytest.approx(base.cwsa_plus, abs=1e-12)
            assert pm.coverage == base.coverage

    def test_never_sorts(self, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("single-pass evaluation must not sort")

        monkeypatch.setattr(np, "sort", banned)
        monkeypatch.setattr(np, "argsort", banned)
        monkeypatch.setattr(builtins, "sorted", banned)
        ds = make_set(random_pairs(np.random.default_rng(26), 1000))
        pm = point_metrics(ds, 0.6)
        assert pm.retained_count > 0


class TestExactness:
    """Weighted sums equal a left-to-right loop bit for bit, on data whose
    sums round (uniform confidences, not a dyadic lattice)."""

    TAUS = (0.0, 0.1, 0.37, 0.5, 0.73, 0.9)

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(27)
        pairs = random_pairs(rng, 5000, p_correct=0.6)
        credits = rng.uniform(0, 1, len(pairs)).tolist()
        return pairs, credits

    @pytest.mark.parametrize("block", [1, 7, kernels._BLOCK_VALUES])
    def test_point_accumulate_equals_sequential_loop(self, data, monkeypatch, block):
        monkeypatch.setattr(kernels, "_BLOCK_VALUES", block)  # records per block of the point kernel
        pairs, _ = data
        ds = make_set(pairs)
        for tau in self.TAUS:
            got = kernels.point_accumulate(ds.confidence, ds.correct_u8, tau)
            assert got == naive_impl.point_sums_naive(pairs, tau)

    @pytest.mark.parametrize("block", [1, 7, kernels._BLOCK_VALUES])
    def test_credit_accumulate_equals_sequential_loop(self, data, monkeypatch, block):
        monkeypatch.setattr(kernels, "_BLOCK_VALUES", block)  # records per block of the credit kernel
        pairs, credits = data
        ds = make_set(pairs, credits=credits)
        for tau in self.TAUS:
            retained, signed, first_missing = kernels.credit_accumulate(
                ds.confidence, ds.credit, tau
            )
            assert first_missing == -1
            assert (retained, signed) == naive_impl.credit_sum_naive(pairs, credits, tau)

    @pytest.mark.parametrize("block", [1, 7, kernels._BLOCK_VALUES])
    def test_a_missing_credit_in_a_later_block_is_named_by_its_index(self, data, monkeypatch, block):
        monkeypatch.setattr(kernels, "_BLOCK_VALUES", block)
        pairs, credits = data
        ds = make_set(pairs, credits=credits)
        credit = ds.credit.copy()
        index = 4000 + int(np.argmax(ds.confidence[4000:] >= 0.37))  # retained, past the first blocks
        skipped = int(np.argmax(ds.confidence < 0.37))  # abstains, so its credit is not needed
        credit[[skipped, index]] = np.nan
        retained, _, first_missing = kernels.credit_accumulate(ds.confidence, credit, 0.37)
        assert first_missing == index
        assert retained == np.count_nonzero(ds.confidence >= 0.37)
        with pytest.raises(ValueError, match=rf"^record {index}: credit required"):
            cwsa_generalized(EvaluationSet(ds.y_true, ds.y_pred, ds.confidence, credit), 0.37)

    def test_graded_scoring_holds_one_block_at_a_time(self):
        rng = np.random.default_rng(28)
        n = 1_000_000
        labels = rng.integers(0, 2, (2, n))
        ds = EvaluationSet(labels[0], labels[1], rng.random(n), rng.random(n))
        tracemalloc.start()
        try:
            cwsa_generalized(ds, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20  # full-length temporaries took 12.9 MiB here

    def test_metrics_equal_naive_oracles(self, data):
        pairs, credits = data
        ds = make_set(pairs, credits=credits)
        for tau in self.TAUS:
            retained, _, s_correct, s_wrong = naive_impl.point_sums_naive(pairs, tau)
            assert cwsa(ds, tau) == (s_correct - s_wrong) / retained
            assert cwsa_plus(ds, tau) == naive_impl.cwsa_plus_naive(pairs, tau)
            assert selective_accuracy(ds, tau) == naive_impl.selective_accuracy_naive(pairs, tau)
            assert point_metrics(ds, tau).coverage == naive_impl.coverage_naive(pairs, tau)
            assert cwsa_generalized(ds, tau) == naive_impl.cwsa_generalized_naive(
                pairs, credits, tau
            )

    def test_sequential_sum_of_tenths(self):
        # pairwise or compensated summation would give exactly 1.0 here
        assert kernels.sequential_sum(np.full(10, 0.1)) == 0.9999999999999999
        assert kernels.sequential_sum(np.empty(0)) == 0.0
        assert str(kernels.sequential_sum(np.array([-0.0, -0.0]))) == "0.0"


# Rows per block of the grid kernel on a 1000-point grid.
_DENSE_ROWS = kernels._BLOCK_VALUES // 1000
WORKER_COUNTS = (1, 2, 3)


class TestSweepAccumulate:
    """The grid kernel gives every threshold the sums of a left-to-right
    loop, bit for bit, across blocks, skipped columns and skipped blocks,
    at every worker count."""

    @staticmethod
    def check(pairs, taus):
        ds = make_set(pairs)
        expected = [naive_impl.point_sums_naive(pairs, tau) for tau in taus]
        for workers in WORKER_COUNTS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_ranges, "_usable_cpus", lambda: workers)
                got = kernels.sweep_accumulate(ds.confidence, ds.correct_u8, taus)
            assert len(got) == len(taus)
            for tau, sums, want in zip(taus, got, expected):
                assert sums == want, (workers, tau)

    def test_two_threshold_grids(self):
        pairs = random_pairs(np.random.default_rng(60), 3000, p_correct=0.6)
        for taus in ([0.1, 0.2], [0.0, 0.99], [0.37, 0.37], [0.73, 0.9]):
            self.check(pairs, taus)

    def test_block_with_only_the_first_column_live(self):
        # Every block reaches the first threshold only.  A 1-column reduce
        # would sum pairwise and round differently from the loop.
        rng = np.random.default_rng(61)
        for n in (17, 40, 1000):
            self.check(random_pairs(rng, n, p_correct=0.5, low=0.3, high=0.9), [0.3, 0.9])
        # Dense grid: the first two blocks below 0.001.
        low = random_pairs(rng, 2 * _DENSE_ROWS, p_correct=0.5, low=0.0, high=0.001)
        self.check(low + random_pairs(rng, 500), ThresholdGrid(0.0, 0.999, 0.001).thresholds())

    def test_duplicate_thresholds(self):
        taus = ThresholdGrid.parse("0.5:0.5000000001:1e-11").thresholds()
        assert len(set(taus)) < len(taus)
        pairs = random_pairs(np.random.default_rng(62), 2000, low=0.4, high=0.6)
        pairs += [(0.5, True), (0.5000000001, False)]
        self.check(pairs, taus)

    def test_ties_at_the_thresholds(self):
        rng = np.random.default_rng(63)
        pairs = [(round(c, 2), corr) for c, corr in random_pairs(rng, 4000)]
        taus = ThresholdGrid().thresholds()
        assert {c for c, _ in pairs} & set(taus)
        self.check(pairs, taus)

    @pytest.mark.parametrize("correct", [True, False])
    def test_one_group_empty(self, correct):
        rng = np.random.default_rng(64)
        pairs = [(c, correct) for c, _ in random_pairs(rng, 2500)]
        self.check(pairs, ThresholdGrid(0.0, 0.99, 0.01).thresholds())

    @pytest.mark.parametrize("n", [1, 20, _DENSE_ROWS * 5 + 7, 3000])
    def test_sizes_around_the_block(self, n):
        pairs = random_pairs(np.random.default_rng(65), n, p_correct=0.7)
        self.check(pairs, ThresholdGrid(0.0, 0.999, 0.001).thresholds())

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_groups_at_a_block_edge_of_a_50_point_grid(self, offset):
        # 50 thresholds give blocks of _BLOCK_VALUES // 50 rows; the hits
        # and the misses each end one row before, at or after a block edge
        rows = kernels._BLOCK_VALUES // 50
        rng = np.random.default_rng(69)
        correct = np.arange(2 * rows) < rows + offset
        rng.shuffle(correct)
        pairs = list(zip(rng.uniform(0.0, 1.0, 2 * rows).tolist(), correct.tolist()))
        self.check(pairs, ThresholdGrid().thresholds())

    def test_random_grids_equal_the_loop(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            pairs = random_pairs(rng, int(rng.integers(1, 1500)), float(rng.uniform(0, 1)))
            m = int(rng.integers(1, 300))
            taus = np.sort(np.round(rng.uniform(0.0, 0.999, m), int(rng.integers(1, 5))))
            self.check(pairs, taus.tolist())

    def test_one_threshold_equals_point_accumulate(self):
        ds = make_set(random_pairs(np.random.default_rng(67), 1000))
        got = kernels.sweep_accumulate(ds.confidence, ds.correct_u8, [0.6])
        assert got == [kernels.point_accumulate(ds.confidence, ds.correct_u8, 0.6)]

    def test_columns_above_the_block_maximum_are_skipped(self, monkeypatch):
        # Records below 0.1 reach about a tenth of a 0.0..0.999 grid, so
        # a block computes that tenth and no more.
        widths = []

        def recorded(*args, _fn=np.subtract, **kwargs):
            widths.append(kwargs["out"].shape[1])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np, "subtract", recorded)
        pairs = random_pairs(np.random.default_rng(68), 3000, low=0.0, high=0.1)
        ds = make_set(pairs)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(_ranges, "_usable_cpus", lambda: workers)
            widths.clear()
            kernels.sweep_accumulate(ds.confidence, ds.correct_u8,
                                     ThresholdGrid(0.0, 0.999, 0.001).thresholds())
            assert widths and max(widths) <= 101, workers

    @pytest.mark.parametrize("m", range(2, 8))
    def test_grids_too_short_for_two_columns_per_worker(self, monkeypatch, m):
        # A grid of m thresholds runs on at most m // 2 workers, so every
        # slice keeps the 2 columns that a sequential reduce needs.
        rng = np.random.default_rng(70 + m)
        pairs = random_pairs(rng, 3000, p_correct=0.6)
        taus = np.sort(rng.uniform(0.0, 0.999, m)).tolist()
        self.check(pairs, taus)
        slices = []

        def no_fork():
            raise OSError("no fork")

        # No worker starts, so every slice is worked, and recorded, in this process.
        monkeypatch.setattr(os, "fork", no_fork)

        def recorded(group, t, _fn=kernels._grid_sums):
            slices.append(t.tolist())
            return _fn(group, t)

        monkeypatch.setattr(kernels, "_grid_sums", recorded)
        ds = make_set(pairs)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(_ranges, "_usable_cpus", lambda: workers)
            slices.clear()
            kernels.sweep_accumulate(ds.confidence, ds.correct_u8, taus)
            used = min(workers, m // 2)
            assert sorted(map(tuple, slices)) == sorted(
                [tuple(taus[j::used]) for j in range(used)] * 2)
            assert min(map(len, slices)) >= 2

    def test_first_slice_with_only_its_first_column_live(self):
        # Records in [0.1, 0.3) reach only the first column of the first
        # slice at 2 and 3 workers, in every block.
        rng = np.random.default_rng(77)
        taus = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        for n in (17, 40000):
            self.check(random_pairs(rng, n, p_correct=0.5, low=0.1, high=0.3), taus)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_worker_fault_reaches_the_caller(self, monkeypatch, workers):
        # The slice that starts at the grid's second threshold raises in its
        # forked worker, which dies; the caller works that slice again and
        # gets that exception, and no thread is started.
        taus = ThresholdGrid().thresholds()
        fault = RuntimeError("slice failed")

        def failing(group, t, _fn=kernels._grid_sums):
            if t[0] == taus[1]:
                raise fault
            return _fn(group, t)

        monkeypatch.setattr(kernels, "_grid_sums", failing)
        monkeypatch.setattr(_ranges, "_usable_cpus", lambda: workers)
        ds = make_set(random_pairs(np.random.default_rng(78), 2000))
        before = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            kernels.sweep_accumulate(ds.confidence, ds.correct_u8, taus)
        assert excinfo.value is fault
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_worker_that_dies_before_it_sends(self, monkeypatch, workers):
        # Every forked worker exits without sending its slice, and the
        # caller works each such slice itself.
        pid = os.getpid()

        def dying(*args, _fn=kernels._slice_sums):
            if os.getpid() != pid:
                os._exit(1)
            return _fn(*args)

        monkeypatch.setattr(kernels, "_slice_sums", dying)
        pairs = random_pairs(np.random.default_rng(79), 3000, p_correct=0.6)
        ds = make_set(pairs)
        taus = ThresholdGrid().thresholds()
        with forced_split(workers) as forks:
            got = kernels.sweep_accumulate(ds.confidence, ds.correct_u8, taus)
        assert len(forks) == workers - 1
        assert got == [naive_impl.point_sums_naive(pairs, tau) for tau in taus]

    def test_no_fork_beside_another_thread(self):
        # Forking is unsafe beside a second thread, so this process works every slice.
        ds = make_set(random_pairs(np.random.default_rng(80), 3000))
        taus = ThresholdGrid(0.0, 0.999, 0.001).thresholds()
        with forced_split(1):
            alone = kernels.sweep_accumulate(ds.confidence, ds.correct_u8, taus)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with forced_split(2) as forks:
                beside = kernels.sweep_accumulate(ds.confidence, ds.correct_u8, taus)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == [] and beside == alone
        with forced_split(2) as forks:
            assert kernels.sweep_accumulate(ds.confidence, ds.correct_u8, taus) == alone
        assert len(forks) == 1  # the same sweep forks once the thread is gone


class TestGeneralized:
    def test_full_credit_full_confidence(self):
        ds = make_set([(1.0, True)] * 3, credits=[1.0, 1.0, 1.0])
        assert cwsa_generalized(ds, 0.5) == 1.0

    def test_half_credit_annihilates(self):
        ds = make_set([(0.9, True), (0.7, False)], credits=[0.5, 0.5])
        assert cwsa_generalized(ds, 0.5) == 0.0

    def test_mixed_credit_example(self):
        # (1.0 * 0.5 + 0.5 * -0.5) / 2
        ds = make_set([(1.0, True), (0.75, False)], credits=[0.75, 0.25])
        assert cwsa_generalized(ds, 0.5) == 0.125

    def test_reduces_to_signed_score_on_binary_credit(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            pairs = random_pairs(rng, int(rng.integers(1, 40)))
            credits = [1.0 if corr else 0.0 for _, corr in pairs]
            ds = make_set(pairs, credits=credits)
            tau = float(rng.uniform(0, 0.9))
            assert cwsa_generalized(ds, tau) == pytest.approx(cwsa(ds, tau), abs=1e-12)

    def test_missing_credit_names_first_retained_offender(self):
        ds = make_set(
            [(0.2, True), (0.8, True), (0.9, False)], credits=[0.5, None, 0.5]
        )
        with pytest.raises(ValueError, match="record 1"):
            cwsa_generalized(ds, 0.5)

    def test_no_credit_at_all(self):
        ds = make_set([(0.8, True)])
        with pytest.raises(ValueError, match="record 0"):
            cwsa_generalized(ds, 0.5)

    def test_empty_retention_without_credit_is_fine(self):
        ds = make_set([(0.2, True)])
        assert cwsa_generalized(ds, 0.5) == 0.0


class TestGradient:
    def test_single_correct_record(self):
        ds = make_set([(0.9, True)])
        (entry,) = cwsa_gradient(ds, 0.5)
        assert entry.status == GRADIENT_INTERIOR
        assert entry.value == 2.0

    def test_single_wrong_record(self):
        ds = make_set([(0.9, False)])
        (entry,) = cwsa_gradient(ds, 0.5)
        assert entry.value == -2.0

    def test_kink_at_threshold(self):
        ds = make_set([(0.5, True), (0.9, True)])
        entries = cwsa_gradient(ds, 0.5)
        assert entries[0].status == GRADIENT_KINK
        assert entries[0].value is None
        assert entries[1].status == GRADIENT_INTERIOR
        # two retained records, so the interior slope halves
        assert entries[1].value == 1.0

    def test_abstained_records_get_zero(self):
        ds = make_set([(0.2, False), (0.9, True)])
        entries = cwsa_gradient(ds, 0.5)
        assert entries[0].status == GRADIENT_ABSTAINED
        assert entries[0].value == 0.0

    @staticmethod
    def triples(pairs, tau):
        return [tuple(entry) for entry in cwsa_gradient(make_set(pairs), tau)]

    def test_matches_naive_oracle_with_kinks(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            # two-decimal confidences and thresholds put many records exactly at tau
            n = int(rng.integers(1, 80))
            pairs = [(round(c, 2), corr) for c, corr in random_pairs(rng, n)]
            tau = round(float(rng.uniform(0.0, 0.99)), 2)
            if rng.random() < 0.5:
                tau = min(pairs[int(rng.integers(0, n))][0], 0.99)
            assert self.triples(pairs, tau) == naive_impl.gradient_naive(pairs, tau)

    def test_all_abstained_divides_nothing(self):
        pairs = [(0.1, True), (0.4, False), (0.69, True)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.triples(pairs, 0.7)
        assert got == naive_impl.gradient_naive(pairs, 0.7)
        assert got == [(0, 0.0, "abstained"), (1, 0.0, "abstained"), (2, 0.0, "abstained")]

    def test_all_retained(self):
        pairs = random_pairs(np.random.default_rng(32), 50, low=0.3, high=1.0)
        got = self.triples(pairs, 0.25)
        assert got == naive_impl.gradient_naive(pairs, 0.25)
        assert {status for _, _, status in got} == {GRADIENT_INTERIOR}

    @pytest.mark.parametrize("pair", [(0.9, True), (0.9, False), (0.5, True), (0.2, False)])
    def test_single_record_matches_naive_oracle(self, pair):
        assert self.triples([pair], 0.5) == naive_impl.gradient_naive([pair], 0.5)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(29)
        step = 1e-6
        for _ in range(300):
            n = int(rng.integers(2, 120))
            tau = float(rng.uniform(0, 0.9))
            pairs = random_pairs(rng, n, low=tau + 1e-4, high=1.0 - 1e-4)
            ds = make_set(pairs)
            entries = cwsa_gradient(ds, tau)
            i = int(rng.integers(0, n))
            assert entries[i].status == GRADIENT_INTERIOR
            up = list(pairs)
            down = list(pairs)
            up[i] = (pairs[i][0] + step, pairs[i][1])
            down[i] = (pairs[i][0] - step, pairs[i][1])
            span = up[i][0] - down[i][0]
            fd = (cwsa(make_set(up), tau) - cwsa(make_set(down), tau)) / span
            assert fd == pytest.approx(entries[i].value, rel=1e-6)
