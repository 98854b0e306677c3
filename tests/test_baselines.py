import numpy as np
import pytest

from cwsa_eval import BinningSpec, aurc, brier, eaurc, ece, mce, risk_coverage_points
from cwsa_eval.baselines import MAX_BIN_COUNT, _descending_order
from conftest import make_set, random_pairs
import naive_impl


class TestBinningSpec:
    def test_default_bin_count(self):
        assert BinningSpec().bin_count == 15

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            BinningSpec(0)

    def test_rejects_more_than_the_cap(self):
        assert BinningSpec(MAX_BIN_COUNT).bin_count == MAX_BIN_COUNT
        with pytest.raises(ValueError, match="bin_count"):
            BinningSpec(MAX_BIN_COUNT + 1)


class TestEce:
    def test_perfectly_matched_single_record(self):
        assert ece(make_set([(1.0, True)])) == 0.0

    def test_total_miscalibration(self):
        assert ece(make_set([(1.0, False)] * 4)) == 1.0

    def test_single_occupied_bin(self):
        ds = make_set([(0.8, True), (0.8, False)])
        assert ece(ds, BinningSpec(10)) == abs(0.5 - 0.8)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pairs = random_pairs(rng, int(rng.integers(1, 80)))
            bins = int(rng.integers(1, 25))
            assert ece(make_set(pairs), BinningSpec(bins)) == pytest.approx(
                naive_impl.ece_naive(pairs, bins), abs=1e-12
            )


    # c * b rounds 0.29 * 100, 0.57 * 100, 0.58 * 100 and 0.58 * 50 one bin low;
    # each edge value shares its bin with a neighbour of the other correctness
    EDGE_PAIRS = [(0.285, True), (0.29, False), (0.57, True), (0.575, False), (0.58, True), (0.585, False)]

    @pytest.mark.parametrize("bins", [15, 50, 100])
    def test_bin_edges_match_naive_oracle(self, bins):
        ds = make_set(self.EDGE_PAIRS)
        assert ece(ds, BinningSpec(bins)) == naive_impl.ece_naive(self.EDGE_PAIRS, bins)
        assert mce(ds, BinningSpec(bins)) == naive_impl.mce_naive(self.EDGE_PAIRS, bins)


class TestMce:
    def test_zero_when_every_bin_matches(self):
        assert mce(make_set([(1.0, True)] * 3)) == 0.0

    def test_total_miscalibration(self):
        assert mce(make_set([(1.0, False)] * 2)) == 1.0

    def test_takes_the_largest_gap(self):
        # gap(0.8 bin) = |0.5 - 0.8| = 0.3 ; gap(0.6 bin) = |0.5 - 0.6| = 0.1
        ds = make_set([(0.8, True), (0.8, False), (0.6, True), (0.6, False)])
        assert mce(ds, BinningSpec(10)) == pytest.approx(0.3)

    def test_never_below_ece(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            ds = make_set(random_pairs(rng, int(rng.integers(1, 60))))
            bins = BinningSpec(int(rng.integers(1, 20)))
            assert ece(ds, bins) <= mce(ds, bins) + 1e-15


class TestBrier:
    def test_confident_and_correct(self):
        assert brier(make_set([(1.0, True)] * 3)) == 0.0

    def test_confident_and_wrong(self):
        assert brier(make_set([(1.0, False)] * 3)) == 1.0

    def test_hand_example(self):
        ds = make_set([(0.8, True), (0.6, False)])
        assert brier(ds) == pytest.approx(0.2)

    def test_zero_iff_confidence_equals_correctness(self):
        assert brier(make_set([(1.0, True), (0.0, False)])) == 0.0
        assert brier(make_set([(1.0, True), (0.1, False)])) > 0.0
        assert brier(make_set([(0.999, True)])) > 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            pairs = random_pairs(rng, int(rng.integers(1, 60)))
            assert brier(make_set(pairs)) == pytest.approx(
                naive_impl.brier_naive(pairs), abs=1e-12
            )


class TestAurc:
    def test_perfect_set(self):
        assert aurc(make_set([(1.0, True)] * 6)) == 0.0

    def test_all_wrong(self):
        assert aurc(make_set([(0.4, False), (0.9, False)])) == 1.0

    def test_two_record_example(self):
        # prefixes: risk(1) = 0, risk(2) = 1/2
        assert aurc(make_set([(0.9, True), (0.5, False)])) == 0.25

    def test_brute_force_small_sets(self):
        rng = np.random.default_rng(34)
        for n in range(1, 13):
            for _ in range(30):
                pairs = random_pairs(rng, n)
                assert aurc(make_set(pairs)) == naive_impl.aurc_naive(pairs)

    def test_ties_broken_by_input_order(self):
        pairs = [(0.5, False), (0.5, True), (0.5, True)]
        assert aurc(make_set(pairs)) == naive_impl.aurc_naive(pairs)

    def test_invariant_under_monotone_confidence_transform(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            pairs = random_pairs(rng, 40)
            cubed = [(c**3, corr) for c, corr in pairs]
            assert aurc(make_set(pairs)) == aurc(make_set(cubed))


class TestDescendingOrder:
    """One unstable sort, tie-repaired, gives the stable sort's permutation."""

    @staticmethod
    def check(confidence):
        confidence = np.asarray(confidence, dtype=np.float64)
        stable = np.argsort(-confidence, kind="stable")
        assert np.array_equal(_descending_order(confidence), stable)

    def test_signed_zeros_form_one_run(self):
        # -0.0 == 0.0, so a stable sort keeps them in input order
        self.check([0.0, -0.0, 0.5, -0.0, 0.0, 0.5, -0.0])
        self.check(np.random.default_rng(37).choice([0.0, -0.0, 0.5], 1000))

    def test_all_equal(self):
        self.check(np.full(1000, 0.3))

    def test_one_record(self):
        self.check([0.7])

    @pytest.mark.parametrize("decimals", [None, 2, 4], ids=["unique", "2dp", "4dp"])
    def test_matches_the_stable_sort(self, decimals):
        rng = np.random.default_rng(36)
        for n in (2, 3, 17, 1000, 100_000):
            confidence = rng.beta(5, 2, n)
            if decimals is not None:
                confidence = np.round(confidence, decimals)
            self.check(confidence)


class TestEaurc:
    def test_perfect_set(self):
        assert eaurc(make_set([(1.0, True)] * 4)) == 0.0

    def test_zero_when_order_already_ideal(self):
        pairs = [(0.9, True), (0.8, True), (0.3, False)]
        assert eaurc(make_set(pairs)) == 0.0

    def test_inverted_pair_example(self):
        # actual: (1/1 + 1/2)/2 = 0.75 ; ideal: (0/1 + 1/2)/2 = 0.25
        assert eaurc(make_set([(0.9, False), (0.5, True)])) == 0.5

    def test_never_negative(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            pairs = random_pairs(rng, int(rng.integers(1, 50)))
            assert eaurc(make_set(pairs)) >= 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            pairs = random_pairs(rng, int(rng.integers(1, 12)))
            assert eaurc(make_set(pairs)) == naive_impl.eaurc_naive(pairs)


class TestRiskCoveragePoints:
    def test_prefix_structure(self):
        pairs = [(0.9, True), (0.5, False), (0.7, True)]
        points = risk_coverage_points(make_set(pairs))
        assert [p.coverage for p in points] == [1 / 3, 2 / 3, 1.0]
        # descending confidence order: 0.9 (correct), 0.7 (correct), 0.5 (wrong)
        assert [p.risk for p in points] == [0.0, 0.0, 1 / 3]

    def test_risks_match_exhaustive_prefix_enumeration(self):
        rng = np.random.default_rng(38)
        pairs = random_pairs(rng, 9)
        expected = naive_impl.prefix_risks_naive(pairs)
        got = [p.risk for p in risk_coverage_points(make_set(pairs))]
        assert got == expected

    def test_columns_match_naive_oracle_on_ties(self):
        rng = np.random.default_rng(39)
        for n in (1, 2, 7, 100, 1000):
            # one-decimal confidences: most records tie with many others
            pairs = [(round(c, 1), corr) for c, corr in random_pairs(rng, n)]
            points = risk_coverage_points(make_set(pairs))
            assert [p.coverage for p in points] == [(i + 1) / n for i in range(n)]
            assert [p.risk for p in points] == naive_impl.prefix_risks_naive(pairs)
