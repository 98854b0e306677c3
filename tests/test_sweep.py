import builtins
import itertools
from decimal import Decimal

import numpy as np
import pytest

from cwsa_eval import (
    ArchetypeSpec,
    BinningSpec,
    InsufficientDataError,
    ThresholdGrid,
    aumcc,
    aurc,
    brier,
    eaurc,
    ece,
    generate,
    mce,
    point_metrics,
    rank,
    sweep,
)
from cwsa_eval import kernels
from cwsa_eval.dataio import point_report_doc
from cwsa_eval.sweep import MAX_GRID_POINTS
from conftest import make_set, random_pairs
import naive_impl


class TestThresholdGrid:
    def test_default_grid_is_fifty_clean_points(self):
        taus = ThresholdGrid().thresholds()
        assert len(taus) == 50
        assert taus[0] == 0.50
        assert taus[-1] == 0.99
        # integer stepping: every point is the literal two-decimal value
        assert taus == [round(0.50 + i * 0.01, 10) for i in range(50)]
        assert all(t == float(f"{t:.2f}") for t in taus)

    def test_degenerate_single_point(self):
        grid = ThresholdGrid(start=0.7, end=0.7, step=0.01)
        assert grid.thresholds() == [0.7]

    def test_step_that_overshoots_end(self):
        grid = ThresholdGrid(start=0.5, end=0.55, step=0.02)
        assert grid.thresholds() == [0.5, 0.52, 0.54]

    def test_end_just_below_a_step_is_not_passed(self):
        # (end - start) / step is taken with a 1e-9 slack for float drift,
        # which must not add a step that lies past end
        assert ThresholdGrid(0.0, 0.29999999996, 0.1).thresholds() == [0.0, 0.1, 0.2]
        assert ThresholdGrid(0.0, 0.99999999994, 0.1).thresholds()[-1] == 0.9
        assert ThresholdGrid(0.0, 0.3, 0.1).thresholds() == [0.0, 0.1, 0.2, 0.3]

    def test_decimal_grids_keep_every_point(self):
        for start, end, step in itertools.product(
            range(0, 100, 7), range(0, 100, 3), ("0.001", "0.003", "0.01", "0.07", "0.1", "0.25")
        ):
            if start > end:
                continue
            grid = ThresholdGrid(start / 100, end / 100, float(step))
            expected = int((Decimal(end) / 100 - Decimal(start) / 100) / Decimal(step)) + 1
            assert len(grid) == expected, (start, end, step)
            assert grid.thresholds()[-1] <= end / 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": -0.1},
            {"end": 1.0},
            {"start": 0.9, "end": 0.5},
            {"step": 0.0},
            {"step": -0.01},
            {"step": float("nan")},
        ],
    )
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            ThresholdGrid(**kwargs)

    def test_len_is_the_threshold_count(self):
        for grid in (ThresholdGrid(), ThresholdGrid(0.5, 0.55, 0.02), ThresholdGrid(0.1, 0.9, 0.05)):
            assert len(grid) == len(grid.thresholds())

    def test_point_count_is_capped(self, monkeypatch):
        # the cap is checked before any threshold is built
        def banned(self):
            raise AssertionError("thresholds built for an oversized grid")

        monkeypatch.setattr(ThresholdGrid, "thresholds", banned)
        assert len(ThresholdGrid(0.0, 0.5, 0.5 / (MAX_GRID_POINTS - 1))) == MAX_GRID_POINTS
        for step in (0.5 / MAX_GRID_POINTS, 1e-12, 5e-324):
            with pytest.raises(ValueError, match="thresholds"):
                ThresholdGrid(0.0, 0.5, step)
        with pytest.raises(ValueError, match="thresholds"):
            ThresholdGrid.parse("0.5:0.9:1e-12")

    @pytest.mark.parametrize("step", [float("inf"), float("-inf")])
    def test_rejects_a_non_finite_step(self, step):
        with pytest.raises(ValueError, match="^step must be finite and positive"):
            ThresholdGrid(0.5, 0.9, step)
        with pytest.raises(ValueError, match="^step must be finite and positive"):
            ThresholdGrid(0.5, 0.5, step)
        with pytest.raises(ValueError, match="^step must be finite and positive"):
            ThresholdGrid.parse(f"0.5:0.9:{step}")

    @pytest.mark.parametrize(
        "start, end, step",
        [(0.99999999999, 0.99999999999, 0.01), (0.5, 0.99999999996, 0.49999999996)],
    )
    def test_rejects_a_threshold_that_rounds_to_one(self, start, end, step):
        # each threshold is rounded to 10 decimals after the end < 1 check
        with pytest.raises(ValueError, match="rounds to 1.0, which is not below 1$"):
            ThresholdGrid(start, end, step)
        assert ThresholdGrid(0.5, 0.99999999994, 0.49999999994).thresholds() == [0.5, 0.9999999999]

    def test_parse(self):
        assert ThresholdGrid.parse("0.5:0.9:0.1") == ThresholdGrid(0.5, 0.9, 0.1)
        with pytest.raises(ValueError):
            ThresholdGrid.parse("0.5:0.9")
        with pytest.raises(ValueError):
            ThresholdGrid.parse("a:b:c")


class TestAumcc:
    def test_constant_curve_returns_the_constant(self):
        assert aumcc([1.0, 0.75, 0.5], [0.75, 0.75, 0.75]) == 0.75

    def test_two_point_ramp(self):
        # single trapezoid: area 0.25 over a coverage span of 0.5
        assert aumcc([1.0, 0.5], [1.0, 0.0]) == 0.5

    def test_duplicate_coverages_are_averaged(self):
        # plateau at coverage 1.0 collapses to value 0.5; flat 0.5 curve
        assert aumcc([1.0, 1.0, 0.5], [0.0, 1.0, 0.5]) == 0.5

    def test_undefined_points_are_excluded(self):
        assert aumcc([1.0, 0.5, 0.0], [1.0, 0.0, None]) == 0.5

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            aumcc([1.0], [1.0])
        with pytest.raises(InsufficientDataError):
            aumcc([1.0, 0.5], [1.0, None])

    def test_unequal_lengths_are_rejected(self):
        # zip would silently drop the unmatched points
        with pytest.raises(ValueError, match="3 coverages but 2 values"):
            aumcc([1.0, 0.5, 0.25], [1.0, 0.0])
        with pytest.raises(ValueError, match="1 coverages but 2 values"):
            aumcc([1.0], [1.0, 0.0])

    def test_zero_coverage_span_collapses_to_the_mean_height(self):
        # coverage never moves: the curve is a single vertical stack and
        # its normalized area degenerates to the averaged value
        assert aumcc([1.0, 1.0], [1.0, 0.0]) == 0.5
        assert aumcc([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 1.0

    def test_order_invariance(self):
        rng = np.random.default_rng(41)
        coverages = sorted(rng.uniform(0.2, 1.0, 30).tolist(), reverse=True)
        values = rng.uniform(-1, 1, 30).tolist()
        base = aumcc(coverages, values)
        for _ in range(10):
            pairs = list(zip(coverages, values))
            rng.shuffle(pairs)
            assert aumcc([c for c, _ in pairs], [v for _, v in pairs]) == base


class TestSweep:
    def test_matches_independent_per_threshold_recomputation(self):
        rng = np.random.default_rng(42)
        pairs = random_pairs(rng, 400, p_correct=0.7)
        ds = make_set(pairs)
        grid = ThresholdGrid(0.1, 0.9, 0.05)
        report = sweep(ds, grid)
        assert len(report.points) == len(grid)
        for point, tau in zip(report.points, grid.thresholds()):
            fresh = point_metrics(ds, tau)
            assert point == fresh
            # evaluating only the already-retained records must agree too
            retained_pairs = [p for p in pairs if p[0] >= tau]
            if retained_pairs:
                again = point_metrics(make_set(retained_pairs), tau)
                assert again.cwsa == fresh.cwsa
                assert again.cwsa_plus == fresh.cwsa_plus

    def test_perfect_model_saturates_every_scalar(self):
        ds = generate(ArchetypeSpec.for_kind("perfect", n=50, seed=1))
        report = sweep(ds)
        for name in ("cwsa", "cwsa_plus", "selective_accuracy"):
            assert all(getattr(p, name) == 1.0 for p in report.points)
            assert report.scalars[f"auc_mcc_{name}"] == 1.0
        assert all(p.coverage == 1.0 for p in report.points)
        for name in ("ece", "mce", "brier", "aurc", "eaurc"):
            assert report.scalars[name] == 0.0

    def test_degenerate_grid_gives_single_point_curves(self):
        ds = make_set(random_pairs(np.random.default_rng(43), 50))
        report = sweep(ds, ThresholdGrid(start=0.6, end=0.6, step=0.01))
        [point] = report.points
        for name in ("cwsa", "cwsa_plus", "selective_accuracy"):
            assert report.scalars[f"auc_mcc_{name}"] == getattr(point, name)

    def test_a_grid_above_every_confidence_has_no_selective_accuracy_area(self):
        ds = make_set(random_pairs(np.random.default_rng(48), 50, high=0.5))
        report = sweep(ds, ThresholdGrid(0.6, 0.9, 0.1))
        assert [p.retained_count for p in report.points] == [0] * 4
        assert all(p.selective_accuracy is None for p in report.points)
        assert report.scalars["auc_mcc_selective_accuracy"] is None

    def test_curves_share_the_grid(self):
        ds = make_set(random_pairs(np.random.default_rng(44), 80))
        report = sweep(ds)
        assert [p.tau for p in report.points] == report.grid.thresholds()

    def test_one_sort_and_one_binning_per_report(self, monkeypatch):
        ds = make_set(random_pairs(np.random.default_rng(45), 300))
        bins = BinningSpec(9)
        calls = {"argsort": 0, "bincount": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)

        report = sweep(ds, ThresholdGrid(0.1, 0.9, 0.1), bins)
        assert calls == {"argsort": 1, "bincount": 3}
        calls.update(argsort=0, bincount=0)
        doc = point_report_doc(ds, 0.7, bins, "sha256:0")
        assert calls == {"argsort": 1, "bincount": 3}

        alone = {"ece": ece(ds, bins), "mce": mce(ds, bins), "brier": brier(ds),
                 "aurc": aurc(ds), "eaurc": eaurc(ds)}
        assert doc["baselines"] == alone
        assert list(doc["baselines"]) == list(alone)
        assert {name: report.scalars[name] for name in alone} == alone

    def test_tied_confidences_take_one_key_sort(self, monkeypatch):
        # Equal confidences side by side after the unstable sort are put
        # back in input order by a second sort, of int64 keys.
        pairs = [(round(c, 2), corr) for c, corr in random_pairs(np.random.default_rng(47), 300)]
        ds = make_set(pairs)
        calls = {"argsort": 0, "sort": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)

        report = sweep(ds, ThresholdGrid(0.1, 0.9, 0.1))
        assert calls == {"argsort": 1, "sort": 1}
        assert report.scalars["aurc"] == naive_impl.aurc_naive(pairs)

    def test_sweep_never_sorts(self, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("the grid kernel must not sort")

        monkeypatch.setattr(np, "sort", banned)
        monkeypatch.setattr(np, "lexsort", banned)
        monkeypatch.setattr(builtins, "sorted", banned)
        ds = make_set(random_pairs(np.random.default_rng(46), 2000))
        grid = ThresholdGrid(0.0, 0.999, 0.001)
        sums = kernels.sweep_accumulate(ds.confidence, ds.correct_u8, grid.thresholds())
        assert len(sums) == len(grid)

        argsorts = []

        def counted(*args, _fn=np.argsort, **kwargs):
            argsorts.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        report = sweep(ds, grid)
        assert len(argsorts) == 1  # the baselines' one sorted view
        assert [p.retained_count for p in report.points] == [s[0] for s in sums]


class TestRank:
    def _report(self, kind, seed):
        return sweep(generate(ArchetypeSpec.for_kind(kind, seed=seed)))

    def test_perfect_beats_random(self):
        ranked = rank([self._report("random", 7), self._report("perfect", 7)], by="cwsa_plus")
        assert [sid for sid, _ in ranked] == ["perfect-7", "random-7"]
        assert ranked[0][1] == 1.0
        assert 0.1 < ranked[1][1] < 0.25

    def test_singleton(self):
        report = self._report("calibrated", 3)
        assert rank([report], by="cwsa") == [
            ("calibrated-3", report.scalars["auc_mcc_cwsa"])
        ]

    def test_ties_break_lexicographically(self):
        a = self._report("perfect", 1)
        b = self._report("perfect", 1)
        b.source_id = "aaa-first"
        ranked = rank([a, b], by="cwsa_plus")
        assert [sid for sid, _ in ranked] == ["aaa-first", "perfect-1"]

    def test_merge_consistency_when_scalars_differ(self):
        a = self._report("perfect", 2)
        b = self._report("random", 2)
        merged = rank([a, b], by="cwsa_plus")
        singles = sorted(
            rank([a], by="cwsa_plus") + rank([b], by="cwsa_plus"),
            key=lambda e: -e[1],
        )
        assert merged == singles

    def test_mismatched_grids_rejected(self):
        ds = generate(ArchetypeSpec.for_kind("calibrated", seed=5))
        a = sweep(ds, ThresholdGrid())
        b = sweep(ds, ThresholdGrid(0.5, 0.9, 0.01))
        with pytest.raises(ValueError, match="incompatible"):
            rank([a, b], by="cwsa")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="rank by"):
            rank([self._report("perfect", 1)], by="ece")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            rank([], by="cwsa")
