"""Tests for the seeded simulation studies."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indecide import gmm
from indecide.experiments import (
    SimConfig,
    plugin_population_risk,
    run_accuracy_sweep,
    run_consistency_trend,
    run_intro_tradeoff,
    run_np_sweep,
    sim_result_to_csv,
    sim_result_to_svg,
    _draw_mixture,
    _percentile,
    oracle_eta,
)
from indecide.numerics import normal_tail, seeded_stream


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.reps == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reps": 0},
            {"delta_grid": ()},
            {"delta_grid": (0.0,)},
            {"alpha": 1.0},
            {"scorer": "mystery"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestSampling:
    def test_mixture_moments(self):
        rng = seeded_stream(51, 0)
        x, y = _draw_mixture(rng, 200_000, 1.5)
        assert set(np.unique(y)) == {1, 2}
        assert float((y == 1).mean()) == pytest.approx(0.5, abs=0.01)
        assert float(x[y == 1].mean()) == pytest.approx(1.5, abs=0.02)
        assert float(x[y == 2].std()) == pytest.approx(1.0, abs=0.02)

    def test_oracle_eta_values(self):
        assert oracle_eta(np.array([0.0]), 1.0)[0] == pytest.approx(0.5)
        # eta(x) = 1 / (1 + exp(-2 delta x))
        assert oracle_eta(np.array([1.0]), 1.0)[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-2.0)), rel=1e-12
        )
        assert oracle_eta(np.array([-500.0]), 2.0)[0] == 0.0


class TestAccuracySweep:
    def small_cfg(self, **kw):
        base = dict(
            n_train=200, n_cal=200, n_test=200, reps=5, delta_grid=(1.0,), seed=3
        )
        base.update(kw)
        return SimConfig(**base)

    def test_rows_and_arms(self):
        result = run_accuracy_sweep(self.small_cfg())
        arms = {row["arm"] for row in result.rows}
        assert arms == {"lda", "oracle-eta"}
        assert len(result.rows) == 5 * 2
        assert set(result.row_columns) <= set(result.rows[0].keys())

    def test_rerun_identical(self):
        a = run_accuracy_sweep(self.small_cfg())
        b = run_accuracy_sweep(self.small_cfg())
        assert a.rows == b.rows
        assert a.aggregates == b.aggregates

    def test_workers_do_not_change_results(self):
        a = run_accuracy_sweep(self.small_cfg(), workers=1)
        b = run_accuracy_sweep(self.small_cfg(), workers=2)
        assert a.rows == b.rows

    def test_error_controlled_on_average(self):
        cfg = self.small_cfg(
            n_cal=2000, n_test=2000, reps=20, scorer="oracle-eta"
        )
        result = run_accuracy_sweep(cfg)
        errs = [row["conditional_error"] for row in result.rows if row["feasible"]]
        assert np.mean(errs) <= cfg.alpha + 0.02


class TestNpSweep:
    def test_arms_and_bands(self):
        cfg = SimConfig(
            n_train=300, n_cal=300, n_test=300, reps=5, delta_grid=(1.0,), seed=4
        )
        result = run_np_sweep(cfg)
        arms = {row["arm"] for row in result.rows}
        assert arms == {"algorithm2", "np-baseline", "bayes"}
        for row in result.rows:
            assert row["cal_type2_curve_p5"] <= row["cal_type2_curve_p95"] + 1e-12

    def test_indecision_dominates_baseline(self):
        cfg = SimConfig(
            n_train=1000, n_cal=1000, n_test=1000, reps=10, delta_grid=(1.0,), seed=5
        )
        result = run_np_sweep(cfg)
        by_rep = {}
        for row in result.rows:
            by_rep.setdefault(row["rep"], {})[row["arm"]] = row
        wins = sum(
            1
            for rows in by_rep.values()
            if rows["algorithm2"]["type2"] <= rows["np-baseline"]["type2"] + 1e-12
        )
        assert wins >= 9


class TestIntroTradeoff:
    def test_closed_form_columns(self):
        cfg = SimConfig(n_test=5000, reps=3, delta_grid=(1.0, 2.0), seed=6)
        result = run_intro_tradeoff(cfg, target_error=0.01)
        row = next(r for r in result.rows if r["delta"] == 1.0)
        assert row["separation_2delta"] == 2.0
        assert row["bayes_accuracy"] == pytest.approx(1.0 - normal_tail(1.0), rel=1e-12)
        exact = gmm.gamma_for_target_risk(gmm.GmmSpec(1.0), 0.01).gamma
        assert row["gamma_star"] == pytest.approx(exact, rel=1e-9)
        assert row["empirical_gamma"] == pytest.approx(exact, abs=0.03)
        assert row["empirical_conditional_error"] <= 0.05

    def test_gamma_star_decreases_with_separation(self):
        cfg = SimConfig(n_test=100, reps=1, delta_grid=(0.5, 1.0, 1.5, 2.0), seed=7)
        result = run_intro_tradeoff(cfg, target_error=0.01)
        gammas = [r["gamma_star"] for r in sorted(result.rows, key=lambda r: r["delta"])]
        assert all(b <= a + 1e-12 for a, b in zip(gammas, gammas[1:]))


class TestConsistencyTrend:
    def test_gap_positive_and_shrinking(self):
        result = run_consistency_trend(reps=20, seed=8, n_grid=(100, 1000))
        medians = {a["n_train"]: a["risk_gap_median"] for a in result.aggregates}
        assert medians[100] >= 0.0
        assert medians[1000] <= medians[100]

    def test_population_risk_matches_oracle_at_true_center(self):
        for gamma in (0.0, 0.3, 0.7):
            exact = gmm.threshold_for_gamma(gmm.GmmSpec(1.0), gamma).risk
            val = plugin_population_risk(0.0, True, 1.0, gamma)
            assert val == pytest.approx(exact, abs=1e-9)

    def test_population_risk_penalizes_offset(self):
        base = plugin_population_risk(0.0, True, 1.0, 0.3)
        off = plugin_population_risk(0.5, True, 1.0, 0.3)
        assert off > base

    def test_flipped_orientation_is_worse(self):
        good = plugin_population_risk(0.0, True, 1.0, 0.2)
        bad = plugin_population_risk(0.0, False, 1.0, 0.2)
        assert bad > 0.5 > good


def sorted_list_percentile(values, q):
    """Nearest-rank percentile by sorted() over a Python list.

    The earlier _percentile, kept as the oracle for the numpy one.
    """
    vals = sorted(v for v in values if not (isinstance(v, float) and math.isnan(v)))
    if not vals:
        return math.nan
    rank = min(len(vals) - 1, max(0, math.ceil(q / 100.0 * len(vals)) - 1))
    return float(vals[rank])


def same_float(a, b):
    """Equal as values and in the sign of zero, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# few distinct values, so ties (0.0 against -0.0 among them) are common
_TIED = st.sampled_from([0.0, -0.0, math.nan, -math.nan, 1.0, -1.0, 0.5, math.inf, -math.inf])


class TestAggregation:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(_TIED | st.floats(), max_size=60),
        st.sampled_from([0.0, 5.0, 50.0, 95.0, 100.0]) | st.floats(0.0, 100.0),
        st.booleans(),
    )
    def test_percentile_equals_sorted_list_oracle(self, values, q, as_array):
        data = np.array(values, dtype=float) if as_array else values
        assert same_float(_percentile(data, q), sorted_list_percentile(values, q))

    def test_percentile_keeps_the_first_of_equal_zeros(self):
        for values in ([0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], np.array([math.nan, -0.0, 0.0, 0.0])):
            for q in (5.0, 50.0, 95.0):
                assert same_float(_percentile(values, q), sorted_list_percentile(values, q))
        assert math.copysign(1.0, _percentile([-0.0, 0.0, 1.0], 5.0)) == -1.0
        assert math.isnan(_percentile(np.array([]), 50.0))
        assert math.isnan(_percentile(np.array([math.nan]), 50.0))

    def test_percentile_order_statistics(self):
        vals = list(range(1, 101))
        assert _percentile(vals, 5.0) == 5.0
        assert _percentile(vals, 95.0) == 95.0
        assert _percentile([], 50.0) is not None and math.isnan(_percentile([], 50.0))
        assert _percentile([math.nan, 2.0], 50.0) == 2.0

    def test_aggregate_columns_present(self):
        cfg = SimConfig(n_train=100, n_cal=100, n_test=100, reps=3, delta_grid=(1.0,))
        result = run_accuracy_sweep(cfg)
        for agg in result.aggregates:
            assert agg["reps"] == 3
            for col in result.aggregate_columns:
                assert col in agg


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        cfg = SimConfig(n_train=100, n_cal=100, n_test=100, reps=2, delta_grid=(1.0,))
        result = run_accuracy_sweep(cfg)
        rows_path = tmp_path / "rows.csv"
        agg_path = tmp_path / "agg.csv"
        sim_result_to_csv(result, rows_path, agg_path)
        with open(rows_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == result.row_columns
        assert len(rows) == 1 + len(result.rows)
        with open(agg_path, newline="") as fh:
            aggs = list(csv.reader(fh))
        assert tuple(aggs[0]) == result.aggregate_columns

    def test_svg_written(self, tmp_path):
        cfg = SimConfig(n_train=100, n_cal=100, n_test=100, reps=2, delta_grid=(0.5, 1.0))
        result = run_accuracy_sweep(cfg)
        path = tmp_path / "chart.svg"
        sim_result_to_svg(result, "conditional_error", path)
        assert "<svg" in path.read_text()
