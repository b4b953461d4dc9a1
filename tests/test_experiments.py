"""Tests for the seeded simulation studies."""

import csv
import math
import multiprocessing
import os
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indecide import experiments, gmm
from indecide.experiments import (
    SimConfig,
    _parallel_map,
    plugin_population_risk,
    run_accuracy_sweep,
    run_consistency_trend,
    run_intro_tradeoff,
    run_np_sweep,
    sim_result_to_csv,
    sim_result_to_svg,
    _aggregate,
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
        assert set(result.rows["arm"]) == {"lda", "oracle-eta"}
        assert list(result.rows) == ["delta", "rep", "arm", "gamma_hat", "test_gamma", "conditional_error", "feasible"]
        assert all(column.shape == (5 * 2,) for column in result.rows.values())

    def test_rerun_identical(self):
        a = run_accuracy_sweep(self.small_cfg())
        b = run_accuracy_sweep(self.small_cfg())
        assert same_columns(a.rows, b.rows)
        assert same_columns(a.aggregates, b.aggregates)

    def test_workers_do_not_change_results(self, process_pools, monkeypatch):
        # accuracy-sweep's 11 replications go out in chunks of 2 (the last of 1) on 2 workers, one by one
        # on 3; np-sweep stacks them in 2 blocks (6 and 5 replications of 1200 uniforms), one per worker on
        # 2 workers and on 3
        monkeypatch.setattr(experiments, "_BLOCK_VALUES", 6 * 1200)
        cfg = self.small_cfg(reps=11)
        assert experiments._np_blocks(cfg) == [range(0, 6), range(6, 11)]
        for run in (run_accuracy_sweep, run_np_sweep):
            a = run(cfg, workers=1)
            for workers in (2, 3):
                b = run(cfg, workers=workers)
                assert same_columns(a.rows, b.rows)
                assert same_columns(a.aggregates, b.aggregates)
        assert [(size, chunksize) for size, _, chunksize in process_pools] == [(2, 2), (3, 1), (2, 1), (2, 1)]

    def test_error_controlled_on_average(self):
        cfg = self.small_cfg(
            n_cal=2000, n_test=2000, reps=20, scorer="oracle-eta"
        )
        result = run_accuracy_sweep(cfg)
        errs = result.rows["conditional_error"][result.rows["feasible"] == 1]
        assert np.mean(errs) <= cfg.alpha + 0.02


class TestNpSweep:
    def test_arms_and_bands(self):
        cfg = SimConfig(
            n_train=300, n_cal=300, n_test=300, reps=5, delta_grid=(1.0,), seed=4
        )
        result = run_np_sweep(cfg)
        assert set(result.rows["arm"]) == {"algorithm2", "np-baseline", "bayes"}
        assert (result.rows["cal_type2_curve_p5"] <= result.rows["cal_type2_curve_p95"] + 1e-12).all()

    def test_blocks_of_replications(self):
        # 3 * 2^16 uniforms per block, 2 (n_train + n_cal + n_test) per cell: 8 replications of 4 deltas at
        # the default sizes; 1 where the training or test split alone is large, however small n_cal is
        cases = {
            SimConfig(reps=17): [range(0, 8), range(8, 16), range(16, 17)],
            SimConfig(reps=100, n_cal=10, n_test=10**6): [range(rep, rep + 1) for rep in range(100)],
            SimConfig(reps=2, n_train=10**5, n_cal=10, delta_grid=(1.0,)): [range(0, 1), range(1, 2)],
            SimConfig(reps=3, n_train=10, n_cal=10, n_test=10): [range(0, 3)],
        }
        for cfg, blocks in cases.items():
            assert experiments._np_blocks(cfg) == blocks
            per_rep = 2 * (cfg.n_train + cfg.n_cal + cfg.n_test) * len(cfg.delta_grid)
            assert all(len(block) == 1 or len(block) * per_rep <= experiments._BLOCK_VALUES for block in blocks)

    def test_a_large_replication_stacks_its_deltas_in_turn(self, monkeypatch):
        # 2 (300 + 300 + 300) = 1800 uniforms per cell: at the default bound both replications and all three
        # deltas are one stack; at 3600 each replication is a block that stacks 2 deltas, then 1; at 1800 or
        # below, 1 at a time; and the rows and aggregates keep their bytes
        cfg = SimConfig(n_train=300, n_cal=300, n_test=300, reps=2, delta_grid=(0.5, 1.0, 2.0), seed=6)
        whole, stack, stacks = run_np_sweep(cfg), experiments._np_stack, []
        monkeypatch.setattr(experiments, "_np_stack", lambda *args: stacks.append(args[2]) or stack(*args))
        for bound, deltas in ((3600, [(0.5, 1.0), (2.0,)]), (1800, [(0.5,), (1.0,), (2.0,)]), (1, [(0.5,), (1.0,), (2.0,)])):
            monkeypatch.setattr(experiments, "_BLOCK_VALUES", bound)
            assert experiments._np_blocks(cfg) == [range(0, 1), range(1, 2)]
            stacks.clear()
            part = run_np_sweep(cfg)
            assert stacks == deltas * 2
            assert same_columns(whole.rows, part.rows) and same_columns(whole.aggregates, part.aggregates)

    def test_indecision_dominates_baseline(self):
        cfg = SimConfig(
            n_train=1000, n_cal=1000, n_test=1000, reps=10, delta_grid=(1.0,), seed=5
        )
        rows = run_np_sweep(cfg).rows
        alg, base = (rows["arm"] == "algorithm2"), (rows["arm"] == "np-baseline")
        assert (rows["rep"][alg] == rows["rep"][base]).all()
        wins = np.count_nonzero(rows["type2"][alg] <= rows["type2"][base] + 1e-12)
        assert wins >= 9


class TestIntroTradeoff:
    def test_closed_form_columns(self):
        cfg = SimConfig(n_test=5000, reps=3, delta_grid=(1.0, 2.0), seed=6)
        result = run_intro_tradeoff(cfg)
        first = int(np.flatnonzero(result.rows["delta"] == 1.0)[0])
        row = {name: column[first] for name, column in result.rows.items()}
        assert row["separation_2delta"] == 2.0
        assert row["bayes_accuracy"] == pytest.approx(1.0 - normal_tail(1.0), rel=1e-12)
        exact = gmm.gamma_for_target_risk(gmm.GmmSpec(1.0), 0.01).gamma
        assert row["gamma_star"] == pytest.approx(exact, rel=1e-9)
        assert row["empirical_gamma"] == pytest.approx(exact, abs=0.03)
        assert row["empirical_conditional_error"] <= 0.05

    def test_oracle_solved_once_per_delta(self, monkeypatch):
        calls, solve = [], gmm.gamma_for_target_risk
        monkeypatch.setattr(gmm, "gamma_for_target_risk", lambda *a: calls.append(a) or solve(*a))
        run_intro_tradeoff(SimConfig(n_test=50, reps=3, delta_grid=(1.0, 2.0), seed=6))
        assert len(calls) == 2

    def test_gamma_star_decreases_with_separation(self):
        cfg = SimConfig(n_test=100, reps=1, delta_grid=(0.5, 1.0, 1.5, 2.0), seed=7)
        result = run_intro_tradeoff(cfg)
        gammas = result.rows["gamma_star"][np.argsort(result.rows["delta"], kind="stable")]
        assert all(b <= a + 1e-12 for a, b in zip(gammas, gammas[1:]))


class TestConsistencyTrend:
    def test_gap_positive_and_shrinking(self):
        result = run_consistency_trend(SimConfig(reps=20, seed=8))
        medians = dict(zip(result.aggregates["n_train"].tolist(), result.aggregates["risk_gap_median"]))
        assert medians[100] >= 0.0
        assert medians[1000] <= medians[100]

    def test_oracle_solved_once_per_study(self, monkeypatch):
        calls, solve = [], gmm.threshold_for_gamma
        monkeypatch.setattr(gmm, "threshold_for_gamma", lambda *a: calls.append(a) or solve(*a))
        rows = run_consistency_trend(SimConfig(reps=3, seed=8)).rows
        assert len(calls) == 1
        assert (rows["oracle_risk"] == solve(gmm.GmmSpec(1.0), 0.3).risk).all()

    def test_empty_study_rejected(self):
        # reps = 0 used to write header-only CSVs, while the other studies rejected it
        with pytest.raises(ValueError, match="reps must be at least 1"):
            run_consistency_trend(SimConfig(reps=0))

    def test_population_risk_matches_oracle_at_true_center(self):
        for gamma in (0.0, 0.3, 0.7):
            exact = gmm.threshold_for_gamma(gmm.GmmSpec(1.0), gamma).risk
            val = plugin_population_risk(0.0, True, 1.0, gamma)
            assert val == pytest.approx(exact, abs=1e-9)

    def test_population_risk_matches_the_200_step_loop(self):
        # the fixed-length loop that numerics.bisect replaced: every step past
        # the fixed point leaves the bracket as it is
        def loop_risk(center, predict1_right, delta, gamma):
            def errors(h):
                return gmm.interval_errors(gmm.GmmSpec(delta), center - h, center + h, predict1_right)

            lo, hi = 0.0, 1.0
            while errors(hi)["gamma"] < gamma and hi <= 1e6:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if errors(mid)["gamma"] < gamma else (lo, mid)
            return errors(0.5 * (lo + hi))["conditional_error"]

        rng = np.random.default_rng(8)
        for _ in range(300):
            args = (rng.normal(0.0, 0.5), bool(rng.integers(2)), rng.uniform(0.05, 5.0), rng.uniform(0.0, 0.999))
            assert plugin_population_risk(*args) == loop_risk(*args)

    @staticmethod
    def mpmath_population_risk(center, predict1_right, delta, gamma):
        """The risk at the half-width whose mixture mass is gamma, by a 40-digit bisection."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            c, d, g = mpmath.mpf(center), mpmath.mpf(delta), mpmath.mpf(gamma)

            def tail(x):
                return mpmath.erfc(x / mpmath.sqrt(2)) / 2

            def mass(h):
                return (tail(c - h - d) - tail(c + h - d) + tail(c - h + d) - tail(c + h + d)) / 2

            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            while mass(hi) < g:
                lo, hi = hi, 2 * hi
            for _ in range(150):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if mass(mid) < g else (lo, mid)
            a, b = c - lo, c + lo
            if predict1_right:
                wrong = tail(b + d) + tail(d - a)
            else:
                wrong = tail(b - d) + tail(-a - d)
            return float(wrong / 2 / (1 - g))

    @pytest.mark.parametrize(
        "case, expected",
        [
            # 1 - tail(a - delta) cancelled: the risk came out as 4.70e-31
            ((1.0292, True, 3.6727, 0.99747), 3.462006820521e-21),
            # and here as 1.0000000000000286, above 1
            ((-0.0608, False, 3.0941, 0.99702), 1.0),
        ],
    )
    def test_population_risk_in_the_deep_tail(self, case, expected):
        reference = self.mpmath_population_risk(*case)
        assert reference == pytest.approx(expected, rel=1e-12, abs=0.0)
        risk = plugin_population_risk(*case)
        assert risk <= 1.0
        assert risk == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_population_risk_matches_mpmath(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            case = (rng.normal(0.0, 0.5), bool(rng.integers(2)), rng.uniform(0.05, 5.0), rng.uniform(0.0, 0.999))
            risk = plugin_population_risk(*case)
            assert risk <= 1.0
            assert risk == pytest.approx(self.mpmath_population_risk(*case), rel=1e-12, abs=0.0)

    def test_population_risk_penalizes_offset(self):
        base = plugin_population_risk(0.0, True, 1.0, 0.3)
        off = plugin_population_risk(0.5, True, 1.0, 0.3)
        assert off > base

    def test_flipped_orientation_is_worse(self):
        good = plugin_population_risk(0.0, True, 1.0, 0.2)
        bad = plugin_population_risk(0.0, False, 1.0, 0.2)
        assert bad > 0.5 > good



class TestParallelMap:
    rep = staticmethod(partial(experiments._consistency_rep, 0.25, 7))

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_serial_results_in_order_under_each_start_method(self, monkeypatch, process_pools, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setattr(experiments, "_start_method", lambda: method)
        serial = [self.rep(r) for r in range(5)]
        assert _parallel_map(self.rep, range(5), 2) == serial
        assert process_pools == [(2, method, 1)]

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_blocks_of_items_come_back_in_item_order(self, monkeypatch, process_pools, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setattr(experiments, "_start_method", lambda: method)
        # 23 items on 2 workers: eight blocks of ceil(23 / 8) = 3, the last one of 2
        assert _parallel_map(self.rep, range(23), 2) == [self.rep(r) for r in range(23)]
        assert process_pools == [(2, method, 3)]

    def test_pool_capped_at_item_count(self, process_pools):
        # --workers 8 with reps = 2 used to start 8 processes
        assert _parallel_map(abs, [-1, -2], 8) == [1, 2]
        assert [(size, chunksize) for size, _, chunksize in process_pools] == [(2, 1)]

    def test_one_item_or_one_worker_runs_in_process(self, process_pools):
        assert _parallel_map(abs, [-3], 8) == [3]
        assert _parallel_map(abs, [-1, -2], 1) == [1, 2]
        assert process_pools == []

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert experiments._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert experiments._usable_cpus() == 64

    def test_no_fork_while_a_second_thread_runs(self, process_pools):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert _parallel_map(abs, [-1, -2], 2) == [1, 2]
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert process_pools == [(2, "spawn", 1)]

def sorted_list_percentile(values, q):
    """Nearest-rank percentile by sorted() over a Python list.

    The earlier _percentile, kept as the oracle for the numpy one.
    """
    vals = sorted(v for v in values if not (isinstance(v, float) and math.isnan(v)))
    if not vals:
        return math.nan
    rank = min(len(vals) - 1, max(0, math.ceil(q / 100.0 * len(vals)) - 1))
    return float(vals[rank])


def row_dict_aggregate(rows, keys, metrics):
    """The dict-grouping aggregator the columnar one replaced, kept as the
    oracle with one change: groups in ascending key order, not by str(key)."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    out = []
    for key in sorted(groups):
        agg = dict(zip(keys, key), reps=len(groups[key]))
        for m in metrics:
            vals = [row[m] for row in groups[key]]
            clean = [v for v in vals if not math.isnan(v)]
            agg[f"{m}_mean"] = float(np.mean(clean)) if clean else math.nan
            srt = sorted(clean)
            mid = len(srt) // 2
            agg[f"{m}_median"] = (
                math.nan if not srt else float(srt[mid]) if len(srt) % 2 else 0.5 * (srt[mid - 1] + srt[mid])
            )
            agg[f"{m}_p5"] = sorted_list_percentile(vals, 5.0)
            agg[f"{m}_p95"] = sorted_list_percentile(vals, 95.0)
        out.append(agg)
    return out


def same_columns(a, b):
    """Same names in the same order, and bit-equal columns (NaN equal to NaN)."""
    return list(a) == list(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 12), st.data(), st.sampled_from([0.0, 5.0, 50.0, 95.0, 100.0]))
    def test_percentile_of_a_stack_is_its_rows(self, rows, n, data, q):
        values = np.array(data.draw(st.lists(st.lists(_TIED, min_size=n, max_size=n), min_size=rows, max_size=rows)))
        stack = _percentile(values.reshape(rows, n), q)
        assert stack.shape == (rows,)
        assert all(same_float(float(stack[i]), _percentile(values[i], q)) for i in range(rows))

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
        assert result.aggregates["reps"].tolist() == [3, 3]
        stats = [f"{m}_{s}" for m in ("gamma_hat", "test_gamma", "conditional_error") for s in ("mean", "median", "p5", "p95")]
        assert list(result.aggregates) == ["delta", "arm", "reps"] + stats

    def test_groups_in_ascending_key_order(self, tmp_path):
        # grouping by str(key) used to list delta 10 before 2
        cfg = SimConfig(n_train=100, n_cal=100, n_test=100, reps=2, delta_grid=(0.5, 2.0, 10.0), seed=1)
        sim_result_to_csv(run_accuracy_sweep(cfg), tmp_path / "rows.csv", tmp_path / "agg.csv")
        lines = (tmp_path / "agg.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [
            [delta, arm] for delta in ("0.5", "2", "10") for arm in ("lda", "oracle-eta")
        ]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the mean of inf and -inf
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([2.0, 10.0, 0.5]), st.sampled_from(["b", "a"]), _TIED), min_size=1, max_size=40)
    )
    def test_aggregate_equals_row_dict_oracle(self, cells):
        rows = {"delta": np.array([c[0] for c in cells]), "arm": np.array([c[1] for c in cells]),
                "v": np.array([c[2] for c in cells])}
        agg = _aggregate(rows, ("delta", "arm"), ("v",))
        want = row_dict_aggregate([dict(zip(rows, c)) for c in cells], ("delta", "arm"), ("v",))
        assert list(zip(agg["delta"].tolist(), agg["arm"].tolist())) == [(w["delta"], w["arm"]) for w in want]
        assert agg["reps"].tolist() == [w["reps"] for w in want]
        for stat in ("v_mean", "v_median", "v_p5", "v_p95"):
            assert all(same_float(a, w[stat]) for a, w in zip(agg[stat].tolist(), want))


class TestSerialization:
    def test_csv_layout(self, tmp_path):
        cfg = SimConfig(n_train=100, n_cal=100, n_test=100, reps=2, delta_grid=(1.0,))
        result = run_accuracy_sweep(cfg)
        rows_path = tmp_path / "rows.csv"
        agg_path = tmp_path / "agg.csv"
        sim_result_to_csv(result, rows_path, agg_path)
        with open(rows_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(result.rows)
        assert len(rows) == 1 + len(result.rows["rep"])
        with open(agg_path, newline="") as fh:
            aggs = list(csv.reader(fh))
        assert aggs[0] == list(result.aggregates)
        assert len(aggs) == 1 + len(result.aggregates["reps"])

    def test_svg_written(self, tmp_path):
        cfg = SimConfig(n_train=100, n_cal=100, n_test=100, reps=2, delta_grid=(0.5, 1.0))
        result = run_accuracy_sweep(cfg)
        path = tmp_path / "chart.svg"
        sim_result_to_svg(result, "conditional_error", path)
        assert "<svg" in path.read_text()
