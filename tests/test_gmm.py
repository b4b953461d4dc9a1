"""Tests for the closed-form Gaussian-mixture abstention oracle."""

import csv
import math
import os
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from band_oracles import plugin_band_oracle, threshold_for_gamma_oracle
from indecide import cli, gmm, kvdoc, svgchart
from indecide.calibration import _selective_errors
from indecide.experiments import _draw_mixture, plugin_population_risk
from indecide.numerics import bisect, normal_tail, normal_tail_vec, seeded_stream


class TestOperatingPoint:
    def test_gamma_zero_is_bayes(self):
        point = gmm.operating_point_at_t(gmm.GmmSpec(1.0), 0.0)
        assert point.gamma == 0.0
        assert point.risk == pytest.approx(normal_tail(1.0), abs=1e-15)

    def test_known_point(self):
        # delta=1, t=1: gamma = tail(0) - tail(2), risk = tail(2)/(1-gamma)
        point = gmm.operating_point_at_t(gmm.GmmSpec(1.0), 1.0)
        gamma = normal_tail(0.0) - normal_tail(2.0)
        assert point.gamma == pytest.approx(gamma, abs=1e-15)
        assert point.risk == pytest.approx(normal_tail(2.0) / (1.0 - gamma), rel=1e-14)

    def test_complement_consistent(self):
        for t in (0.0, 0.5, 2.0, 10.0):
            point = gmm.operating_point_at_t(gmm.GmmSpec(0.7), t)
            assert point.gamma + point.gamma_complement == pytest.approx(1.0, abs=1e-12)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            gmm.operating_point_at_t(gmm.GmmSpec(1.0), -0.1)

    def test_spec_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                gmm.GmmSpec(bad)

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_monotone_in_t(self, delta, t, h):
        spec = gmm.GmmSpec(delta)
        a = gmm.operating_point_at_t(spec, t)
        b = gmm.operating_point_at_t(spec, t + h)
        assert b.gamma >= a.gamma - 1e-14
        assert b.risk <= a.risk + 1e-14


def band_oracle(delta, t):
    """operating_point_at_t as first written, from three tails: (gamma,
    gamma_complement, risk) of the band |x| < t."""
    upper = normal_tail(delta + t)
    complement = normal_tail(t - delta) + upper
    gamma = min(max(normal_tail(delta - t) - upper, 0.0), 1.0)
    return gamma, complement, upper / complement if complement > 0 else 0.0


def interval_or_infinite():
    """An interval a <= b whose ends may be infinite."""
    end = st.floats(allow_nan=False) | st.floats(min_value=-12.0, max_value=12.0)
    return st.tuples(end, end).map(sorted)


class TestIntervalErrors:
    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=40.0) | st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.0, max_value=60.0) | st.floats(min_value=0.0, max_value=1e-3) | st.just(math.inf),
    )
    def test_symmetric_band_is_the_oracle_bit_for_bit(self, delta, t):
        spec = gmm.GmmSpec(delta)
        errors = gmm.interval_errors(spec, -t, t, True)
        point = gmm.operating_point_at_t(spec, t)
        expected = band_oracle(delta, t)
        assert (errors["gamma"], errors["gamma_complement"], errors["conditional_error"]) == expected
        assert (point.gamma, point.gamma_complement, point.risk) == expected

    @pytest.mark.parametrize(
        "a, b, predict1_right",
        [(-0.3, 1.2, True), (-1.5, 0.4, False), (-math.inf, 0.7, True), (0.2, math.inf, False), (-2.0, -0.5, True)],
    )
    def test_monte_carlo_within_five_standard_errors(self, a, b, predict1_right):
        n, delta = 10**6, 0.8
        x, y = _draw_mixture(seeded_stream(18, 0), n, delta)
        left, right = (2, 1) if predict1_right else (1, 2)
        decisions = np.where(x < a, left, np.where(x > b, right, 0))
        sample = _selective_errors(decisions, y)
        exact = gmm.interval_errors(gmm.GmmSpec(delta), a, b, predict1_right)
        decided = decisions != 0
        counts = {
            "gamma": n,
            "gamma_complement": n,
            "conditional_error": np.count_nonzero(decided),
            "type1": np.count_nonzero(decided & (y == 1)),
            "type2": np.count_nonzero(decided & (y == 2)),
            "type1_marginal": np.count_nonzero(y == 1),
        }
        sample["gamma_complement"] = 1.0 - sample["gamma"]
        assert exact.keys() == counts.keys()
        for name, count in counts.items():
            p = exact[name]
            assert abs(sample[name] - p) <= 5.0 * math.sqrt(p * (1.0 - p) / count), name

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=40.0), interval_or_infinite(), st.booleans())
    def test_rates_lie_in_the_unit_interval(self, delta, interval, predict1_right):
        errors = gmm.interval_errors(gmm.GmmSpec(delta), *interval, predict1_right)
        for rate in errors.values():
            assert 0.0 <= rate <= 1.0

    @pytest.mark.parametrize("a, b", [(1.0, 0.5), (math.nan, 1.0), (0.0, math.nan), (math.inf, -math.inf)])
    def test_interval_must_be_ordered(self, a, b):
        with pytest.raises(ValueError, match="a <= b"):
            gmm.interval_errors(gmm.GmmSpec(1.0), a, b, True)


class TestInversion:
    @pytest.mark.parametrize("delta", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.01, 0.3, 0.9, 0.999])
    def test_threshold_for_gamma_round_trip(self, delta, gamma):
        point = gmm.threshold_for_gamma(gmm.GmmSpec(delta), gamma)
        assert point.gamma == pytest.approx(gamma, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=0.01, max_value=0.99))
    def test_threshold_for_gamma_reaches_the_fixed_point(self, delta, gamma):
        # gamma is a difference of two tails: near gamma = 0.01 and small delta
        # both sit near 1/2, and ulp(1/2) is 1.1e-14 of 0.01, so the map itself
        # steps by about that much between adjacent ts; a bracket stopped at a
        # relative width of 1e-13 misses by up to 1e-12
        point = gmm.threshold_for_gamma(gmm.GmmSpec(delta), gamma)
        assert abs(point.gamma - gamma) <= 2e-14 * gamma

    def test_gamma_bounds(self):
        spec = gmm.GmmSpec(1.0)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                gmm.threshold_for_gamma(spec, bad)
            with pytest.raises(ValueError):  # the same band solve, off centre
                plugin_population_risk(0.3, False, 1.0, bad)

    def test_target_risk_round_trip(self):
        spec = gmm.GmmSpec(1.0)
        point = gmm.gamma_for_target_risk(spec, 0.05)
        assert point.risk == pytest.approx(0.05, abs=1e-9)
        assert point.gamma > 0.0

    def test_target_risk_anchor_value(self):
        # frozen output of an independent high-precision solve at delta=1,
        # target risk 0.10
        point = gmm.gamma_for_target_risk(gmm.GmmSpec(1.0), 0.10)
        assert point.gamma == pytest.approx(0.19400315299709847, abs=1e-9)
        assert point.t == pytest.approx(0.40104917207509868, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_target_risk_point_meets_the_target(self, delta, u):
        # targets log-uniform from 1e-12 up to the Bayes risk
        bayes = normal_tail(delta)
        target = math.exp(math.log(1e-12) + u * (math.log(bayes) - math.log(1e-12)))
        try:
            point = gmm.gamma_for_target_risk(gmm.GmmSpec(delta), target)
        except gmm.InfeasibleTargetError:
            return
        assert point.risk <= target

    def test_target_above_bayes_needs_no_abstention(self):
        spec = gmm.GmmSpec(1.0)
        point = gmm.gamma_for_target_risk(spec, 0.5)
        assert point.gamma == 0.0
        assert point.t == 0.0

    def test_easy_separation_knee(self):
        # at delta just past the point where the Bayes risk equals the
        # target, no abstention is needed
        point = gmm.gamma_for_target_risk(gmm.GmmSpec(2.3264), 0.01)
        assert point.gamma == 0.0

    def test_zero_target_infeasible(self):
        with pytest.raises(gmm.InfeasibleTargetError):
            gmm.gamma_for_target_risk(gmm.GmmSpec(1.0), 0.0)

    def test_target_met_just_before_the_tails_underflow(self):
        # 1 - gamma is about 1e-259 at the solution
        point = gmm.gamma_for_target_risk(gmm.GmmSpec(0.1), 0.001)
        assert point.t == pytest.approx(34.50484085339792, rel=1e-14)
        assert point.risk == pytest.approx(0.001, rel=1e-12)
        assert 0.0 < point.gamma_complement < 1e-250

    @pytest.mark.parametrize("delta, target", [(0.05, 0.01), (4.0, 1e-300)])
    def test_target_below_the_underflowed_risk_is_infeasible(self, delta, target):
        # the risk stays above the target until its error tail underflows to 0
        with pytest.raises(gmm.InfeasibleTargetError):
            gmm.gamma_for_target_risk(gmm.GmmSpec(delta), target)

    @settings(max_examples=40)
    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.001, max_value=0.98),
    )
    def test_risk_at_solved_gamma_matches(self, delta, gamma):
        spec = gmm.GmmSpec(delta)
        point = gmm.threshold_for_gamma(spec, gamma)
        check = gmm.operating_point_at_t(spec, point.t)
        assert check.risk == pytest.approx(point.risk, rel=1e-12, abs=1e-300)


class TestBandForGamma:
    """The one band solve against the two bisections it replaced (tests/band_oracles.py)."""

    def test_matches_the_bisections_it_replaced(self):
        rng = np.random.default_rng(25)
        for case in range(2000):
            delta = float(10.0 ** rng.uniform(-3.0, 1.0))
            gamma = 0.0 if case % 10 == 0 else float(rng.uniform(0.0, 0.999))
            center = 0.0 if case % 5 == 0 else float(rng.normal(0.0, 0.5 + delta))
            predict1_right = bool(rng.integers(2))
            spec = gmm.GmmSpec(delta)
            h, errors = gmm.band_for_gamma(spec, gamma, center, predict1_right)
            oracle_h, oracle_errors = plugin_band_oracle(center, predict1_right, delta, gamma)
            assert errors == oracle_errors, (delta, gamma, center, predict1_right)
            if gamma:
                assert h == oracle_h
            else:
                # the old plug-in bisection halved down to 2**-111 instead of
                # returning the empty band; at delta >= 1e-3 that moves no
                # tail argument of interval_errors
                assert (h, oracle_h) == (0.0, 2.0**-111)
            if center == 0.0:
                assert gmm.threshold_for_gamma(spec, gamma) == threshold_for_gamma_oracle(spec, gamma)


class TestCriticalExponent:
    def test_known_values(self):
        assert gmm.m_star(0.75) == pytest.approx(0.25, abs=1e-15)
        assert gmm.m_star(0.25) == pytest.approx(0.5625, abs=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, -0.3, 1.2])
    def test_m_star_domain(self, c):
        with pytest.raises(ValueError):
            gmm.m_star(c)

    def test_empirical_exponent_limits(self):
        # the observed exponent approaches the asymptotic curve as the
        # target shrinks
        for c in (0.25, 0.75):
            gaps = [
                abs(gmm.empirical_exponent(c, dt) - gmm.m_star(c))
                for dt in (1e-4, 1e-8, 1e-12)
            ]
            assert gaps[0] > gaps[-1]

    def test_empirical_exponent_domain(self):
        for c in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError):
                gmm.empirical_exponent(c, 1e-6)

    def test_envelope_brackets_asymptote(self):
        for c in (0.1, 0.3, 0.6, 0.9):
            low, high = gmm.phase_envelope(c, 1e-10)
            assert low <= gmm.m_star(c) <= high

    def test_envelope_tightens(self):
        for c in (0.2, 0.8):
            w1 = -math.inf
            for dt in (1e-4, 1e-8, 1e-14):
                low, high = gmm.phase_envelope(c, dt)
                width = high - low
                assert width > 0
                if math.isfinite(w1):
                    assert width < w1
                w1 = width


def lockstep_solve_t_grid(delta, target, increasing):
    """The phase grid's former solver, kept as the oracle: bracket doubling,
    then exactly 110 lockstep bisection steps on every cell.  Also returns,
    per cell, the last step that moved its bracket."""

    def value_at(t):
        if increasing:
            return normal_tail_vec(delta - t) - normal_tail_vec(delta + t)
        return normal_tail_vec(t - delta) + normal_tail_vec(delta + t)

    lo = np.zeros_like(delta)
    hi = delta + 2.0
    for _ in range(70):
        short = (value_at(hi) < target) == increasing
        if not short.any():
            break
        hi = np.where(short, hi * 2.0, hi)
    last_move = np.zeros(delta.size, dtype=int)
    for step in range(1, 111):
        mid = 0.5 * (lo + hi)
        below = (value_at(mid) < target) == increasing
        new_lo, new_hi = np.where(below, mid, lo), np.where(below, hi, mid)
        last_move[(new_lo != lo) | (new_hi != hi)] = step
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi), last_move


class TestSolveTGrid:
    @staticmethod
    def _pairs(seed):
        rng = np.random.default_rng(seed)
        # wide random pairs: tiny deltas with tiny targets run into the
        # 110-step cap, targets near 1 need the bracket to grow; then targets
        # 1 - gamma at a threshold below 1e-20, where the decreasing side
        # runs into the cap
        delta = 10.0 ** rng.uniform(-4.0, 1.0, 4000)
        tiny, d = 10.0 ** rng.uniform(-300.0, -20.0, 1000), delta[3000:]
        target = np.concatenate(
            [10.0 ** rng.uniform(-300.0, -1e-4, 3000), normal_tail_vec(tiny - d) + normal_tail_vec(d + tiny)]
        )
        # upper-panel cells near c = 0.55 at delta_target = 1e-15, where t is
        # near 1e-10 and the fixed point takes about 90 steps
        dt = 1e-15
        c = rng.uniform(0.55, 0.6, 500)
        m = rng.uniform(0.95, 0.995, 500)
        delta = np.concatenate([delta, c * math.sqrt(2.0 * math.log(1.0 / dt))])
        target = np.concatenate([target, dt**m])
        return delta, target

    @pytest.mark.parametrize("increasing", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_equal_to_lockstep_oracle(self, increasing, seed):
        delta, target = self._pairs(seed)
        t, steps = gmm._solve_t_grid(delta, target, increasing)
        t_ref, last_move = lockstep_solve_t_grid(delta, target, increasing)
        assert np.array_equal(t, t_ref)
        # moves are consecutive up to the fixed point, so the count is the last move
        assert np.array_equal(steps, last_move)

    def test_pairs_reach_the_cap_and_ninety_steps(self):
        delta, target = self._pairs(0)
        _, steps = gmm._solve_t_grid(delta, target, True)
        assert (steps == 110).sum() > 100
        assert 85 <= steps[-500:].max() < 110

    def test_empty_side(self):
        t, steps = gmm._solve_t_grid(np.array([]), np.array([]), True)
        assert t.size == 0 and steps.size == 0

    @pytest.mark.parametrize("increasing", [True, False])
    def test_bisect_evaluating_every_step_matches_the_oracle(self, increasing):
        delta, target = self._pairs(1)
        t, steps = bisect(lambda t, d, tg: gmm._below(d, tg, t, increasing), delta + 2.0, delta, target)
        t_ref, last_move = lockstep_solve_t_grid(delta, target, increasing)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(steps, last_move)


def plain_bisection_tail_evals(delta, target, increasing, last_move):
    """Tail evaluations of the bisection that evaluates its predicate at every
    step: two per cell for each bracket check (at most 70) and for each step up
    to the first that does not move the cell (at most 110)."""
    hi = delta + 2.0
    short = np.ones(delta.size, dtype=bool)
    checks = np.zeros(delta.size, dtype=int)
    for _ in range(70):
        checks += short
        short &= (gmm._t_map(delta, hi, increasing) < target) == increasing
        if not short.any():
            break
        hi = np.where(short, 2.0 * hi, hi)
    return 2 * int((checks + np.minimum(last_move + 1, 110)).sum())


def panel_cells(delta_target, c, m):
    """delta and target of the phase-grid cells c x m, as phase_grid builds them."""
    c_mat, m_mat = np.meshgrid(c, m, indexing="ij")
    return c_mat.ravel() * math.sqrt(2.0 * math.log(1.0 / delta_target)), delta_target ** m_mat.ravel()


class TestWindowedBisection:
    """The solver evaluates its predicate only inside a window checked around a
    Newton estimate; these tests pin that the shortcut changes no bit."""

    @pytest.mark.parametrize("increasing", [True, False])
    @pytest.mark.parametrize(
        "wrong",
        [
            lambda t: np.full_like(t, np.nan),
            np.zeros_like,
            lambda t: np.full_like(t, np.inf),
            lambda t: 2.0 * t,
            lambda t: 1e-10 * t,
        ],
        ids=["nan", "zero", "inf", "double", "tiny"],
    )
    def test_any_estimate_keeps_the_oracle_bits(self, monkeypatch, increasing, wrong):
        delta, target = TestSolveTGrid._pairs(0)
        estimate = gmm._t_estimate
        monkeypatch.setattr(gmm, "_t_estimate", lambda d, tg, inc: wrong(estimate(d, tg, inc)))
        t, steps = gmm._solve_t_grid(delta, target, increasing)
        t_ref, last_move = lockstep_solve_t_grid(delta, target, increasing)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(steps, last_move)

    # (i_c, i_m) cells of the 777-point lower panel where a window trusted
    # without the ulp margin moved t: the first four by 1-3 ulp under another
    # Newton estimate, the other seven by 4-8 ulp under this one, both with a
    # first window of 1e-15
    CELLS_777 = [(463, 1), (466, 2), (468, 1), (541, 1), (416, 1), (435, 0), (472, 0), (500, 1), (510, 2), (537, 1), (600, 0)]

    def _cells_777(self):
        c, m = np.linspace(0.05, 0.45, 777), np.linspace(0.005, 0.995, 777)
        i_c, i_m = np.array(self.CELLS_777).T
        delta, target = panel_cells(1e-7, c, m)
        cells = i_c * 777 + i_m
        return delta[cells], target[cells]

    def test_cells_where_a_narrow_window_moved_t(self):
        delta, target = self._cells_777()
        t, steps = gmm._solve_t_grid(delta, target, False)
        t_ref, last_move = lockstep_solve_t_grid(delta, target, False)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(steps, last_move)

    def test_ulp_margin_keeps_even_a_1e_15_window_exact(self, monkeypatch):
        monkeypatch.setattr(gmm, "_WINDOWS", (1e-15,))
        delta, target = self._cells_777()
        true_to, false_from = gmm._t_window(delta, target, False)
        assert np.isfinite(true_to).all() and np.isfinite(false_from).all()
        t, steps = gmm._solve_t_grid(delta, target, False)
        t_ref, last_move = lockstep_solve_t_grid(delta, target, False)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(steps, last_move)

    def test_ndtr_never_steps_down_across_the_margin(self):
        from scipy.special import ndtr

        x = np.random.default_rng(11).uniform(-40.0, 40.0, 200_000)
        y = x
        for _ in range(gmm._MONOTONE_ULPS):
            y = np.nextafter(y, np.inf)
        assert (ndtr(y) >= ndtr(x)).all()

    @pytest.mark.parametrize(
        "delta_target, c_lo, c_hi, increasing", [(1e-7, 0.05, 0.45, False), (1e-15, 0.55, 0.95, True)]
    )
    def test_fewer_than_half_the_tail_evaluations(self, monkeypatch, delta_target, c_lo, c_hi, increasing):
        # every 25th c row of a 500-point panel
        delta, target = panel_cells(
            delta_target, np.linspace(c_lo, c_hi, 500)[::25], np.linspace(0.005, 0.995, 500)
        )
        t_ref, last_move = lockstep_solve_t_grid(delta, target, increasing)
        plain = plain_bisection_tail_evals(delta, target, increasing, last_move)
        evals, tail = [], gmm.normal_tail_vec
        monkeypatch.setattr(gmm, "normal_tail_vec", lambda x: evals.append(np.size(x)) or tail(x))
        t, steps = gmm._solve_t_grid(delta, target, increasing)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(steps, last_move)
        assert sum(evals) < plain / 2


class TestPhaseGrid:
    COLUMNS = (
        "c",
        "m",
        "gamma",
        "t",
        "risk_ratio_raw",
        "risk_ratio_capped",
        "resolved",
    )

    def _cfg(self, **kw):
        base = dict(
            delta_target=1e-7,
            c_grid=(0.1, 0.3, 0.48, 0.52, 0.7, 0.9),
            m_grid=(0.1, 0.5, 0.9),
        )
        base.update(kw)
        return gmm.PhaseGridConfig(**base)

    def test_row_major_order_and_count(self):
        cfg = self._cfg()
        grid = gmm.phase_grid(cfg)
        assert len(grid) == len(cfg.c_grid) * len(cfg.m_grid)
        assert all(getattr(grid, name).shape == (len(grid),) for name in self.COLUMNS)
        assert grid.c[:3].tolist() == [0.1, 0.1, 0.1]
        assert grid.m[:3].tolist() == [0.1, 0.5, 0.9]

    def test_dead_band_unresolved(self):
        grid = gmm.phase_grid(self._cfg())
        for c, resolved, capped in zip(grid.c, grid.resolved, grid.risk_ratio_capped):
            if abs(c - 0.5) <= 0.05:
                assert not resolved
                assert math.isnan(capped)
            else:
                assert resolved

    def test_cap_respected(self):
        grid = gmm.phase_grid(self._cfg())
        for resolved, capped in zip(grid.resolved, grid.risk_ratio_capped):
            if resolved:
                assert 0.5 <= capped <= 2.0

    def test_ratio_side_of_critical_curve(self):
        # deep below the critical exponent the target is met (ratio <= 1);
        # well above it the risk blows past the target
        cfg = self._cfg(delta_target=1e-10, c_grid=(0.8,), m_grid=(0.05, 0.9))
        lo_ratio, hi_ratio = gmm.phase_grid(cfg).risk_ratio_raw
        assert gmm.m_star(0.8) == pytest.approx(0.36, abs=1e-12)
        assert lo_ratio <= 1.0
        assert hi_ratio > 1.0

    def test_csv_round_trip(self, tmp_path):
        grid = gmm.phase_grid(self._cfg())
        path = tmp_path / "grid.csv"
        gmm.phase_grid_to_csv(grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "m", "gamma", "t", "risk_ratio_raw", "risk_ratio_capped"]
        assert len(rows) == 1 + len(grid)
        assert float(rows[1][0]) == grid.c[0]

    def test_svg_written(self, tmp_path):
        cfg = self._cfg()
        grid = gmm.phase_grid(cfg)
        path = tmp_path / "grid.svg"
        gmm.phase_grid_to_svg(grid, cfg, path)
        text = path.read_text()
        assert text.startswith("<svg") or "<svg" in text

    @pytest.mark.parametrize(
        "delta_target, c_grid",
        [
            (1e-7, tuple(np.linspace(0.05, 0.45, 9))),
            (1e-15, tuple(np.linspace(0.55, 0.95, 9))),
            (1e-7, (0.1, 0.3, 0.48, 0.52, 0.7, 0.9)),
        ],
    )
    def test_solver_diagnostics(self, delta_target, c_grid):
        cfg = self._cfg(
            delta_target=delta_target, c_grid=c_grid, m_grid=tuple(np.linspace(0.005, 0.995, 9))
        )
        grid = gmm.phase_grid(cfg)
        # every cell is solved, dead band included, on its own side
        delta = grid.c * math.sqrt(2.0 * math.log(1.0 / delta_target))
        target = delta_target**grid.m
        last_moves, residuals = [], []
        for side, increasing in ((grid.c > 0.5, True), (grid.c <= 0.5, False)):
            t_ref, last_move = lockstep_solve_t_grid(delta[side], target[side], increasing)
            shown = grid.resolved[side]
            assert np.array_equal(grid.t[side][shown], t_ref[shown])
            if increasing:
                value = normal_tail_vec(delta[side] - t_ref) - normal_tail_vec(delta[side] + t_ref)
            else:
                value = normal_tail_vec(t_ref - delta[side]) + normal_tail_vec(delta[side] + t_ref)
            last_moves.append(last_move)
            residuals.append(np.abs(value - target[side]))
        assert grid.max_iterations == np.concatenate(last_moves).max()
        assert grid.max_residual == np.concatenate(residuals).max()
        assert 0.0 < grid.max_residual < 1e-14
        assert 40 < grid.max_iterations <= 110

    @pytest.mark.parametrize("delta_target", [1e-7, 1e-15])
    def test_diagnostics_equal_the_serial_solver(self, delta_target):
        # more than two chunks per side
        cfg = self._cfg(
            delta_target=delta_target,
            c_grid=tuple(np.linspace(0.05, 0.95, 300)),
            m_grid=tuple(np.linspace(0.005, 0.995, 240)),
        )
        grid = gmm.phase_grid(cfg)
        delta = grid.c * math.sqrt(2.0 * math.log(1.0 / delta_target))
        target = delta_target**grid.m
        steps, residuals = [], []
        for side, increasing in ((grid.c > 0.5, True), (grid.c <= 0.5, False)):
            assert side.sum() > 2 * gmm._SOLVE_CHUNK
            t, side_steps = gmm._solve_t_grid(delta[side], target[side], increasing)
            shown = grid.resolved[side]
            assert np.array_equal(grid.t[side][shown], t[shown])
            steps.append(side_steps)
            residuals.append(np.abs(gmm._t_map(delta[side], t, increasing) - target[side]))
        assert grid.max_iterations == np.concatenate(steps).max()
        assert grid.max_residual == np.concatenate(residuals).max()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self._cfg(delta_target=1.5)
        with pytest.raises(ValueError):
            self._cfg(c_grid=())
        with pytest.raises(ValueError):
            self._cfg(m_grid=(0.5, 0.4))


class TestWritePhasePanel:
    """gmm.write_phase_panel: the phase panels solved and written one block of cells at a time."""

    def test_streamed_panel_matches_the_whole_grid_writers(self, tmp_path, monkeypatch):
        # 23 x 37 cells: one block at the default size, nine of 100 cells when
        # streamed, the last one partial and c crossing 1/2 inside the fifth
        cfg = gmm.PhaseGridConfig(
            delta_target=1e-7,
            c_grid=tuple(np.linspace(0.3, 0.7, 23)),
            m_grid=tuple(np.linspace(0.005, 0.995, 37)),
        )
        grid = gmm.phase_grid(cfg)
        assert len(grid) < gmm._SOLVE_CHUNK
        gmm.phase_grid_to_csv(grid, tmp_path / "whole.csv")
        gmm.phase_grid_to_svg(grid, cfg, tmp_path / "whole.svg")
        monkeypatch.setattr(gmm, "_SOLVE_CHUNK", 100)
        assert len(grid) % 100 and int(np.argmax(grid.c > 0.5)) // 100 == 4
        gmm.write_phase_panel(cfg, tmp_path / "streamed.csv", tmp_path / "streamed.svg")
        for ext in ("csv", "svg"):
            assert (tmp_path / f"streamed.{ext}").read_bytes() == (tmp_path / f"whole.{ext}").read_bytes()

    def test_panel_memory_stays_within_a_block(self, tmp_path):
        # numpy reports its buffers to tracemalloc; at 300 points the panels
        # peaked at 26.7 and 29.9 MB when each was written from its whole
        # grid, and at 8.3 and 8.6 MB streamed in blocks
        panels = cli._phase_configs(300)
        # first-call imports stay out of the peak
        gmm.write_phase_panel(cli._phase_configs(4)[1][1], tmp_path / "warm.csv", tmp_path / "warm.svg")
        tracemalloc.start()
        try:
            gmm.write_phase_panel(panels[1][1], tmp_path / "phase_upper.csv", tmp_path / "phase_upper.svg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20

    def test_panel_starts_no_helper_process(self, tmp_path, monkeypatch):
        # write_columns forks a helper for a block of _SPLIT_WRITE_ROWS rows or
        # more when a second CPU is free; the phase panels already keep both
        # CPUs busy, so their blocks stay below it.  The fork rule says yes
        # here, and both thresholds are the real ones.
        assert gmm._SOLVE_CHUNK < kvdoc._SPLIT_WRITE_ROWS
        monkeypatch.setattr(kvdoc, "_start_method", lambda: "fork")
        monkeypatch.setattr(kvdoc, "_usable_cpus", lambda: 2)
        forks = []

        def fork():
            forks.append(os.getpid())
            raise AssertionError("a phase panel forked a helper")

        monkeypatch.setattr(os, "fork", fork, raising=False)
        cfg = cli._phase_configs(200)[0][1]
        assert len(cfg.c_grid) * len(cfg.m_grid) > 2 * gmm._SOLVE_CHUNK  # three blocks
        gmm.write_phase_panel(cfg, tmp_path / "phase_lower.csv", tmp_path / "phase_lower.svg")
        assert forks == []

    def test_svgs_parse_as_xml_and_draw_m_star_and_both_envelope_ends(self, tmp_path):
        # the tier-1 copy of a CI step, which runs the same checks on the
        # installed package's `experiment phase` at grid_points = 40
        for panel, cfg in cli._phase_configs(40):
            svg = tmp_path / f"phase_{panel}.svg"
            gmm.write_phase_panel(cfg, tmp_path / f"phase_{panel}.csv", svg)
            ET.parse(svg)
            text = svg.read_text()
            for label in ("m*", "envelope low", "envelope high"):
                assert f">{label}</text>" in text, (panel, label)
            assert "m_lower" not in text, panel


class TestPhaseOverlays:
    """The curves drawn over the phase heatmaps: m* and both ends of phase_envelope."""

    LABELS = ["m*", "envelope low", "envelope high"]

    @staticmethod
    def overlays(svg: str) -> dict:
        """{label: [(x, y) pixel strings]} of the heatmap's overlay paths, in file order."""
        lines = svg.splitlines()
        out = {}
        for line, text in zip(lines, lines[1:]):
            if line.startswith('<path d="M'):
                (label,) = re.findall(r">([^<]*)</text>$", text)
                d = re.match(r'<path d="([^"]*)"', line).group(1)
                out[label] = [tuple(v.lstrip("ML").split(",")) for v in d.split()]
        return out

    @staticmethod
    def negative_low_base(c: float, dt: float) -> bool:
        """phase_envelope's low end squares a negative base here, (1 - eps)/(4c) < c, and clamps it to 0."""
        log_inv = gmm.m_star(c) * math.log(1.0 / dt)
        eps = 0.5 * math.log(4.0 * math.pi * log_inv) / log_inv
        return c < 0.5 and (1.0 - eps) / (4.0 * c) < c

    @pytest.mark.parametrize("panel", ["lower", "upper"])
    def test_vertices_are_m_star_or_an_envelope_end(self, tmp_path, panel):
        cfg = dict(cli._phase_configs(200))[panel]
        assert cli._write_phase_panel(tmp_path, (panel, cfg)) == [f"phase_{panel}.csv", f"phase_{panel}.svg"]
        svg = (tmp_path / f"phase_{panel}.svg").read_text()
        cs, ms, dt = list(cfg.c_grid), list(cfg.m_grid), cfg.delta_target
        half_c, half_m = (cs[-1] - cs[0]) / (len(cs) - 1) / 2, (ms[-1] - ms[0]) / (len(ms) - 1) / 2
        px, py = svgchart._scales(cs[0] - half_c, cs[-1] + half_c, ms[0] - half_m, ms[-1] + half_m)
        at_x = {svgchart._fmt(px(c)): c for c in cs}
        assert len(at_x) == len(cs)

        def curves(c: float) -> dict:
            return dict(zip(self.LABELS, (gmm.m_star(c), *gmm.phase_envelope(c, dt))))

        overlays = self.overlays(svg)
        # no vertex comes from the low end's negative base, whatever its label
        for x, y in (v for pts in overlays.values() for v in pts):
            c = at_x[x]
            if self.negative_low_base(c, dt):
                assert y in {svgchart._fmt(py(curves(c)[label])) for label in ("m*", "envelope high")}
        assert "m_lower" not in svg
        assert list(overlays) == self.LABELS
        for label, pts in overlays.items():
            # one vertex at each c outside the dead band whose curve value lies on the m axis
            want = [c for c in cs if abs(c - 0.5) > gmm._DEAD_BAND and ms[0] <= curves(c)[label] <= ms[-1]]
            assert [at_x[x] for x, _ in pts] == want, label
            assert [y for _, y in pts] == [svgchart._fmt(py(curves(c)[label])) for c in want], label
        if panel == "lower":
            assert any(self.negative_low_base(c, dt) for c in cs)
