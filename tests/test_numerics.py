"""Tests for the numerical kernels."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from indecide.experiments import oracle_eta
from indecide.models import LogisticModel, predict_eta
from indecide.numerics import bisect, normal_tail, normal_tail_vec, seeded_stream, sigmoid


class TestNormalTail:
    def test_center(self):
        assert normal_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_one_sigma(self):
        # 1 - Phi(1), high-precision reference value
        assert normal_tail(1.0) == pytest.approx(0.15865525393145705, abs=1e-15)

    def test_two_sigma(self):
        assert normal_tail(2.0) == pytest.approx(0.022750131948179195, abs=1e-16)

    def test_symmetry(self):
        for t in (0.3, 1.7, 5.0, 12.0):
            assert normal_tail(-t) == pytest.approx(1.0 - normal_tail(t), abs=1e-15)

    def test_deep_tail_sandwich(self):
        # envelope bounds: phi(t) (1/t - 1/t^3) <= tail(t) <= phi(t) / t
        for t in (2.0, 5.0, 10.0, 20.0, 35.0):
            phi = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
            tail = normal_tail(t)
            assert phi * (1.0 / t - 1.0 / t**3) <= tail <= phi / t

    def test_vectorized_agrees_with_scalar(self):
        ts = np.linspace(-8.0, 8.0, 97)
        vec = normal_tail_vec(ts)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(normal_tail(t), rel=1e-13, abs=1e-300)

    def test_beyond_forty_and_nan(self):
        # the tail underflows to 0 from t ~ 38.5 and is 1 below t ~ -8.3
        for t in (40.5, 1e308, math.inf):
            assert normal_tail(t) == 0.0
            assert normal_tail(-t) == 1.0
        # NaN used to recurse without end
        assert math.isnan(normal_tail(math.nan))

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_monotone_decreasing(self, t):
        assert normal_tail(t + 1e-3) <= normal_tail(t)


class TestBisect:
    def test_each_cell_stops_next_to_its_root(self):
        # roots on both sides of the starting bracket [0, 1]
        root = 10.0 ** np.random.default_rng(4).uniform(-10.0, 15.0, 5000)
        t, steps = bisect(lambda t, r: t < r, np.ones(root.size), root)
        assert (np.abs(t - root) <= np.spacing(root)).all()
        assert 0 < steps.min() and steps.max() <= 110

    def test_predicate_sees_only_live_cells(self):
        # a cell that has stopped leaves the live set with its column entries
        root = np.array([0.5, 0.25, 1e-10, 3.0])
        sizes = []

        def below(t, r):
            sizes.append(t.size)
            assert t.size == r.size
            return t < r

        t, _ = bisect(below, np.ones(root.size), root)
        assert (np.abs(t - root) <= np.spacing(root)).all()
        # the cells stop after different numbers of steps (1e-10 needs the most)
        assert sizes[0] == 4 and sizes[-1] == 1

    def test_bracket_doubles_at_most_70_times(self):
        t, _ = bisect(lambda t: np.ones(t.size, dtype=bool), [1.0])
        assert t[0] == pytest.approx(2.0**70, rel=1e-15)

    def test_no_cells(self):
        t, steps = bisect(lambda t: t < 1.0, np.array([]))
        assert t.size == 0 and steps.size == 0

    def test_one_cell_with_a_scalar_predicate(self):
        (t,), (steps,) = bisect(lambda ts: np.array([math.exp(t) < 2.0 for t in ts.tolist()]), [1.0])
        assert t == pytest.approx(math.log(2.0), rel=1e-15)
        assert steps > 50


def inline_sigmoid(z):
    """The overflow-safe sigmoid that oracle_eta, predict_eta and fit_logistic
    each carried before they shared numerics.sigmoid, kept as the oracle."""
    out = np.empty(len(z))
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    def test_bit_equal_to_the_inline_copies(self, zs):
        z = np.array(zs, dtype=float)
        assert sigmoid(z).tobytes() == inline_sigmoid(z).tobytes()

    def test_extremes_do_not_overflow(self):
        z = np.array([-1e308, -800.0, -40.0, -0.0, 0.0, 40.0, 800.0, 1e308, -np.inf, np.inf])
        with np.errstate(over="raise", invalid="raise"):
            out = sigmoid(z)
        assert out.tolist() == [0.0, 0.0, out[2], 0.5, 0.5, 1.0, 1.0, 1.0, 0.0, 1.0]
        assert 0.0 < out[2] < 1e-17

    def test_callers_keep_their_bits(self):
        x = np.concatenate([np.linspace(-400.0, 400.0, 101), [-0.0, 1e-300]])
        assert oracle_eta(x, 1.3).tobytes() == inline_sigmoid(2.0 * 1.3 * x).tobytes()
        model = LogisticModel(weights=np.array([0.7]), bias=-0.2, converged=True, iterations=1)
        z = x[:, None] @ model.weights + model.bias
        assert predict_eta(model, x).tobytes() == inline_sigmoid(z).tobytes()


class TestSeededStream:
    def test_same_key_same_draws(self):
        a = seeded_stream(7, 3).random(100)
        b = seeded_stream(7, 3).random(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = seeded_stream(7, 0).random(100)
        b = seeded_stream(7, 1).random(100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = seeded_stream(0, 5).random(100)
        b = seeded_stream(1, 5).random(100)
        assert not np.array_equal(a, b)

    def test_order_independent(self):
        # drawing from stream 2 before or after stream 9 changes nothing
        first = seeded_stream(42, 9).random(10)
        _ = seeded_stream(42, 2).random(1000)
        again = seeded_stream(42, 9).random(10)
        assert np.array_equal(first, again)
