"""Tests for the built-in plug-in score estimators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indecide import models
from indecide.experiments import _draw_mixture, oracle_eta
from indecide.models import (
    LdaModel,
    LogisticModel,
    fit_lda,
    fit_logistic,
    predict_eta,
)
from indecide.numerics import seeded_stream


def matrix_lda_eta(model, x):
    """Class-1 LDA posterior reduced along axis 1 of an (n, K) score matrix.

    The earlier predict_eta, kept as the oracle for the column-by-column one.
    """
    feats = np.asarray(x, dtype=float)
    if feats.ndim == 1:
        feats = feats[:, None]
    cov_inv = np.linalg.inv(model.pooled_covariance)
    scores = []
    for mu, prior in zip(model.class_means, model.priors):
        w = cov_inv @ mu
        b = -0.5 * float(mu @ cov_inv @ mu) + math.log(prior)
        scores.append(feats @ w + b)
    log_scores = np.column_stack(scores)
    shifted = log_scores - log_scores.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    return probs[:, 0] / probs.sum(axis=1)


@st.composite
def lda_cases(draw):
    """A valid K-class model in d dimensions and n x d features out to +-1e3."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 2))

    def matrix(rows, cols, elements):
        row = st.lists(elements, min_size=cols, max_size=cols)
        return np.array(draw(st.lists(row, min_size=rows, max_size=rows)))

    means = matrix(k, d, st.floats(-5.0, 5.0))
    a = matrix(d, d, st.floats(-2.0, 2.0))
    cov = a @ a.T + draw(st.floats(0.01, 3.0)) * np.eye(d)
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    model = LdaModel(class_means=means, pooled_covariance=cov, priors=weights / weights.sum())
    n = draw(st.integers(0, 40))
    x = matrix(n, d, st.floats(-1e3, 1e3))
    return model, x.reshape(n, d)


def oracle_lda_model(class_means, pooled_covariance, priors) -> tuple:
    """LdaModel's checks and discriminant as first written (np.allclose,
    eigvalsh and np.linalg.inv on every matrix): the oracle for the model's
    shortcuts.  Returns (means, covariance, priors, weights, biases)."""
    means = np.atleast_2d(np.asarray(class_means, dtype=float))
    cov = np.atleast_2d(np.asarray(pooled_covariance, dtype=float))
    priors = np.asarray(priors, dtype=float)
    if abs(priors.sum() - 1.0) > 1e-9 or (priors <= 0).any():
        raise ValueError("priors must be positive and sum to 1")
    if not np.allclose(cov, cov.T):
        raise ValueError("pooled covariance must be symmetric")
    if np.linalg.eigvalsh(cov).min() <= 0:
        raise ValueError("pooled covariance must be positive definite")
    cov_inv = np.linalg.inv(cov)
    biases = tuple(-0.5 * float(mu @ cov_inv @ mu) + math.log(prior) for mu, prior in zip(means, priors))
    return means, cov, priors, tuple(cov_inv @ mu for mu in means), biases


def oracle_fit_lda(features, labels) -> tuple:
    """fit_lda as first written (np.unique of the labels, eigvalsh for the
    ridge test), ending in oracle_lda_model."""
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("features must be an n x d array with d >= 1")
    y = np.asarray(labels, dtype=int)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    if not np.array_equal(classes, np.arange(1, len(classes) + 1)):
        raise ValueError("labels must be 1..K with every class present")
    means, priors = [], []
    n, d = x.shape
    scatter = np.zeros((d, d))
    for c in classes:
        xc = x[y == c]
        if len(xc) < 2:
            raise ValueError(f"class {c} needs at least 2 points")
        mu = xc.mean(axis=0)
        means.append(mu)
        priors.append(len(xc) / n)
        centered = xc - mu
        scatter += centered.T @ centered
    cov = scatter / (n - len(classes))
    if np.linalg.eigvalsh(cov).min() <= 1e-12:
        warnings.warn("singular pooled covariance; adding ridge 1e-6", stacklevel=2)
        cov = cov + 1e-6 * np.eye(d)
    return oracle_lda_model(np.array(means), cov, np.array(priors))


def model_parts(model: LdaModel) -> tuple:
    return model.class_means, model.pooled_covariance, model.priors, model.weights, model.biases


def outcome(fn, *args) -> tuple:
    """What fn(*args) does: the bytes of each array it returns (or the type
    and message of the error it raises), and every warning's category and
    message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parts = fn(*args)
            result = [(a.dtype.str, a.shape, a.tobytes()) for part in parts for a in map(np.asarray, part)]
        except (ValueError, IndexError) as err:
            result = (type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


# few values, so that NaN, +-inf, overflow to inf, equal points and asymmetry are common
_ENTRIES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1.0, -1.0, 2.5, 1e200])


@st.composite
def covariances(draw):
    """A d x d matrix: positive definite, then perhaps one entry replaced (on
    both sides or one), or moved by a little, within or beyond np.allclose."""
    d = draw(st.integers(1, 3))
    a = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d))).reshape(d, d)
    cov = a @ a.T + draw(st.sampled_from([0.0, 1e-13, 0.5])) * np.eye(d)
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    change = draw(st.sampled_from(["none", "both", "one", "nudge"]))
    if change == "nudge":
        cov[i, j] += draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3])) * max(1.0, abs(cov[i, j]))
    elif change != "none":
        value = draw(_ENTRIES)
        cov[i, j] = value
        if change == "both":
            cov[j, i] = value
    return cov


class TestLdaMatchesTheOracle:
    """fit_lda and LdaModel accept, reject, warn and compute as the checks
    they replaced: same fields, weights and biases bit for bit, same error
    type and message, same warnings."""

    @settings(max_examples=300, deadline=None)
    @given(covariances(), st.sampled_from([(0.5, 0.5), (0.25, 0.75), (0.7, 0.7), (1.0, 0.0)]), st.data())
    def test_model_checks(self, cov, priors, data):
        d = cov.shape[0]
        means = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=2 * d, max_size=2 * d))).reshape(2, d)
        got = outcome(lambda: model_parts(LdaModel(means, cov, np.array(priors))))
        assert got == outcome(oracle_lda_model, means, cov, np.array(priors))

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(0, 12),
        d=st.integers(1, 2),
        extra=st.sampled_from([0, 0, 0, 1, -1]),
        label_set=st.sampled_from([[1, 2], [1, 2], [1, 2, 3], [1, 3], [0, 1, 2], [2, 3], [-1, 1, 2], [1, 10**12]]),
        data=st.data(),
    )
    def test_fit(self, n, d, extra, label_set, data):
        x = np.array(data.draw(st.lists(_ENTRIES | st.floats(-3.0, 3.0), min_size=n * d, max_size=n * d)))
        labels = data.draw(st.lists(st.sampled_from(label_set), min_size=max(n + extra, 0), max_size=max(n + extra, 0)))
        features = x.reshape(n, d) if d > 1 else x
        got = outcome(lambda: model_parts(fit_lda(features, labels)))
        assert got == outcome(oracle_fit_lda, features, labels)

    def test_one_by_one_inverse_is_lapacks(self):
        values = np.concatenate([np.geomspace(1e-308, 1e308, 6001), seeded_stream(45, 0).random(2000) * 10, [5e-324, 1e-310, np.inf]])
        means, priors = np.array([[1.5], [-0.25]]), np.array([0.5, 0.5])
        for v in values:
            got = outcome(lambda: model_parts(LdaModel(means, np.array([[v]]), priors)))
            assert got == outcome(oracle_lda_model, means, [[v]], priors)


class TestLda:
    def test_recovers_mixture_means(self):
        rng = seeded_stream(41, 0)
        x, y = _draw_mixture(rng, 50_000, 1.0)
        model = fit_lda(x, y)
        assert model.class_means[0, 0] == pytest.approx(1.0, abs=0.05)
        assert model.class_means[1, 0] == pytest.approx(-1.0, abs=0.05)
        assert model.pooled_covariance[0, 0] == pytest.approx(1.0, abs=0.05)
        assert model.priors[0] == pytest.approx(0.5, abs=0.02)

    def test_posterior_matches_closed_form(self):
        rng = seeded_stream(41, 1)
        x, y = _draw_mixture(rng, 100_000, 1.0)
        model = fit_lda(x, y)
        grid = np.linspace(-4.0, 4.0, 401)
        fitted = predict_eta(model, grid)
        exact = oracle_eta(grid, 1.0)
        assert np.abs(fitted - exact).max() <= 0.02

    def test_posterior_monotone_for_1d(self):
        rng = seeded_stream(41, 2)
        x, y = _draw_mixture(rng, 2_000, 1.0)
        model = fit_lda(x, y)
        vals = predict_eta(model, np.linspace(-5, 5, 100))
        assert (np.diff(vals) >= -1e-12).all()

    def test_label_preconditions(self):
        x = np.arange(10.0)
        with pytest.raises(ValueError):
            fit_lda(x, np.ones(10, dtype=int))  # one class
        with pytest.raises(ValueError):
            fit_lda(x, np.array([1, 1, 1, 1, 1, 3, 3, 3, 3, 3]))  # gap in labels
        with pytest.raises(ValueError):
            fit_lda(x, np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 2]))  # class 2 has 1 point

    def test_singular_covariance_ridged(self):
        x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        y = np.array([1, 1, 1, 2, 2, 2])
        with pytest.warns(UserWarning):
            model = fit_lda(x, y)
        assert np.linalg.eigvalsh(model.pooled_covariance).min() > 0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LdaModel(
                class_means=np.array([[0.0], [1.0]]),
                pooled_covariance=np.array([[1.0]]),
                priors=np.array([0.7, 0.7]),
            )
        with pytest.raises(ValueError):
            LdaModel(
                class_means=np.array([[0.0], [1.0]]),
                pooled_covariance=np.array([[-1.0]]),
                priors=np.array([0.5, 0.5]),
            )


class TestLogistic:
    def test_recovers_known_coefficients(self):
        rng = seeded_stream(42, 0)
        n = 40_000
        x = rng.normal(0.0, 2.0, n)
        eta = 1.0 / (1.0 + np.exp(-(1.5 * x - 0.5)))
        y = np.where(rng.random(n) < eta, 1, 2)
        model = fit_logistic(x, y)
        assert model.converged
        assert model.weights[0] == pytest.approx(1.5, abs=0.1)
        assert model.bias == pytest.approx(-0.5, abs=0.1)

    def test_predictions_in_range(self):
        rng = seeded_stream(42, 1)
        x, y = _draw_mixture(rng, 500, 1.0)
        model = fit_logistic(x, y)
        eta = predict_eta(model, np.linspace(-100, 100, 50))
        assert ((eta >= 0) & (eta <= 1)).all()

    def test_iteration_budget_returns_partial_model(self, monkeypatch):
        rng = seeded_stream(42, 2)
        x, y = _draw_mixture(rng, 500, 1.0)
        monkeypatch.setattr(models, "_LOGISTIC_MAX_ITER", 1)
        model = fit_logistic(x, y)
        assert not model.converged
        assert model.iterations == 1

    def test_label_preconditions(self):
        x = np.arange(6.0)
        with pytest.raises(ValueError):
            fit_logistic(x, np.array([1, 1, 1, 1, 1, 1]))
        with pytest.raises(ValueError):
            fit_logistic(x, np.array([0, 0, 0, 1, 1, 1]))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LogisticModel(
                weights=np.array([np.inf]), bias=0.0, converged=True, iterations=1
            )


class TestLabels:
    @pytest.mark.parametrize("fit", [fit_lda, fit_logistic])
    @pytest.mark.parametrize(
        "labels, message",
        [
            ([1.7, 1.2, 2.9, 2.1], "labels must be integer class indices"),
            ([1.0, 1.0, 2.0, math.nan], "labels must be finite"),
            ([1.0, 1.0, 2.0, math.inf], "labels must be finite"),
        ],
    )
    def test_labels_that_are_not_whole_numbers_rejected(self, fit, labels, message):
        # 1.7 used to be cast to class 1: fit_lda fitted means 0.5 and 5.5, and fit_logistic converged
        with pytest.raises(ValueError, match=message):
            fit([0.0, 1.0, 5.0, 6.0], labels)

    def test_whole_float_labels_fit_as_integers(self):
        x = np.array([0.0, 1.0, 5.0, 6.0, 2.0, 4.5])
        for fit in (fit_lda, fit_logistic):
            by_float, by_int = fit(x, [1.0, 1.0, 2.0, 2.0, 1.0, 2.0]), fit(x, [1, 1, 2, 2, 1, 2])
            assert predict_eta(by_float, x).tobytes() == predict_eta(by_int, x).tobytes()


class TestPredictEta:
    @settings(max_examples=300, deadline=None)
    @given(lda_cases())
    def test_lda_bit_equal_to_matrix_oracle(self, case):
        model, x = case
        got, want = predict_eta(model, x), matrix_lda_eta(model, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if x.shape[1] == 1:
            assert predict_eta(model, x[:, 0]).tobytes() == want.tobytes()

    def test_lda_bit_equal_on_fitted_models(self):
        grid = np.linspace(-1e3, 1e3, 2001)
        for rep in range(40):
            rng = seeded_stream(44, rep)
            x, y = _draw_mixture(rng, 200, 0.25 + 0.05 * rep)
            model = fit_lda(x, y)
            for xs in (x, grid):
                assert predict_eta(model, xs).tobytes() == matrix_lda_eta(model, xs).tobytes()

    def test_feature_dimension_checked(self):
        rng = seeded_stream(43, 0)
        x, y = _draw_mixture(rng, 200, 1.0)
        model = fit_lda(x, y)
        with pytest.raises(ValueError):
            predict_eta(model, np.zeros((5, 2)))

    def test_unsupported_model(self):
        with pytest.raises(TypeError):
            predict_eta(object(), np.zeros(3))

    def test_empty_feature_dim(self):
        with pytest.raises(ValueError):
            fit_lda(np.zeros((4, 0)), np.array([1, 1, 2, 2]))
