"""Built-in plug-in score estimators: Gaussian LDA and logistic regression.

These exist so the toolkit runs end to end on raw features without any
external model; anything that can emit class-1 posterior estimates can be
piped in through the CSV interfaces instead.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import sigmoid

__all__ = [
    "LdaModel",
    "LogisticModel",
    "fit_lda",
    "fit_logistic",
    "predict_eta",
    "predict_scores",
]


@dataclass(frozen=True)
class LdaModel:
    """Gaussian linear discriminant: shared covariance, per-class means.

    class_means has one row per class (class index = row + 1); priors are
    the training class frequencies.  weights and biases, one per class, are
    the linear discriminant coefficients, computed once at construction.
    """

    class_means: np.ndarray
    pooled_covariance: np.ndarray
    priors: np.ndarray
    weights: tuple = field(init=False, compare=False)
    biases: tuple = field(init=False, compare=False)

    def __post_init__(self) -> None:
        means = np.atleast_2d(np.asarray(self.class_means, dtype=float))
        cov = np.atleast_2d(np.asarray(self.pooled_covariance, dtype=float))
        priors = np.asarray(self.priors, dtype=float)
        if abs(priors.sum() - 1.0) > 1e-9 or (priors <= 0).any():
            raise ValueError("priors must be positive and sum to 1")
        if not np.allclose(cov, cov.T):
            raise ValueError("pooled covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("pooled covariance must be positive definite")
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "pooled_covariance", cov)
        object.__setattr__(self, "priors", priors)
        cov_inv = np.linalg.inv(cov)
        biases = (-0.5 * float(mu @ cov_inv @ mu) + math.log(prior) for mu, prior in zip(means, priors))
        object.__setattr__(self, "weights", tuple(cov_inv @ mu for mu in means))
        object.__setattr__(self, "biases", tuple(biases))


@dataclass(frozen=True)
class LogisticModel:
    """Binary logistic scores: eta(x) = sigmoid(weights . x + bias)."""

    weights: np.ndarray
    bias: float
    converged: bool
    iterations: int

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if not (np.isfinite(w).all() and math.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "weights", w)


def _as_features(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("features must be an n x d array with d >= 1")
    return arr


def fit_lda(features, labels) -> LdaModel:
    """Sample means, within-class pooled covariance, frequency priors.

    A numerically singular pooled covariance is ridged by 1e-6 on the
    diagonal with a warning rather than failing.
    """
    x = _as_features(features)
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
    return LdaModel(
        class_means=np.array(means), pooled_covariance=cov, priors=np.array(priors)
    )


def _lda_log_scores(model: LdaModel, x: np.ndarray) -> list[np.ndarray]:
    """Per-class linear discriminant scores (log posterior up to a constant).

    One column per class, in class order.
    """
    return [x @ w + b for w, b in zip(model.weights, model.biases)]


def predict_eta(model, x) -> np.ndarray:
    """Estimated class-1 posterior in [0, 1] for each feature row."""
    feats = _as_features(x)
    if isinstance(model, LdaModel):
        if feats.shape[1] != model.class_means.shape[1]:
            raise ValueError("feature dimension does not match the model")
        # the row max, exponentials and row sum of predict_scores, one column
        # at a time and in the same order, so the result is bit-identical
        cols = _lda_log_scores(model, feats)
        top = functools.reduce(np.maximum, cols)
        probs = [np.exp(col - top) for col in cols]
        return probs[0] / sum(probs[1:], probs[0])
    if isinstance(model, LogisticModel):
        if feats.shape[1] != len(model.weights):
            raise ValueError("feature dimension does not match the model")
        return sigmoid(feats @ model.weights + model.bias)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def predict_scores(model: LdaModel, x) -> np.ndarray:
    """Full posterior matrix (n x K) from a fitted discriminant model."""
    feats = _as_features(x)
    log_scores = np.column_stack(_lda_log_scores(model, feats))
    shifted = log_scores - log_scores.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    return probs / probs.sum(axis=1, keepdims=True)


def fit_logistic(features, labels, tol: float = 1e-8, max_iter: int = 100) -> LogisticModel:
    """Ridge-regularized (1e-8) logistic fit by damped Newton iterations.

    Labels are {1, 2} with class 1 the positive outcome.  When the
    iteration budget runs out the partial model is returned with
    converged=False.
    """
    x = _as_features(features)
    y = np.asarray(labels, dtype=int)
    if set(np.unique(y)) != {1, 2}:
        raise ValueError("labels must contain both classes 1 and 2")
    target = (y == 1).astype(float)
    n, d = x.shape
    design = np.column_stack([x, np.ones(n)])
    ridge = 1e-8
    beta = np.zeros(d + 1)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p = sigmoid(design @ beta)
        grad = design.T @ (p - target) + ridge * beta
        if np.linalg.norm(grad) <= tol:
            converged = True
            break
        w = np.maximum(p * (1.0 - p), 1e-12)
        hess = design.T @ (design * w[:, None]) + ridge * np.eye(d + 1)
        step = np.linalg.solve(hess, grad)

        def loss(b):
            zz = design @ b
            return float(np.sum(np.logaddexp(0.0, zz) - target * zz) + 0.5 * ridge * b @ b)

        base = loss(beta)
        scale = 1.0
        for _ in range(30):
            if loss(beta - scale * step) <= base:
                break
            scale *= 0.5
        beta = beta - scale * step
    return LogisticModel(
        weights=beta[:-1], bias=float(beta[-1]), converged=converged, iterations=iterations
    )
