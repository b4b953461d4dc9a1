"""Finite-sample calibration of abstention rules from labeled scores.

Two families of guarantees:

* accuracy control — pick one confidence threshold so the empirical error
  over decided points is at most alpha, abstaining as little as possible;
* type I / type II control — pick two thresholds on the class-1 posterior
  (or on raw observations under a monotone likelihood ratio) so both
  conditional error rates meet their targets with minimal abstention.

All selection is rank-based on a single stable sort, so reruns on the same
data return identical rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "CalibrationSample",
    "SelectiveBinaryRule",
    "NpRule",
    "MlrNpRule",
    "MlrSymmetricRule",
    "MaxScoreRule",
    "CalibrationReport",
    "calibrate_accuracy",
    "calibrate_accuracy_fixed_gamma",
    "calibrate_np",
    "calibrate_multiclass_fixed_gamma",
    "calibrate_np_mlr",
    "calibrate_accuracy_mlr",
]


@dataclass(frozen=True)
class CalibrationSample:
    """Labeled calibration data.

    Exactly one of scores (class-1 posterior estimates in [0, 1]),
    score_vectors (rows summing to 1, one column per class), or xs (raw
    scalar observations) is set.  labels are 1-based class indices; they may
    be omitted only for the unsupervised multiclass path.
    """

    labels: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None
    score_vectors: Optional[np.ndarray] = None
    xs: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        kinds = [v is not None for v in (self.scores, self.score_vectors, self.xs)]
        if sum(kinds) != 1:
            raise ValueError("exactly one of scores, score_vectors, xs must be given")
        n = self.n
        if n == 0:
            raise ValueError("calibration sample is empty")
        if self.scores is not None:
            s = _finite(self.scores, "scores")
            if s.ndim != 1 or ((s < 0) | (s > 1)).any():
                raise ValueError("scores must be a 1-d array with values in [0, 1]")
            object.__setattr__(self, "scores", s)
        if self.score_vectors is not None:
            sv = _finite(self.score_vectors, "score_vectors")
            if sv.ndim != 2 or sv.shape[1] < 2:
                raise ValueError("score_vectors must be n x K with K >= 2")
            if (sv < 0).any() or np.abs(sv.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError("score vectors must be nonnegative and sum to 1")
            object.__setattr__(self, "score_vectors", sv)
        if self.xs is not None:
            object.__setattr__(self, "xs", _finite(self.xs, "xs"))
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (n,):
                raise ValueError("labels must match the sample length")
            if (lab < 1).any():
                raise ValueError("labels are 1-based class indices")
            object.__setattr__(self, "labels", lab)
        elif self.score_vectors is None:
            raise ValueError("labels are required for binary and MLR calibration")

    @property
    def n(self) -> int:
        for v in (self.scores, self.score_vectors, self.xs):
            if v is not None:
                return len(v)
        return 0


def _finite(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite (no NaN or infinity)")
    return a


def _binary_labels(cal: CalibrationSample) -> np.ndarray:
    """The labels of a two-class sample, which must all be 1 or 2."""
    labels = cal.labels
    if not ((labels == 1) | (labels == 2)).all():
        raise ValueError("binary calibration needs labels in {1, 2}")
    return labels


@dataclass(frozen=True)
class SelectiveBinaryRule:
    """Single confidence threshold: decide iff max(s, 1-s) >= tau.

    Decided points predict 1 when s >= tau, else 2.
    """

    tau: float

    def apply(self, scores) -> np.ndarray:
        """0 = abstain, 1, 2."""
        s = np.asarray(scores, dtype=float)
        out = np.zeros(len(s), dtype=int)
        out[(1.0 - s) >= self.tau] = 2
        out[s >= self.tau] = 1  # s = 0.5 predicts 1, as calibrate_accuracy counts it
        return out


@dataclass(frozen=True)
class NpRule:
    """Two thresholds on the class-1 posterior: 2 below tau1, 1 above tau2."""

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        if self.tau1 > self.tau2:
            raise ValueError("tau1 must not exceed tau2")

    def apply(self, scores) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        out = np.zeros(len(s), dtype=int)
        out[s >= self.tau2] = 1
        out[s <= self.tau1] = 2
        return out


@dataclass(frozen=True)
class MlrNpRule:
    """Raw-observation rule: 1 for x <= tau2, 2 for x >= tau1, abstain between.

    Assumes the class-2 likelihood ratio is increasing in x, so class 2 sits
    to the right; the abstention set is the interval (tau2, tau1).
    """

    tau2: float
    tau1: float

    def __post_init__(self) -> None:
        if self.tau2 > self.tau1:
            raise ValueError("tau2 must not exceed tau1")

    def apply(self, xs) -> np.ndarray:
        x = np.asarray(xs, dtype=float)
        out = np.zeros(len(x), dtype=int)
        out[x <= self.tau2] = 1
        out[x >= self.tau1] = 2
        return out


@dataclass(frozen=True)
class MlrSymmetricRule:
    """Symmetric raw-observation rule: 2 for x >= tau, 1 for x <= -tau."""

    tau: float

    def apply(self, xs) -> np.ndarray:
        x = np.asarray(xs, dtype=float)
        out = np.zeros(len(x), dtype=int)
        out[x <= -self.tau] = 1
        out[x >= self.tau] = 2  # x = 0 predicts 2, as calibrate_accuracy_mlr counts it
        return out


@dataclass(frozen=True)
class MaxScoreRule:
    """Multiclass rule: abstain when max_i s_i <= tau, else predict argmax."""

    tau: float

    def apply(self, score_vectors) -> np.ndarray:
        sv = np.asarray(score_vectors, dtype=float)
        conf = sv.max(axis=1)
        out = np.where(conf > self.tau, sv.argmax(axis=1) + 1, 0)
        return out.astype(int)


Rule = Union[SelectiveBinaryRule, NpRule, MlrNpRule, MlrSymmetricRule, MaxScoreRule]


@dataclass(frozen=True)
class CalibrationReport:
    """Selected rule plus the estimates that justified the selection.

    achieved holds the error estimates computed on the calibration data at
    selection time; feasible records whether the stated targets were met.

    trace holds per-candidate diagnostics when the calibrator was asked for
    them (want_trace=True), else it is empty.  It is a dict of columns: each
    value is a 1-d numpy array with one entry per candidate, in selection
    order, and all arrays have the same length.  The key order is the column
    order of the trace CSV.  Accuracy modes give tau, decided, error and
    running_min; the two-threshold modes give k, gamma, k_tilde,
    type1_count, type2 (NaN where the candidate is not valid) and valid.
    """

    rule: Rule
    gamma_hat: float
    achieved: dict
    feasible: bool
    trace: dict = field(default_factory=dict)


def _binary_confidence(scores: np.ndarray) -> np.ndarray:
    return np.maximum(scores, 1.0 - scores)


def calibrate_accuracy(
    cal: CalibrationSample, alpha: float, *, want_trace: bool = False
) -> CalibrationReport:
    """Smallest-abstention confidence threshold with empirical error <= alpha.

    Candidate thresholds are the sorted confidences; for each, the
    conditional error over decided points is tracked through its running
    minimum, and the first candidate whose running minimum reaches alpha is
    returned.  An empty decided set counts as error 0, so the all-abstain
    candidate is vacuously feasible; feasible=False distinguishes the case
    where no substantive threshold met alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if cal.scores is None:
        raise ValueError("accuracy calibration needs scalar scores")
    s, labels = cal.scores, _binary_labels(cal)
    n = len(s)
    conf = _binary_confidence(s)
    predicted = np.where(s >= 0.5, 1, 2)
    order = np.lexsort((np.arange(n), conf))
    conf_sorted = conf[order]
    mis_sorted = (predicted != labels)[order].astype(float)
    # decided set at candidate i is every point with confidence >= the i-th
    # sorted confidence: a suffix starting at the first occurrence of a tie
    mis_suffix = np.concatenate((np.cumsum(mis_sorted[::-1])[::-1], [0.0]))
    start = np.searchsorted(conf_sorted, conf_sorted, side="left")
    decided_count = n - start
    with np.errstate(invalid="ignore"):
        err = np.where(decided_count > 0, mis_suffix[start] / np.maximum(decided_count, 1), 0.0)
    running_min = np.minimum.accumulate(err)
    hits = np.flatnonzero(running_min <= alpha)
    trace = _accuracy_trace(conf_sorted, decided_count, err, running_min) if want_trace else {}
    if len(hits) == 0:
        return CalibrationReport(
            rule=SelectiveBinaryRule(tau=1.0),
            gamma_hat=1.0,
            achieved={"conditional_error": float(running_min[-1])},
            feasible=False,
            trace=trace,
        )
    i = int(hits[0])
    # the first candidate j <= i actually attaining the running minimum
    j = int(np.flatnonzero(err[: i + 1] <= alpha)[0])
    tau = float(conf_sorted[j])
    gamma_hat = float(start[j]) / n
    return CalibrationReport(
        rule=SelectiveBinaryRule(tau=tau),
        gamma_hat=gamma_hat,
        achieved={"conditional_error": float(err[j])},
        feasible=True,
        trace=trace,
    )


def _accuracy_trace(conf_sorted, decided_count, err, running_min) -> dict:
    return {"tau": conf_sorted, "decided": decided_count, "error": err, "running_min": running_min}


def calibrate_accuracy_fixed_gamma(
    cal: CalibrationSample, gamma: float
) -> CalibrationReport:
    """Abstain on exactly ceil(gamma * n) lowest-confidence points."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if cal.scores is None:
        raise ValueError("accuracy calibration needs scalar scores")
    s, labels = cal.scores, _binary_labels(cal)
    n = len(s)
    conf = _binary_confidence(s)
    predicted = np.where(s >= 0.5, 1, 2)
    order = np.lexsort((np.arange(n), conf))
    m = int(np.ceil(gamma * n))
    decided = order[m:]
    if len(decided) > 0:
        tau = float(conf[decided[0]])
        err = float(np.mean(predicted[decided] != labels[decided]))
    else:
        tau, err = 1.0, 0.0
    return CalibrationReport(
        rule=SelectiveBinaryRule(tau=tau),
        gamma_hat=m / n,
        achieved={"conditional_error": err},
        feasible=True,
    )


class _GridChoice(NamedTuple):
    """What _np_grid_select picked: abstention count k, thresholds in the
    search's value order, estimates, the trace, and the estimates of the
    gamma = 0 operating point (k = 0) under the plain type-I budget."""

    k: int
    tau1: float
    tau2: float
    achieved: dict
    feasible: bool
    trace: dict
    achieved_gamma0: dict


def _np_grid_select(
    values: np.ndarray,
    is_class1: np.ndarray,
    alpha1: float,
    alpha2: float,
    *,
    eval_values: Optional[np.ndarray] = None,
    eval_is_class1: Optional[np.ndarray] = None,
    high_prob_delta: Optional[float] = None,
    want_trace: bool = False,
) -> _GridChoice:
    """Shared two-threshold grid search.

    values are ordered so that SMALL means class-2-like (the class-2 block is
    a bottom prefix, abstention the next prefix, class 1 the rest).
    """
    n = len(values)
    n1 = int(is_class1.sum())
    n2 = n - n1
    if n1 == 0 or n2 == 0:
        raise ValueError("both classes must be present")
    order = np.lexsort((np.arange(n), values))
    v_sorted = values[order]
    c1_sorted = is_class1[order].astype(int)
    cum1 = np.cumsum(c1_sorted)  # class-1 count among ranks 1..r
    cum2 = np.arange(1, n + 1) - cum1

    ks = np.arange(0, n + 1)
    gammas = ks / n
    budget_counts = _type1_count_budget(n1, (1.0 - gammas) * alpha1, high_prob_delta)
    # largest rank k_tilde with cum1[k_tilde] <= budget (0 = empty block)
    k_tilde = np.searchsorted(cum1, budget_counts + 0.5, side="left")
    top_start = k_tilde + ks  # first class-1 rank is top_start + 1
    valid = top_start <= n

    cum1_ext = np.concatenate(([0], cum1))
    cum2_ext = np.concatenate(([0], cum2))
    ts = np.minimum(top_start, n)
    abst2 = cum2_ext[ts] - cum2_ext[np.minimum(k_tilde, n)]
    top2 = n2 - cum2_ext[ts]
    decided2 = n2 - abst2
    with np.errstate(invalid="ignore", divide="ignore"):
        type2 = np.where(decided2 > 0, top2 / np.maximum(decided2, 1), 0.0)
    type2 = np.where(valid, type2, np.inf)

    # full abstention always meets alpha2 vacuously (empty decided set); it
    # is excluded so feasible=False flags data where no substantive rule works
    feasible_ks = np.flatnonzero((type2 <= alpha2) & valid & (ks < n))
    trace = {}
    if want_trace:
        trace = {
            "k": ks,
            "gamma": gammas,
            "k_tilde": k_tilde,
            "type1_count": cum1_ext[np.minimum(k_tilde, n)],
            "type2": np.where(valid, type2, np.nan),
            "valid": valid,
        }

    def thresholds(k: int):
        # class 2 up to rank kt, abstain on the next k ranks, class 1 from rank kt + k + 1
        kt = int(k_tilde[k])
        tau1 = float(v_sorted[kt - 1]) if kt >= 1 else -np.inf
        if k == 0:
            return tau1, tau1
        return tau1, float(v_sorted[kt + k]) if kt + k < n else np.inf

    feasible = len(feasible_ks) > 0
    if feasible:
        k = int(feasible_ks[0])
    else:
        k = int(np.argmin(np.where(valid & (ks < n), type2, np.inf)))
    tau1, tau2 = thresholds(k)
    achieved = _np_achieved(cum1_ext, cum2_ext, n1, n2, int(k_tilde[k]), k)
    if feasible and eval_values is not None and eval_is_class1 is not None:
        achieved.update(_np_holdout_achieved(eval_values, eval_is_class1, tau1, tau2))
    kt0 = np.searchsorted(cum1, _type1_count_budget(n1, np.array([alpha1]), None)[0] + 0.5)
    achieved_gamma0 = _np_achieved(cum1_ext, cum2_ext, n1, n2, int(kt0), 0)
    return _GridChoice(k, tau1, tau2, achieved, feasible, trace, achieved_gamma0)


def _type1_count_budget(n1: int, levels: np.ndarray, high_prob_delta: Optional[float]):
    """Class-1 count allowed in the class-2 block at each candidate gamma.

    Default: the plain empirical budget floor(level * n1) realized through a
    <= comparison.  With high_prob_delta set, the largest count j <=
    floor(level * n1) with P(Binomial(n1, level) <= j - 1) <= delta: the
    order-statistic rank of the NP umbrella algorithm (Tong, Feng & Li,
    Sci. Adv. 2018), used by abstention-free type-I-control baselines.  That
    count is one above the binomial delta-quantile m when the CDF at m is
    still at most delta, else m itself, so one vectorized quantile and one
    CDF evaluation per level give it.
    """
    if high_prob_delta is None:
        return np.floor(levels * n1 + 1e-12)
    from scipy.stats import binom

    cap = np.floor(levels * n1)
    counts = np.zeros(len(levels))
    live = cap > 0  # a zero cap leaves no count to search
    p = levels[live]
    m = binom.ppf(high_prob_delta, n1, p)
    counts[live] = np.maximum(np.minimum(cap[live], m + (binom.cdf(m, n1, p) <= high_prob_delta)), 0)
    return counts


def _np_achieved(cum1_ext, cum2_ext, n1, n2, kt, k) -> dict:
    bottom1 = int(cum1_ext[kt])
    abst1 = int(cum1_ext[min(kt + k, n1 + n2)] - cum1_ext[kt])
    abst2 = int(cum2_ext[min(kt + k, n1 + n2)] - cum2_ext[kt])
    top2 = n2 - int(cum2_ext[min(kt + k, n1 + n2)])
    decided1 = n1 - abst1
    decided2 = n2 - abst2
    return {
        "type1": bottom1 / decided1 if decided1 > 0 else 0.0,
        "type2": top2 / decided2 if decided2 > 0 else 0.0,
        "type1_marginal": bottom1 / n1,
    }


def _np_holdout_achieved(values, is_class1, tau1, tau2) -> dict:
    v = np.asarray(values, dtype=float)
    c1 = np.asarray(is_class1, dtype=bool)
    as2 = v <= tau1
    as1 = v >= tau2
    decided = as1 | as2
    d1 = decided & c1
    d2 = decided & ~c1
    return {
        "holdout_type1": float((as2 & c1).sum() / max(d1.sum(), 1)),
        "holdout_type2": float((as1 & ~c1).sum() / max(d2.sum(), 1)),
    }


def calibrate_np(
    cal: CalibrationSample,
    alpha1: float,
    alpha2: float,
    *,
    holdout: Optional[CalibrationSample] = None,
    high_prob_delta: Optional[float] = None,
    want_trace: bool = False,
) -> CalibrationReport:
    """Smallest abstention mass meeting both conditional error targets.

    Sweeps gamma over {k/n}: the class-2 block is the largest low-score
    prefix keeping the class-1 fraction within (1 - gamma) * alpha1, the
    next k order statistics abstain, and the first gamma whose estimated
    type II error reaches alpha2 wins.  By default type II is estimated on
    the calibration sample itself; pass holdout for a post-selection
    estimate on fresh data.  high_prob_delta switches the type-I budget to
    the conservative binomial order-statistic rank.
    """
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise ValueError("alpha1 and alpha2 must lie in (0, 1)")
    if cal.scores is None:
        raise ValueError("np calibration needs scalar scores")
    is_class1 = _binary_labels(cal) == 1
    hv = holdout.scores if holdout is not None else None
    hc = (_binary_labels(holdout) == 1) if holdout is not None else None
    choice = _np_grid_select(
        cal.scores,
        is_class1,
        alpha1,
        alpha2,
        eval_values=hv,
        eval_is_class1=hc,
        high_prob_delta=high_prob_delta,
        want_trace=want_trace,
    )
    return CalibrationReport(
        rule=NpRule(tau1=choice.tau1, tau2=choice.tau2),
        gamma_hat=choice.k / cal.n,
        achieved=choice.achieved,
        feasible=choice.feasible,
        trace=choice.trace,
    )


def calibrate_multiclass_fixed_gamma(
    cal: CalibrationSample, gamma: float
) -> CalibrationReport:
    """Abstain on the ceil(gamma * n) smallest max-score points.

    Unsupervised: labels, when present, are used only to report the
    conditional error of the resulting argmax rule.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if cal.score_vectors is None:
        raise ValueError("multiclass calibration needs score vectors")
    sv = cal.score_vectors
    n = len(sv)
    conf = sv.max(axis=1)
    order = np.lexsort((np.arange(n), conf))
    m = int(np.ceil(gamma * n))
    decided = order[m:]
    tau = float(conf[order[m - 1]]) if m >= 1 else -np.inf
    achieved: dict = {}
    if cal.labels is not None and len(decided) > 0:
        predicted = sv.argmax(axis=1) + 1
        achieved["conditional_error"] = float(
            np.mean(predicted[decided] != cal.labels[decided])
        )
    return CalibrationReport(
        rule=MaxScoreRule(tau=tau),
        gamma_hat=m / n,
        achieved=achieved,
        feasible=True,
    )


def calibrate_np_mlr(
    cal: CalibrationSample,
    alpha1: float,
    alpha2: float,
    *,
    high_prob_delta: Optional[float] = None,
    want_trace: bool = False,
) -> CalibrationReport:
    """Two thresholds on raw observations; class-2 likelihood increasing in x.

    Class 2 sits to the right, so the grid search runs on negated
    observations (small = class-2-like) and the thresholds are mapped back:
    predict 1 below tau2, 2 above tau1, abstain on the interval between.
    Also reports the power criterion: abstention is needed exactly when the
    empirical power of the abstention-free type-I-controlled test at alpha1
    falls short of 1 - alpha2.  That test is the gamma = 0 point of the
    same grid, with the plain type-I budget also when high_prob_delta is set.
    """
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise ValueError("alpha1 and alpha2 must lie in (0, 1)")
    if cal.xs is None:
        raise ValueError("MLR calibration needs raw observations")
    is_class1 = _binary_labels(cal) == 1
    choice = _np_grid_select(
        -cal.xs,
        is_class1,
        alpha1,
        alpha2,
        high_prob_delta=high_prob_delta,
        want_trace=want_trace,
    )
    tau1 = -choice.tau1  # class-2 side: x >= tau1
    tau2 = -choice.tau2  # class-1 side: x <= tau2
    power0 = 1.0 - choice.achieved_gamma0["type2"]
    return CalibrationReport(
        rule=MlrNpRule(tau2=tau2, tau1=tau1),
        gamma_hat=choice.k / cal.n,
        achieved={
            **choice.achieved,
            "power_at_gamma0": power0,
            "power_criterion_positive_gamma": bool(power0 < 1.0 - alpha2),
        },
        feasible=choice.feasible,
        trace=choice.trace,
    )


def calibrate_accuracy_mlr(
    cal: CalibrationSample, alpha: float, *, want_trace: bool = False
) -> CalibrationReport:
    """Symmetric raw-observation accuracy control: decide iff |x| >= tau.

    Same selection pattern as calibrate_accuracy with |x| as the confidence
    statistic and sign(x) as the prediction (class 2 to the right).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if cal.xs is None:
        raise ValueError("MLR calibration needs raw observations")
    x, labels = cal.xs, _binary_labels(cal)
    n = len(x)
    conf = np.abs(x)
    predicted = np.where(x >= 0.0, 2, 1)
    order = np.lexsort((np.arange(n), conf))
    conf_sorted = conf[order]
    mis_sorted = (predicted != labels)[order].astype(float)
    mis_suffix = np.concatenate((np.cumsum(mis_sorted[::-1])[::-1], [0.0]))
    start = np.searchsorted(conf_sorted, conf_sorted, side="left")
    decided_count = n - start
    err = np.where(decided_count > 0, mis_suffix[start] / np.maximum(decided_count, 1), 0.0)
    running_min = np.minimum.accumulate(err)
    hits = np.flatnonzero(running_min <= alpha)
    trace = _accuracy_trace(conf_sorted, decided_count, err, running_min) if want_trace else {}
    if len(hits) == 0:
        return CalibrationReport(
            rule=MlrSymmetricRule(tau=float(conf_sorted[-1]) + 1.0),
            gamma_hat=1.0,
            achieved={"conditional_error": float(running_min[-1])},
            feasible=False,
            trace=trace,
        )
    i = int(hits[0])
    j = int(np.flatnonzero(err[: i + 1] <= alpha)[0])
    return CalibrationReport(
        rule=MlrSymmetricRule(tau=float(conf_sorted[j])),
        gamma_hat=float(start[j]) / n,
        achieved={"conditional_error": float(err[j])},
        feasible=True,
        trace=trace,
    )
