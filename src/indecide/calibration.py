"""Finite-sample calibration of abstention rules from labeled scores.

Two families of guarantees:

* accuracy control — pick one confidence threshold so the empirical error
  over decided points is at most alpha, abstaining as little as possible;
* type I / type II control — pick two thresholds on the class-1 posterior
  (or on raw observations under a monotone likelihood ratio) so both
  conditional error rates meet their targets with minimal abstention.

Every report is what its rule does: gamma_hat and the achieved errors come
from rule.apply on the calibration sample.  All selection is rank-based on a
single stable sort, so reruns on the same data return identical rules.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple, Optional

import numpy as np

__all__ = [
    "CalibrationSample",
    "Rule",
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


def _finite(values, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite (no NaN or infinity)")
    return a


def _check_scores(values) -> np.ndarray:
    s = _finite(values, "scores")
    if s.ndim != 1 or ((s < 0) | (s > 1)).any():
        raise ValueError("scores must be a 1-d array with values in [0, 1]")
    return s


def _check_score_vectors(values) -> np.ndarray:
    sv = _finite(values, "score_vectors")
    if sv.ndim != 2 or sv.shape[1] < 2:
        raise ValueError("score_vectors must be n x K with K >= 2")
    if (sv < 0).any() or (np.abs(sv.sum(axis=1) - 1.0) > 1e-9).any():
        raise ValueError("score vectors must be nonnegative and sum to 1")
    return sv


def _check_xs(values) -> np.ndarray:
    xs = _finite(values, "xs")
    if xs.ndim != 1:
        raise ValueError("xs must be a 1-d array")
    return xs


# input column -> (the CalibrationSample field holding it, the check it and Rule.apply run)
_COLUMNS = {
    "score": ("scores", _check_scores),
    "s_1": ("score_vectors", _check_score_vectors),
    "x": ("xs", _check_xs),
}


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
        for name, check in _COLUMNS.values():
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check(getattr(self, name)))
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.dtype.kind != "i":
                lab = _finite(lab, "labels")
                if (lab != np.trunc(lab)).any():
                    raise ValueError("labels must be integer class indices")
            lab = lab.astype(int, copy=False)
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

    def column(self, column: str) -> np.ndarray:
        """The values a rule reading this input column takes from the sample."""
        name = _COLUMNS[column][0]
        if getattr(self, name) is None:
            raise ValueError(f"this calibration needs {name}, which the sample does not hold")
        return getattr(self, name)


def _binary_sample(cal: CalibrationSample, column: str) -> tuple[np.ndarray, np.ndarray]:
    """The values in column and the labels, all 1 or 2, of a two-class sample."""
    values = cal.column(column)
    if not ((cal.labels == 1) | (cal.labels == 2)).all():
        raise ValueError("binary calibration needs labels in {1, 2}")
    return values, cal.labels


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class Rule:
    """An abstention rule: decision 0 (abstain) or a 1-based class per input row.

    Each rule class declares its rule_type (its name in rule.kv) and the
    input column apply reads (score, x, or s_1 for score vectors) as class
    data; its dataclass fields are its thresholds, so vars(rule) holds only
    numbers.  A threshold is a float, or +-inf, never NaN.
    """

    rule_type: ClassVar[str]
    column: ClassVar[str]
    ordered: ClassVar[tuple] = ()  # thresholds that must not decrease, in this order

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
                raise ValueError(f"rule_type {self.rule_type}: {name} must be a number or +-inf, got {value!r}")
            object.__setattr__(self, name, float(value))
        for low, high in zip(self.ordered, self.ordered[1:]):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{low} must not exceed {high}")

    def apply(self, values) -> np.ndarray:
        """0 = abstain, else the class; values are checked as calibration checks them."""
        return self._decide(_COLUMNS[self.column][1](values))

    def to_kv(self) -> dict:
        return {"rule_type": self.rule_type, **vars(self)}

    @staticmethod
    def from_kv(entries: dict) -> Rule:
        """The rule a rule.kv document holds; keys other than its rule_type's
        thresholds are ignored."""
        kind = entries.get("rule_type")
        if kind not in _RULE_TYPES:
            raise ValueError(f"unknown rule_type {kind!r}")
        names = [f.name for f in fields(_RULE_TYPES[kind])]
        missing = [name for name in names if name not in entries]
        if missing:
            raise ValueError(f"rule_type {kind} needs {', '.join(names)}; missing {', '.join(missing)}")
        return _RULE_TYPES[kind](**{name: entries[name] for name in names})


@dataclass(frozen=True)
class _ChowRule(Rule):
    """Chow's reject rule: statistic(values) gives each row's confidence and
    likelier class; decide where the confidence reaches tau (exceeds it,
    where abstain_at_tau) and predict that class."""

    tau: float
    abstain_at_tau: ClassVar[bool] = False

    def _decide(self, values: np.ndarray) -> np.ndarray:
        conf, predicted = self.statistic(values)
        return np.where(conf > self.tau if self.abstain_at_tau else conf >= self.tau, predicted, 0)


class SelectiveBinaryRule(_ChowRule):
    """Class-1 posterior s: decide iff max(s, 1 - s) >= tau; predict 1 iff s >= 1/2."""

    rule_type = "selective-binary"
    column = "score"

    @staticmethod
    def statistic(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.maximum(s, 1.0 - s), np.where(s >= 0.5, 1, 2)


class MlrSymmetricRule(_ChowRule):
    """Raw observation x, class 2 to the right: decide iff |x| >= tau; predict 2 iff x >= 0."""

    rule_type = "mlr-symmetric"
    column = "x"

    @staticmethod
    def statistic(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.abs(x), np.where(x >= 0.0, 2, 1)


class MaxScoreRule(_ChowRule):
    """Score vectors: abstain iff max_i s_i <= tau, else predict the first argmax."""

    rule_type = "max-score"
    column = "s_1"
    abstain_at_tau = True

    @staticmethod
    def statistic(sv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return sv.max(axis=1), sv.argmax(axis=1) + 1


@dataclass(frozen=True)
class NpRule(Rule):
    """Two thresholds on the class-1 posterior: 2 for s <= tau1, 1 for
    s >= tau2 (2 where both hold), abstain between."""

    rule_type = "np"
    column = "score"
    ordered = ("tau1", "tau2")
    tau1: float
    tau2: float

    def _decide(self, s: np.ndarray) -> np.ndarray:
        return np.where(s <= self.tau1, 2, s >= self.tau2)  # True counts as class 1


@dataclass(frozen=True)
class MlrNpRule(Rule):
    """Raw-observation rule: 1 for x <= tau2, 2 for x >= tau1 (2 where both
    hold), abstain between.

    Assumes the class-2 likelihood ratio is increasing in x, so class 2 sits
    to the right; the abstention set is the interval (tau2, tau1).
    """

    rule_type = "mlr-np"
    column = "x"
    ordered = ("tau2", "tau1")
    tau2: float
    tau1: float

    def _decide(self, x: np.ndarray) -> np.ndarray:
        return np.where(x >= self.tau1, 2, x <= self.tau2)  # True counts as class 1


_RULE_TYPES = {
    cls.rule_type: cls for cls in (SelectiveBinaryRule, NpRule, MlrNpRule, MlrSymmetricRule, MaxScoreRule)
}


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CalibrationReport:
    """Selected rule plus the estimates that justified the selection.

    gamma_hat and achieved are what rule.apply does on the calibration data
    (holdout_* keys: on the holdout sample); feasible records whether the
    stated targets were met.

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


def _selective_errors(decisions: np.ndarray, labels: Optional[np.ndarray]) -> dict:
    """The abstained fraction gamma of decisions and, given labels, their errors.

    conditional_error: wrong over decided points; type1 and type2: wrong
    over the decided points of class 1 and of class 2; type1_marginal: the
    class-1 points decided wrongly over all class-1 points.  An empty
    denominator gives 0.
    """
    decided = decisions != 0
    n, n_dec = len(decisions), int(np.count_nonzero(decided))
    out = {"gamma": (n - n_dec) / n}
    if labels is None:
        return out
    wrong = decided & (decisions != labels)
    for key, whole in (
        ("conditional_error", decided),
        ("type1", decided & (labels == 1)),
        ("type2", decided & (labels == 2)),
        ("type1_marginal", labels == 1),
    ):
        total = int(np.count_nonzero(whole))
        out[key] = int(np.count_nonzero(wrong & whole)) / total if total else 0.0
    return out


def _report(rule: Rule, cal: CalibrationSample, keys: tuple, feasible: bool = True, trace=None, holdout=None):
    """rule's CalibrationReport: gamma_hat and the achieved keys from
    rule.apply on cal, and holdout_type1/2 from rule.apply on holdout."""
    stats = _selective_errors(rule.apply(cal.column(rule.column)), cal.labels)
    achieved = {key: stats[key] for key in keys if key in stats}
    if holdout is not None:
        held = _selective_errors(rule.apply(holdout.column(rule.column)), holdout.labels)
        achieved.update(holdout_type1=held["type1"], holdout_type2=held["type2"])
    return CalibrationReport(rule, stats["gamma"], achieved, feasible, trace or {})


# ---------------------------------------------------------------------------
# accuracy control: one confidence threshold


def _calibrate_accuracy(rule_type: type, cal: CalibrationSample, alpha: float, want_trace: bool):
    """The accuracy selector of both Chow rules on their calibration values.

    Candidate thresholds are the sorted confidences; candidate i decides
    every point with confidence >= the i-th one.  The first candidate whose
    error over those points is at most alpha is the rule, else tau = inf.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values, labels = _binary_sample(cal, rule_type.column)
    conf, predicted = rule_type.statistic(values)
    n = len(conf)
    order = np.argsort(conf, kind="stable")
    conf_sorted = conf[order]
    mis_sorted = (predicted != labels)[order]
    # decided set at candidate i is every point with confidence >= the i-th
    # sorted confidence: a suffix starting at the first occurrence of a tie
    mis_suffix = np.concatenate((np.cumsum(mis_sorted[::-1])[::-1], [0]))
    start = np.searchsorted(conf_sorted, conf_sorted, side="left")
    decided = n - start
    err = mis_suffix[start] / decided
    hits = np.flatnonzero(err <= alpha)
    trace = {}
    if want_trace:
        trace = {"tau": conf_sorted, "decided": decided, "error": err, "running_min": np.minimum.accumulate(err)}
    tau = float(conf_sorted[hits[0]]) if len(hits) else np.inf
    return _report(rule_type(tau=tau), cal, ("conditional_error",), len(hits) > 0, trace)


def calibrate_accuracy(
    cal: CalibrationSample, alpha: float, *, want_trace: bool = False
) -> CalibrationReport:
    """Smallest-abstention confidence threshold on max(s, 1 - s) with
    empirical error <= alpha, predicting 1 iff s >= 1/2.

    Each candidate threshold decides at least one point; with none meeting
    alpha the report is infeasible and its rule (tau = inf) abstains
    everywhere.
    """
    return _calibrate_accuracy(SelectiveBinaryRule, cal, alpha, want_trace)


def calibrate_accuracy_mlr(
    cal: CalibrationSample, alpha: float, *, want_trace: bool = False
) -> CalibrationReport:
    """Symmetric raw-observation accuracy control: decide iff |x| >= tau.

    Same selector as calibrate_accuracy with |x| as the confidence
    statistic and sign(x) as the prediction (class 2 to the right).
    """
    return _calibrate_accuracy(MlrSymmetricRule, cal, alpha, want_trace)


# ---------------------------------------------------------------------------
# fixed abstention mass


def _calibrate_fixed_gamma(rule_type: type, cal: CalibrationSample, gamma: float) -> CalibrationReport:
    """The cut of both fixed-gamma calibrators: the ceil(gamma * n) lowest
    confidences abstain, and so does every one tied with the last of them.
    tau is the largest abstained confidence for a rule that abstains at tau,
    else the smallest decided one (-inf or inf where there is none)."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    conf_sorted = np.sort(rule_type.statistic(cal.column(rule_type.column))[0])
    n = len(conf_sorted)
    m = int(np.ceil(gamma * n))
    if m:
        m = int(np.searchsorted(conf_sorted, conf_sorted[m - 1], side="right"))
    if rule_type.abstain_at_tau:
        tau = float(conf_sorted[m - 1]) if m else -np.inf
    else:
        tau = float(conf_sorted[m]) if m < n else np.inf
    return _report(rule_type(tau=tau), cal, ("conditional_error",))


def calibrate_accuracy_fixed_gamma(
    cal: CalibrationSample, gamma: float
) -> CalibrationReport:
    """Abstain on the ceil(gamma * n) lowest-confidence points and on every
    point tied with the last of them."""
    _binary_sample(cal, "score")
    return _calibrate_fixed_gamma(SelectiveBinaryRule, cal, gamma)


def calibrate_multiclass_fixed_gamma(
    cal: CalibrationSample, gamma: float
) -> CalibrationReport:
    """Abstain on the ceil(gamma * n) smallest max-score points and on every
    point tied with the last of them.

    Unsupervised: labels, when present, are used only to report the
    conditional error of the resulting argmax rule.
    """
    return _calibrate_fixed_gamma(MaxScoreRule, cal, gamma)


# ---------------------------------------------------------------------------
# type I / type II control: two thresholds


class _GridChoice(NamedTuple):
    """What _np_grid_select picked, in the search's value order: class 2 for
    values <= tau1, class 1 for values >= tau2 (class 2 where both hold),
    the abstention count k, and the trace.  tau0 is the threshold of the
    gamma = 0 rule under the plain type-I budget (class 2 for values <=
    tau0, class 1 above)."""

    k: int
    tau1: float
    tau2: float
    feasible: bool
    trace: dict
    tau0: float


def _np_grid_select(
    values: np.ndarray,
    is_class1: np.ndarray,
    alpha1: float,
    alpha2: float,
    *,
    high_prob_delta: Optional[float] = None,
    want_trace: bool = False,
) -> _GridChoice:
    """Shared two-threshold grid search.

    values are ordered so that SMALL means class-2-like (the class-2 block is
    a bottom prefix, abstention the next k ranks, class 1 the rest).  Both
    block edges sit between distinct values, so that thresholds there decide
    exactly these blocks: the class-2 block is the largest one within the
    type-I budget whose edge is a tie edge, and a k whose class-1 edge is
    not a tie edge is not valid.
    """
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise ValueError("alpha1 and alpha2 must lie in (0, 1)")
    n = len(values)
    n1 = int(is_class1.sum())
    if n1 in (0, n):
        raise ValueError("both classes must be present")
    order = np.argsort(values, kind="stable")
    v_sorted = values[order]
    ranks = np.arange(0, n + 1)
    cum1 = np.cumsum(is_class1[order])  # class-1 count among ranks 1..r
    cum1_ext = np.concatenate(([0], cum1))
    # rank r is a tie edge when ranks 1..r and r+1..n share no value;
    # edge_floor[r] is the largest tie edge <= r
    is_edge = np.concatenate(([True], v_sorted[:-1] < v_sorted[1:], [True]))
    edge_floor = np.maximum.accumulate(np.where(is_edge, ranks, 0))

    gammas = ranks / n
    budget_counts = _type1_count_budget(n1, (1.0 - gammas) * alpha1, high_prob_delta)
    # largest tie edge k_tilde with cum1[k_tilde] <= budget (0 = empty block)
    k_tilde = edge_floor[np.searchsorted(cum1, budget_counts + 0.5, side="left")]
    top_start = k_tilde + ranks  # first class-1 rank is top_start + 1
    ts = np.minimum(top_start, n)
    valid = (top_start <= n) & is_edge[ts]
    # class-2 points decided as class 1, over those in either decided block
    top2 = (n - n1) - (ts - cum1_ext[ts])
    type2 = np.where(valid, top2 / np.maximum(top2 + k_tilde - cum1_ext[k_tilde], 1), np.inf)

    # full abstention always meets alpha2 vacuously (empty decided set); it
    # is excluded so feasible=False flags data where no substantive rule works
    feasible_ks = np.flatnonzero((type2 <= alpha2) & (ranks < n))
    trace = {}
    if want_trace:
        trace = {
            "k": ranks,
            "gamma": gammas,
            "k_tilde": k_tilde,
            "type1_count": cum1_ext[k_tilde],
            "type2": np.where(valid, type2, np.nan),
            "valid": valid,
        }

    def below(rank: int) -> float:
        return float(v_sorted[rank - 1]) if rank >= 1 else -np.inf

    feasible = len(feasible_ks) > 0
    k = int(feasible_ks[0]) if feasible else int(np.argmin(np.where(ranks < n, type2, np.inf)))
    # class 2 up to rank kt, abstain on the next k ranks, class 1 from rank kt + k + 1
    kt = int(k_tilde[k])
    tau1 = below(kt)
    tau2 = tau1 if k == 0 else below(kt + k + 1) if kt + k < n else np.inf
    kt0 = edge_floor[np.searchsorted(cum1, _type1_count_budget(n1, np.array([alpha1]), None)[0] + 0.5)]
    return _GridChoice(k, tau1, tau2, feasible, trace, below(int(kt0)))


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


_NP_KEYS = ("type1", "type2", "type1_marginal")


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
    type II error reaches alpha2 wins.  Both block edges fall between
    distinct scores (see _np_grid_select).  By default type II is estimated
    on the calibration sample itself; pass holdout for a post-selection
    estimate on fresh data.  high_prob_delta switches the type-I budget to
    the conservative binomial order-statistic rank.
    """
    scores, labels = _binary_sample(cal, "score")
    if holdout is not None:
        _binary_sample(holdout, "score")
    choice = _np_grid_select(
        scores, labels == 1, alpha1, alpha2, high_prob_delta=high_prob_delta, want_trace=want_trace
    )
    rule = NpRule(tau1=choice.tau1, tau2=choice.tau2)
    return _report(rule, cal, _NP_KEYS, choice.feasible, choice.trace, holdout if choice.feasible else None)


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
    xs, labels = _binary_sample(cal, "x")
    choice = _np_grid_select(-xs, labels == 1, alpha1, alpha2, high_prob_delta=high_prob_delta, want_trace=want_trace)
    report = _report(MlrNpRule(tau2=-choice.tau2, tau1=-choice.tau1), cal, _NP_KEYS, choice.feasible, choice.trace)
    gamma0 = MlrNpRule(tau2=-choice.tau0, tau1=-choice.tau0)
    power0 = 1.0 - _selective_errors(gamma0.apply(xs), labels)["type2"]
    report.achieved.update(power_at_gamma0=power0, power_criterion_positive_gamma=bool(power0 < 1.0 - alpha2))
    return report
