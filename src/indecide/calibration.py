"""Finite-sample calibration of abstention rules from labeled scores.

Two families of guarantees:

* accuracy control — pick one confidence threshold so the empirical error
  over decided points is at most alpha, abstaining as little as possible;
* type I / type II control — pick two thresholds on the class-1 posterior
  (or on raw observations under a monotone likelihood ratio) so both
  conditional error rates meet their targets with minimal abstention.

Every report is what its rule does: gamma_hat and the achieved errors come
from rule.apply on the calibration sample.  All selection is rank-based on
one sort of the calibration values, read only where ties start and end; a
zero threshold takes the sign of the zero a stable sort would put at its
rank.  So the rule, report and trace do not depend on how the sort orders
tied values, and reruns on the same data return identical rules.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple, Optional, Union

import numpy as np

from .numerics import as_stable_sort, class_labels

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
    scalar observations) is set.  labels are 1-based class indices, at most
    K with score_vectors; they may be omitted only for the unsupervised
    multiclass path.
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
            lab = class_labels(self.labels)
            if lab.shape != (n,):
                raise ValueError("labels must match the sample length")
            if (lab < 1).any():
                raise ValueError("labels are 1-based class indices")
            k = None if self.score_vectors is None else self.score_vectors.shape[1]
            if k is not None and (lab > k).any():
                raise ValueError(f"label {lab.max()} exceeds K = {k}, the number of score columns")
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


def _np_decide(s: np.ndarray, tau1, tau2) -> np.ndarray:
    """NpRule's decisions, by thresholds that broadcast against s: a column of them decides a stack."""
    return np.where(s <= tau1, 2, s >= tau2)  # True counts as class 1


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
        return _np_decide(s, self.tau1, self.tau2)


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

    gamma_hat and achieved are what rule.apply does on the calibration data;
    feasible records whether the stated targets were met.

    trace holds per-candidate diagnostics when the calibrator was asked for
    them (want_trace=True), else it is empty.  It is a dict of columns: each
    value is a 1-d numpy array with one entry per candidate, in selection
    order, and all arrays have the same length.  The key order is the column
    order of the trace CSV.  The Chow-rule modes give tau, decided, error
    and running_min (tau and decided only, for an unlabelled sample); the
    two-threshold modes give k, gamma, k_tilde, type1_count, type2 (NaN
    where the candidate is not valid) and valid.
    """

    rule: Rule
    gamma_hat: float
    achieved: dict
    feasible: bool
    trace: dict = field(default_factory=dict)


def _selective_errors(decisions: np.ndarray, labels: Optional[np.ndarray]) -> dict:
    """The abstained fraction gamma of decisions and, given labels, their errors: floats for
    a 1-d array, arrays over the rows of a 2-d stack, from one count table per row.

    conditional_error: wrong over decided points; type1 and type2: wrong
    over the decided points of class 1 and of class 2; type1_marginal: the
    class-1 points decided wrongly over all class-1 points.  An empty
    denominator gives 0.
    """
    decided, n = decisions != 0, decisions.shape[-1]
    # a table per row: row 0 abstained, 1 decided rightly, 2 decided wrongly; column 1 or 2 for label 1 or
    # 2, column 0 for any other label, and for every point without labels
    cell = 3 * decided
    if labels is not None:
        cell = cell + (labels == 1) + 2 * (labels == 2) + 3 * (decided & (decisions != labels))
    if cell.ndim > 1:  # row i's table in slots 9 i to 9 i + 8
        cell = cell + 9 * np.arange(len(cell))[:, None]
    rows = []
    for abstained, right, wrong in np.bincount(cell.ravel(), minlength=cell.size // n * 9).reshape(-1, 3, 3).tolist():
        rows.append({"gamma": sum(abstained) / n})
        if labels is not None:
            for key, errors, total in (
                ("conditional_error", sum(wrong), sum(right) + sum(wrong)),
                ("type1", wrong[1], right[1] + wrong[1]),
                ("type2", wrong[2], right[2] + wrong[2]),
                ("type1_marginal", wrong[1], abstained[1] + right[1] + wrong[1]),
            ):
                rows[-1][key] = errors / total if total else 0.0
    return rows[0] if decisions.ndim == 1 else {key: np.array([row[key] for row in rows]) for key in rows[0]}


def _report(rule: Rule, cal: CalibrationSample, keys: tuple, feasible: bool = True, trace=None):
    """rule's CalibrationReport: gamma_hat and the achieved keys from rule.apply on cal."""
    stats = _selective_errors(rule.apply(cal.column(rule.column)), cal.labels)
    achieved = {key: stats[key] for key in keys if key in stats}
    return CalibrationReport(rule, stats["gamma"], achieved, feasible, trace or {})


def _tie_table(values: np.ndarray, mark: Optional[np.ndarray]):
    """For n values, or row by row for a C x n stack: the values sorted once; is_edge[..., r] for r
    in 0..n, true where ranks 1..r and r+1..n share no value; edge_floor[..., r], the largest tie
    edge at or below r; and cum[..., r], the marked points among ranks 1..r (None without a mark).
    Only the sorted values show how the sort ordered ties."""
    n = values.shape[-1]
    order = np.argsort(values)
    if values.ndim > 1 and len(values) > 1:  # each rank's position in the flat stack, for flat gathers
        order += n * np.arange(len(values))[:, None]
    v_sorted = values.ravel()[order]
    is_edge = np.ones(values.shape[:-1] + (n + 1,), bool)
    np.less(v_sorted[..., :-1], v_sorted[..., 1:], out=is_edge[..., 1:-1])
    edge_floor = np.maximum.accumulate(np.where(is_edge, np.arange(n + 1), 0), axis=-1)
    if mark is None:
        return v_sorted, is_edge, edge_floor, None
    cum = np.zeros(is_edge.shape, np.intp)
    np.cumsum(mark.ravel()[order], axis=-1, out=cum[..., 1:])
    return v_sorted, is_edge, edge_floor, cum


# ---------------------------------------------------------------------------
# Chow's reject rule: one confidence threshold


def _calibrate_chow(
    rule_type: type, cal: CalibrationSample, want_trace: bool, cut, cut_reads_errors: bool
) -> CalibrationReport:
    """Both Chow-rule selectors, on one tie table of the confidences.

    Candidate i decides the points whose confidence is at least the i-th
    smallest: the ranks from start[i], the tie edge at or below i.
    cut(start, err), with err each candidate's error over its decided points
    (None without labels, or when neither the cut nor the trace reads it),
    gives the candidate the rule decides from (a tie edge, or n for none)
    and whether it is feasible.
    """
    conf, predicted = rule_type.statistic(cal.column(rule_type.column))
    count_errors = cal.labels is not None and (want_trace or cut_reads_errors)
    conf_sorted, _, edge_floor, cum = _tie_table(conf, predicted != cal.labels if count_errors else None)
    n = len(conf_sorted)
    start = edge_floor[:n]
    decided = n - start
    err = None if cum is None else (cum[n] - cum[start]) / decided
    i, feasible = cut(start, err)
    # tau: the largest abstained confidence where the rule abstains at tau, else the smallest decided one
    if rule_type.abstain_at_tau:
        tau = float(conf_sorted[i - 1]) if i else -np.inf
    else:
        tau = float(conf_sorted[i]) if i < n else np.inf
    trace = {}
    if want_trace:
        trace = {"tau": conf_sorted, "decided": decided}
        if err is not None:
            trace.update(error=err, running_min=np.minimum.accumulate(err))
    return _report(rule_type(tau=tau), cal, ("conditional_error",), feasible, trace)


def _calibrate_accuracy(rule_type: type, cal: CalibrationSample, alpha: float, want_trace: bool):
    """The accuracy selector of both Chow rules: the first candidate whose
    error is at most alpha, else none (tau = inf) and infeasible."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _binary_sample(cal, rule_type.column)

    def first_within(start, err):
        hits = np.flatnonzero(err <= alpha)
        return (int(hits[0]), True) if len(hits) else (len(start), False)

    return _calibrate_chow(rule_type, cal, want_trace, first_within, cut_reads_errors=True)


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


def _calibrate_fixed_gamma(rule_type: type, cal: CalibrationSample, gamma: float, want_trace: bool):
    """The cut of both fixed-gamma calibrators: the first candidate whose
    decided set starts at or past ceil(gamma * n), so the ceil(gamma * n)
    lowest confidences abstain, and so does every one tied with the last."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    m = int(np.ceil(gamma * cal.n))

    def first_past_m(start, _):
        return int(np.searchsorted(start, m)), True

    return _calibrate_chow(rule_type, cal, want_trace, first_past_m, cut_reads_errors=False)


def calibrate_accuracy_fixed_gamma(
    cal: CalibrationSample, gamma: float, *, want_trace: bool = False
) -> CalibrationReport:
    """Abstain on the ceil(gamma * n) lowest-confidence points and on every
    point tied with the last of them."""
    _binary_sample(cal, "score")
    return _calibrate_fixed_gamma(SelectiveBinaryRule, cal, gamma, want_trace)


def calibrate_multiclass_fixed_gamma(
    cal: CalibrationSample, gamma: float, *, want_trace: bool = False
) -> CalibrationReport:
    """Abstain on the ceil(gamma * n) smallest max-score points and on every
    point tied with the last of them.

    Unsupervised: labels, when present, are used only to report the
    conditional error of the resulting argmax rule, and its trace's error
    column.
    """
    return _calibrate_fixed_gamma(MaxScoreRule, cal, gamma, want_trace)


# ---------------------------------------------------------------------------
# type I / type II control: two thresholds


class _GridChoice(NamedTuple):
    """What _np_grid_select picked, in the search's value order: class 2 for values <= tau1, class 1
    for values >= tau2 (class 2 where both hold), and the trace; tau0 is the gamma = 0 rule's threshold
    under the plain type-I budget (class 2 for values <= tau0).  Floats, a bool and 1-d trace columns
    for one sample; for a stack, a row per sample in each but the trace's k and gamma, which all share."""

    tau1: Union[float, np.ndarray]
    tau2: Union[float, np.ndarray]
    feasible: Union[bool, np.ndarray]
    trace: dict
    tau0: Union[float, np.ndarray]

    def row(self, i: int) -> _GridChoice:
        """A stack's choice for sample i, in the one-sample form."""
        trace = {name: column[i] if column.ndim > 1 else column for name, column in self.trace.items()}
        return _GridChoice(float(self.tau1[i]), float(self.tau2[i]), bool(self.feasible[i]), trace, float(self.tau0[i]))


def _np_grid_select(
    values: np.ndarray,
    is_class1: np.ndarray,
    alpha1: float,
    alpha2: float,
    *,
    high_prob_delta: Optional[float] = None,
    want_trace: bool = False,
) -> _GridChoice:
    """Shared two-threshold grid search, on one sample or on each row of a C x n stack of them.

    values are ordered so that SMALL means class-2-like (the class-2 block is
    a bottom prefix, abstention the next k ranks, class 1 the rest).  Both
    block edges sit between distinct values, so that thresholds there decide
    exactly these blocks: the class-2 block is the largest one within the
    type-I budget whose edge is a tie edge, and a k whose class-1 edge is
    not a tie edge is not valid.  Each row's choice, tau0 with it, is the one
    it gets alone.
    """
    if values.ndim == 1:  # one sample: a stack of one, in the one-sample form
        options = dict(high_prob_delta=high_prob_delta, want_trace=want_trace)
        return _np_grid_select(values[None], is_class1[None], alpha1, alpha2, **options).row(0)
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise ValueError("alpha1 and alpha2 must lie in (0, 1)")
    if high_prob_delta is not None and not 0.0 < high_prob_delta < 1.0:
        raise ValueError("high_prob_delta must lie in (0, 1)")
    rows, n = values.shape
    n1 = is_class1.sum(axis=1)
    if n1.min() == 0 or n1.max() == n:
        raise ValueError("both classes must be present")
    v_sorted, is_edge, edge_floor, cum1 = _tie_table(values, is_class1)  # cum1[:, r]: class-1 count among ranks 1..r
    ranks = np.arange(0, n + 1)
    gammas = ranks / n
    levels = (1.0 - gammas) * alpha1
    budget_at = np.empty((rows, n + 2), np.intp)
    if high_prob_delta is None:
        budget_at[:, :-1] = _type1_count_budget(n1[:, None], levels, None)
    else:
        budget_at[:, :-1] = [_type1_count_budget(int(m), levels, high_prob_delta) for m in n1]
    budget_at[:, -1] = _type1_count_budget(n1, alpha1, None)  # tau0's: the plain budget at gamma = 0, whichever selects
    # largest tie edge k_tilde with cum1[k_tilde] <= budget b (0 = empty block): the edge floor of the rank
    # before the row's (b + 1)-th class-1 point, or of n where b counts them all.  Row by row, in the flat
    # rows x (n + 1) layout, before_class1 lists the rank before each class-1 point (0-based rank), then n
    ends = np.ones((rows, n + 1), bool)
    np.greater(cum1[:, 1:], cum1[:, :-1], out=ends[:, :-1])
    before_class1 = np.flatnonzero(ends)
    if rows > 1:  # row i's entries start after the n1 + 1 of each row before it
        budget_at += (np.cumsum(n1 + 1) - (n1 + 1))[:, None]
    k_tilde = edge_floor.ravel()[before_class1[budget_at]]
    k_tilde, kt0 = k_tilde[:, :-1], k_tilde[:, -1]
    shift = None if rows == 1 else (n + 1) * np.arange(rows)[:, None]  # row i's start in a flat C x (n + 1) array

    def pick(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """a[i, idx[i]] for each row i of a C x (n + 1) array, by one flat gather."""
        return a.ravel()[idx if shift is None else idx + shift]

    top_start = k_tilde + ranks  # first class-1 rank is top_start + 1
    ts = np.minimum(top_start, n)
    valid = (top_start <= n) & pick(is_edge, ts)
    # class-2 points decided as class 1, over those in either decided block
    top2 = (n - n1[:, None]) - (ts - pick(cum1, ts))
    type1_count = pick(cum1, k_tilde)
    type2 = np.where(valid, top2 / np.maximum(top2 + k_tilde - type1_count, 1), np.inf)

    # full abstention always meets alpha2 vacuously (empty decided set); it
    # is excluded so feasible=False flags data where no substantive rule works
    meets = (type2 <= alpha2) & (ranks < n)
    trace = {}
    if want_trace:
        trace = {
            "k": ranks,
            "gamma": gammas,
            "k_tilde": k_tilde,
            "type1_count": type1_count,
            "type2": np.where(valid, type2, np.nan),
            "valid": valid,
        }
    feasible, k = meets.any(axis=-1), meets.argmax(axis=-1)  # the first k that meets alpha2
    if not feasible.all():  # else the first with the least type II error
        k = np.where(feasible, k, np.argmin(np.where(ranks < n, type2, np.inf), axis=-1))

    def below(i: int, rank: int) -> float:
        """Row i's value at rank (1-based), -inf at rank 0; a zero as a stable sort orders the row."""
        return as_stable_sort(values[i], rank - 1, v_sorted[i, rank - 1]) if rank >= 1 else -np.inf

    taus = []  # each row's tau1, tau2 and tau0: class 2 up to rank kt, abstain on the next k, class 1 from kt + k + 1
    for i, (k_i, kt, kt0_i) in enumerate(zip(k.tolist(), k_tilde[np.arange(rows), k].tolist(), kt0.tolist())):
        tau1 = below(i, kt)
        taus.append((tau1, tau1 if k_i == 0 else below(i, kt + k_i + 1) if kt + k_i < n else np.inf, below(i, kt0_i)))
    tau1, tau2, tau0 = np.array(taus).T
    return _GridChoice(tau1, tau2, feasible, trace, tau0)


def _type1_count_budget(n1, levels: np.ndarray, high_prob_delta: Optional[float]):
    """Class-1 count allowed in the class-2 block at each candidate gamma.

    Default: the plain empirical budget floor(level * n1) realized through a
    <= comparison, where n1 may be an array broadcast against the levels.
    With high_prob_delta set (and n1 an int), the largest count j <=
    floor(level * n1) with P(Binomial(n1, level) <= j - 1) <= delta: the
    order-statistic rank of the NP umbrella algorithm (Tong, Feng & Li,
    Sci. Adv. 2018), used by abstention-free type-I-control baselines.

    That count is min(floor(level * n1), #{m >= 0 : F(m; level) <= delta})
    for the binomial CDF F(m; p) = P(Binomial(n1, p) <= m), which rises in
    m and falls in p.  So for each count m below the largest cap, the
    levels with F(m; level) <= delta are those at or above one edge, and
    the edges rise with m; each level's count is the number of edges at or
    below it.  An edge starts at the closed-form Camp-Paulson guess (the
    normal quantile ndtri(delta), then one quadratic per count) and is
    settled by the binomial CDF: a probe at the guess, one at its neighbour
    on the side still open, so a guess one level off settles in two probes,
    then bisection over the sorted levels where the guess was further off.
    Only the probes decide a count, so a worse guess costs probes, never a
    different count.  The cost is one sort of the levels and about
    2 * floor(max level * n1) CDF evaluations.

    The probes call binom._cdf, the hook binom.cdf calls after checking its
    arguments; skipping those checks, the broadcasting and the output masking
    makes a probe about three times cheaper.  Every probe lies in the support
    (0 <= m < n1, 0 <= level <= 1), where binom.cdf returns the hook's value
    clipped to [0, 1]; a clip cannot move a value across delta, so every
    count is the one binom.cdf gives.
    """
    if high_prob_delta is None:
        return np.floor(levels * n1 + 1e-12)
    from scipy.special import ndtri
    from scipy.stats import binom

    cap = np.floor(levels * n1)
    # stable: calibrate_np's levels descend, one run for timsort; equal levels get
    # equal counts, since an edge is the first level where the CDF is within delta
    order = np.argsort(levels, kind="stable")
    ascending = levels[order]
    ms = np.arange(int(cap.max(initial=0)))
    # edge of count m: the first ascending level with F(m; level) <= delta, or len(levels) for none
    lo, hi = np.zeros(len(ms), np.intp), np.full(len(ms), len(levels))

    def probe(at: np.ndarray, where: np.ndarray) -> None:
        (rows,) = np.nonzero(where)
        ok = binom._cdf(ms[rows], n1, ascending[at[rows]]) <= high_prob_delta
        hi[rows[ok]] = at[rows[ok]]
        lo[rows[~ok]] = at[rows[~ok]] + 1

    # Camp-Paulson: F(m; p) = P(F(2a, 2b) >= x) for a = m + 1, b = n1 - m and x = b p / (a (1 - p)), and
    # Paulson's normal approximation of the F law makes F(m; p) = delta a quadratic in y = x^(1/3)
    a, b = ms + 1.0, n1 - ms
    c, va, vb = -ndtri(high_prob_delta), 1 / (9 * a), 1 / (9 * b)
    qa, qb, qc = (1 - vb) ** 2 - c * c * vb, (1 - vb) * (1 - va), (1 - va) ** 2 - c * c * va
    with np.errstate(invalid="ignore", divide="ignore"):
        x = ((qb + np.sign(c) * np.sqrt(qb * qb - qa * qc)) / qa) ** 3
    guess = np.searchsorted(ascending, a * x / (b + a * x))  # NaN guesses land past the end
    probe(guess, guess < len(levels))
    probe(np.where(hi == guess, guess - 1, guess + 1), lo < hi)  # the neighbour on the open side
    while (open_ := lo < hi).any():
        probe((lo + hi) // 2, open_)
    counts = np.empty(len(levels))
    counts[order] = np.cumsum(np.bincount(lo, minlength=len(levels) + 1))[:-1]
    return np.minimum(cap, counts)


_NP_KEYS = ("type1", "type2", "type1_marginal")


def calibrate_np(
    cal: CalibrationSample,
    alpha1: float,
    alpha2: float,
    *,
    high_prob_delta: Optional[float] = None,
    want_trace: bool = False,
) -> CalibrationReport:
    """Smallest abstention mass meeting both conditional error targets.

    Sweeps gamma over {k/n}: the class-2 block is the largest low-score
    prefix keeping the class-1 fraction within (1 - gamma) * alpha1, the
    next k order statistics abstain, and the first gamma whose estimated
    type II error reaches alpha2 wins.  Both block edges fall between
    distinct scores (see _np_grid_select).  The errors are estimated on the
    calibration sample itself; apply the rule to fresh data for estimates
    after selection.  high_prob_delta, in (0, 1), switches the type-I budget
    to the conservative binomial order-statistic rank (see
    _type1_count_budget); that budget imports scipy.stats (binom, whose CDF
    hook it calls) and scipy.special (ndtri) on first use.
    """
    s, labels = _binary_sample(cal, "score")
    choice = _np_grid_select(s, labels == 1, alpha1, alpha2, high_prob_delta=high_prob_delta, want_trace=want_trace)
    return _report(NpRule(tau1=choice.tau1, tau2=choice.tau2), cal, _NP_KEYS, choice.feasible, choice.trace)


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
