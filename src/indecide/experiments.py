"""Seeded Monte Carlo studies of the calibration procedures.

Every study draws from the symmetric two-component Gaussian mixture
(centers at -delta and +delta, unit variance, equal priors, class 1 on the
right), fits a scorer, calibrates an abstention rule on held-out data, and
evaluates on a test split.  Replication r of a run with seed s always uses
seeded_stream(s, r), so results are byte-identical at any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import gmm
from .calibration import CalibrationSample, _selective_errors, calibrate_accuracy, calibrate_np
from .kvdoc import write_columns
from .models import fit_lda, fit_logistic, predict_eta
from .numerics import normal_tail, seeded_stream, sigmoid
from .svgchart import line_chart_svg

__all__ = [
    "SimConfig",
    "SimResult",
    "run_accuracy_sweep",
    "run_np_sweep",
    "run_intro_tradeoff",
    "run_consistency_trend",
    "sim_result_to_csv",
    "plugin_population_risk",
]

_SCORERS = ("oracle-eta", "lda", "logistic")


@dataclass(frozen=True)
class SimConfig:
    """Sizes, targets, scorer choice, and seed for one simulation study."""

    n_train: int = 1000
    n_cal: int = 1000
    n_test: int = 1000
    reps: int = 200
    delta_grid: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    alpha: float = 0.1
    alpha1: float = 0.1
    alpha2: float = 0.1
    scorer: str = "lda"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_train", "n_cal", "n_test", "reps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if len(self.delta_grid) == 0 or any(d <= 0 for d in self.delta_grid):
            raise ValueError("delta_grid must be nonempty with positive entries")
        for name in ("alpha", "alpha1", "alpha2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.scorer not in _SCORERS:
            raise ValueError(f"scorer must be one of {_SCORERS}")


@dataclass(frozen=True)
class SimResult:
    """Per-replication rows plus per-group aggregates, as numpy columns.

    Each maps column name to a 1-d array, in CSV column order; aggregates
    hold one row per group in ascending key order, with 5th/95th bands that
    are order statistics across replications.
    """

    rows: dict[str, np.ndarray]
    aggregates: dict[str, np.ndarray]


def _sample_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF normal draws: platform-independent for a fixed stream."""
    from scipy import special  # imported here so the CLI starts without scipy

    u = rng.random(size)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return -special.ndtri(u)


def _draw_mixture(rng: np.random.Generator, n: int, delta: float):
    """Labels in {1, 2} (equal priors) and observations x | y."""
    labels = np.where(rng.random(n) < 0.5, 1, 2)
    centers = np.where(labels == 1, delta, -delta)
    x = centers + _sample_normal(rng, n)
    return x, labels


def oracle_eta(x: np.ndarray, delta: float) -> np.ndarray:
    """Exact class-1 posterior of the symmetric mixture: sigmoid(2 delta x)."""
    return sigmoid(2.0 * delta * np.asarray(x, dtype=float))


def _fit_scorer(scorer: str, x: np.ndarray, labels: np.ndarray, delta: float):
    if scorer == "oracle-eta":
        return lambda xs: oracle_eta(xs, delta)
    if scorer == "lda":
        model = fit_lda(x, labels)
        return lambda xs: predict_eta(model, xs)
    model = fit_logistic(x, labels)
    return lambda xs: predict_eta(model, xs)


# ---------------------------------------------------------------------------
# accuracy sweep


def _accuracy_rep(cfg: SimConfig, rep: int) -> list[dict]:
    rng = seeded_stream(cfg.seed, rep)
    rows = []
    arms = [cfg.scorer] if cfg.scorer == "oracle-eta" else [cfg.scorer, "oracle-eta"]
    for delta in cfg.delta_grid:
        x_tr, y_tr = _draw_mixture(rng, cfg.n_train, delta)
        x_cal, y_cal = _draw_mixture(rng, cfg.n_cal, delta)
        x_te, y_te = _draw_mixture(rng, cfg.n_test, delta)
        for arm in arms:
            score = _fit_scorer(arm, x_tr, y_tr, delta)
            report = calibrate_accuracy(
                CalibrationSample(scores=score(x_cal), labels=y_cal), cfg.alpha
            )
            decisions = report.rule.apply(score(x_te))
            stats = _selective_errors(decisions, y_te)
            rows.append(
                {
                    "delta": delta,
                    "rep": rep,
                    "arm": arm,
                    "gamma_hat": report.gamma_hat,
                    "test_gamma": stats["gamma"],
                    "conditional_error": stats["conditional_error"],
                    "feasible": int(report.feasible),
                }
            )
    return rows


def run_accuracy_sweep(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Accuracy-controlled calibration across the delta grid.

    Arms: the configured scorer plus an exact-posterior baseline.  Rows hold
    the selected abstention fraction and the test-set conditional error per
    replication; aggregates add means and 5th/95th bands.
    """
    keys, metrics = ("delta", "arm"), ("gamma_hat", "test_gamma", "conditional_error")
    return _run_study(partial(_accuracy_rep, cfg), cfg.reps, workers, keys, metrics)


# ---------------------------------------------------------------------------
# type I / type II sweep


def _np_rep(cfg: SimConfig, rep: int) -> list[dict]:
    rng = seeded_stream(cfg.seed, rep)
    rows = []
    for delta in cfg.delta_grid:
        x_tr, y_tr = _draw_mixture(rng, cfg.n_train, delta)
        x_cal, y_cal = _draw_mixture(rng, cfg.n_cal, delta)
        x_te, y_te = _draw_mixture(rng, cfg.n_test, delta)
        score = _fit_scorer(cfg.scorer, x_tr, y_tr, delta)
        s_cal, s_te = score(x_cal), score(x_te)
        cal = CalibrationSample(scores=s_cal, labels=y_cal)

        report = calibrate_np(cal, cfg.alpha1, cfg.alpha2, want_trace=True)
        type2_curve = report.trace["type2"][report.trace["valid"]]  # NaN exactly where not valid
        curve_p5, curve_p95 = _percentile(type2_curve, 5.0), _percentile(type2_curve, 95.0)

        # abstention-free baseline: the selection's own class-2 block at gamma = 0
        kt0 = int(report.trace["k_tilde"][0])
        tau0 = float(np.partition(s_cal, kt0 - 1)[kt0 - 1]) if kt0 >= 1 else -np.inf
        baseline = np.where(s_te <= tau0, 2, 1)

        bayes = np.where(s_te >= 0.5, 1, 2)

        for arm, decisions, gamma_sel in (
            ("algorithm2", report.rule.apply(s_te), report.gamma_hat),
            ("np-baseline", baseline, 0.0),
            ("bayes", bayes, 0.0),
        ):
            stats = _selective_errors(decisions, y_te)
            rows.append(
                {
                    "delta": delta,
                    "rep": rep,
                    "arm": arm,
                    "gamma_star": gamma_sel,
                    "test_gamma": stats["gamma"],
                    "type1": stats["type1"],
                    "type2": stats["type2"],
                    "conditional_error": stats["conditional_error"],
                    "feasible": int(report.feasible) if arm == "algorithm2" else 1,
                    "cal_type2_curve_p5": curve_p5,
                    "cal_type2_curve_p95": curve_p95,
                }
            )
    return rows


def run_np_sweep(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Type I / type II controlled calibration versus abstention-free arms.

    Three arms per cell: the two-threshold procedure, an abstention-free
    baseline holding only the type-I budget, and the plain posterior argmax.
    Each row also carries the 5th/95th band of the achievable type II error
    over the full abstention grid on the calibration data.
    """
    keys, metrics = ("delta", "arm"), ("gamma_star", "type1", "type2")
    return _run_study(partial(_np_rep, cfg), cfg.reps, workers, keys, metrics)


# ---------------------------------------------------------------------------
# accuracy/abstention tradeoff across separations


def _tradeoff_rep(cfg: SimConfig, target: float, rep: int) -> list[dict]:
    rng = seeded_stream(cfg.seed, rep)
    rows = []
    for delta in cfg.delta_grid:
        spec = gmm.GmmSpec(delta)
        bayes_error = normal_tail(delta)
        try:
            point = gmm.gamma_for_target_risk(spec, target)
            gamma_star, t_star = point.gamma, point.t
        except gmm.InfeasibleTargetError:
            gamma_star, t_star = math.nan, math.nan
        x, y = _draw_mixture(rng, cfg.n_test, delta)
        if math.isfinite(t_star):
            decisions = np.where(np.abs(x) < t_star, 0, np.where(x >= 0, 1, 2))
            stats = _selective_errors(decisions, y)
            emp_gamma, emp_err = stats["gamma"], stats["conditional_error"]
        else:
            emp_gamma, emp_err = math.nan, math.nan
        rows.append(
            {
                "delta": delta,
                "separation_2delta": 2.0 * delta,
                "rep": rep,
                "bayes_accuracy": 1.0 - bayes_error,
                "target_error": target,
                "gamma_star": gamma_star,
                "empirical_gamma": emp_gamma,
                "empirical_conditional_error": emp_err,
            }
        )
    return rows


def run_intro_tradeoff(cfg: SimConfig, target_error: float = 0.01, workers: int = 1) -> SimResult:
    """Exact accuracy/abstention tradeoff plus a sampled check per separation.

    For each delta: the no-abstention accuracy ceiling, the exact minimal
    abstention gamma* reaching target_error, and the empirical abstention and
    error of the closed-form thresholds on a fresh sample.  Separation is
    reported both as delta (half the center distance) and as 2 * delta.
    """
    metrics = ("gamma_star", "empirical_gamma", "empirical_conditional_error")
    return _run_study(partial(_tradeoff_rep, cfg, target_error), cfg.reps, workers, ("delta",), metrics)


# ---------------------------------------------------------------------------
# plug-in consistency trend


def _mixture_cdf(a: float, delta: float) -> float:
    return 0.5 * ((1.0 - normal_tail(a - delta)) + (1.0 - normal_tail(a + delta)))


def plugin_population_risk(center: float, predict1_right: bool, delta: float, gamma: float) -> float:
    """Exact conditional risk of a fitted symmetric-in-confidence 1-d rule.

    The rule abstains on the interval [center - h, center + h] whose mixture
    mass is exactly gamma, and predicts by side of the interval.  This is
    the infinite-calibration-set risk of a monotone plug-in score whose 0.5
    crossing sits at `center`.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    lo, hi = 0.0, 1.0
    while _mixture_cdf(center + hi, delta) - _mixture_cdf(center - hi, delta) < gamma:
        hi *= 2.0
        if hi > 1e6:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        mass = _mixture_cdf(center + mid, delta) - _mixture_cdf(center - mid, delta)
        if mass < gamma:
            lo = mid
        else:
            hi = mid
    h = 0.5 * (lo + hi)
    a, b = center - h, center + h
    # class-conditional tail masses on each decided side
    p1_right = 0.5 * normal_tail(b - delta)
    p2_right = 0.5 * normal_tail(b + delta)
    p1_left = 0.5 * (1.0 - normal_tail(a - delta))
    p2_left = 0.5 * (1.0 - normal_tail(a + delta))
    if predict1_right:
        wrong = p2_right + p1_left
    else:
        wrong = p1_right + p2_left
    return wrong / (1.0 - gamma)


def _consistency_rep(delta: float, gamma: float, n_grid: tuple[int, ...], seed: int, rep: int) -> list[dict]:
    rng = seeded_stream(seed, rep)
    oracle_risk = gmm.threshold_for_gamma(gmm.GmmSpec(delta), gamma).risk
    rows = []
    for n_train in n_grid:
        x, y = _draw_mixture(rng, n_train, delta)
        model = fit_lda(x, y)
        cov_inv = np.linalg.inv(model.pooled_covariance)[0, 0]
        w = float(cov_inv * (model.class_means[0, 0] - model.class_means[1, 0]))
        b = float(
            -0.5
            * cov_inv
            * (model.class_means[0, 0] ** 2 - model.class_means[1, 0] ** 2)
            + math.log(model.priors[0] / model.priors[1])
        )
        if w == 0.0:
            center, predict1_right = 0.0, True
        else:
            center, predict1_right = -b / w, w > 0
        risk = plugin_population_risk(center, predict1_right, delta, gamma)
        rows.append(
            {
                "delta": delta,
                "gamma": gamma,
                "n_train": n_train,
                "rep": rep,
                "plugin_risk": risk,
                "oracle_risk": oracle_risk,
                "risk_gap": risk - oracle_risk,
            }
        )
    return rows


def run_consistency_trend(
    delta: float = 1.0,
    gamma: float = 0.3,
    n_grid: tuple[int, ...] = (100, 1000, 10000),
    reps: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> SimResult:
    """Risk gap of the fitted-score rule versus the exact rule as n grows.

    The fitted rule's risk is computed in closed form (equivalent to an
    infinite calibration set), so the gap isolates estimation error of the
    score itself.  Aggregates report the median gap per training size.
    """
    rep_fn = partial(_consistency_rep, delta, gamma, tuple(n_grid), seed)
    return _run_study(rep_fn, reps, workers, ("n_train",), ("risk_gap",))


# ---------------------------------------------------------------------------
# aggregation and serialization helpers


def _percentile(values, q: float) -> float:
    """Order-statistic percentile (no interpolation beyond nearest rank).

    NaNs are dropped.  0.0 and -0.0 compare equal, so when the rank falls
    among the zeros the one returned is the one a stable sort puts there,
    with the zeros in input order.
    """
    vals = np.asarray(values, dtype=float)
    vals = vals[~np.isnan(vals)]
    if not vals.size:
        return math.nan
    rank = min(vals.size - 1, max(0, math.ceil(q / 100.0 * vals.size) - 1))
    value = np.partition(vals, rank)[rank]
    if value == 0.0:
        value = vals[vals == 0.0][rank - np.count_nonzero(vals < 0.0)]
    return float(value)


def _median(values: np.ndarray) -> float:
    """Median of a NaN-free array; equal zeros keep their input order."""
    vals = np.sort(values, kind="stable")
    if not vals.size:
        return math.nan
    mid = vals.size // 2
    if vals.size % 2 == 1:
        return float(vals[mid])
    return float(0.5 * (vals[mid - 1] + vals[mid]))


def _aggregate(rows: dict, keys: tuple, metrics: tuple) -> dict:
    """Per-group count, mean, median and 5th/95th percentile of each metric.

    Groups are the distinct key tuples, in ascending key order; each
    statistic sees the group's values in row order, NaNs dropped.
    """
    codes = np.column_stack([np.unique(rows[k], return_inverse=True)[1] for k in keys])
    group = np.unique(codes, axis=0, return_inverse=True)[1].ravel()
    members = [np.flatnonzero(group == g) for g in range(group.max() + 1)]
    out = {k: rows[k][[m[0] for m in members]] for k in keys}
    out["reps"] = np.array([m.size for m in members])
    for m in metrics:
        clean = [v[~np.isnan(v)] for v in (rows[m][idx] for idx in members)]
        out[f"{m}_mean"] = np.array([np.mean(v) if v.size else math.nan for v in clean])
        out[f"{m}_median"] = np.array([_median(v) for v in clean])
        out[f"{m}_p5"] = np.array([_percentile(v, 5.0) for v in clean])
        out[f"{m}_p95"] = np.array([_percentile(v, 95.0) for v in clean])
    return out


def _parallel_map(fn, items, workers: int) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=workers) as pool:
        return pool.map(fn, items)


def _run_study(rep_fn, reps: int, workers: int, keys: tuple, metrics: tuple) -> SimResult:
    """Run rep_fn on replications 0..reps-1 and aggregate metrics by keys.

    rep_fn returns one replication's rows as dicts with the same keys in
    the same order; they become one column per key, in that order.
    """
    rows = [row for chunk in _parallel_map(rep_fn, range(reps), workers) for row in chunk]
    if not rows:
        raise ValueError("a study needs at least one replication and one grid point")
    columns = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return SimResult(rows=columns, aggregates=_aggregate(columns, keys, metrics))


def sim_result_to_csv(result: SimResult, rows_path, aggregates_path) -> None:
    """Tidy CSVs: one row per replication cell plus one aggregate file."""
    write_columns(rows_path, result.rows)
    write_columns(aggregates_path, result.aggregates)


def sim_result_to_svg(result: SimResult, metric: str, path, *, title: str = "") -> None:
    """Mean curve per arm over delta, with the 5th/95th band of the first arm."""
    agg = result.aggregates
    key = "delta" if "delta" in agg else "n_train"
    x = agg[key].astype(float)
    arm = agg.get("arm", np.full(x.size, "all"))
    arms = sorted(set(arm.tolist()))

    def curve(name: str, column: str) -> list:
        keep = (arm == name) & ~np.isnan(agg[column])
        return sorted(zip(x[keep].tolist(), agg[column][keep].tolist()))

    series = [(name, pts) for name in arms if (pts := curve(name, f"{metric}_mean"))]
    lower, upper = curve(arms[0], f"{metric}_p5"), curve(arms[0], f"{metric}_p95")
    bands = [(lower, upper)] if lower and upper else []
    svg = line_chart_svg(series, title=title or metric, xlabel=key, ylabel=metric, bands=bands)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
