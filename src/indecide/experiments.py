"""Seeded Monte Carlo studies of the calibration procedures.

Every study draws from the symmetric two-component Gaussian mixture
(centers at -delta and +delta, unit variance, equal priors, class 1 on the
right), fits a scorer, calibrates an abstention rule on held-out data, and
evaluates on a test split.  Replication r of a run with seed s always uses
seeded_stream(s, r), so results are byte-identical at any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import gmm
from .calibration import CalibrationSample, SelectiveBinaryRule, _check_scores, _np_decide, _np_grid_select
from .calibration import _selective_errors, calibrate_accuracy, calibrate_np  # noqa: F401  perfbench wraps calibrate_np
from .kvdoc import _start_method, _usable_cpus, write_columns
from .models import fit_lda, fit_logistic, predict_eta
from .numerics import as_stable_sort, normal_tail, seeded_stream, sigmoid
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
        if len(self.delta_grid) == 0 or not all(0 < d < math.inf for d in self.delta_grid):
            raise ValueError("delta_grid must be nonempty with finite positive entries")
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


def _mixture(u: np.ndarray, delta):
    """Labels in {1, 2} (equal priors) and observations x | y, from the uniforms u[..., 0, :]
    and u[..., 1, :]; the normal draws are by inverse CDF, platform-independent for a fixed
    stream."""
    from scipy import special  # imported here so the CLI starts without scipy

    labels = np.where(u[..., 0, :] < 0.5, 1, 2)
    centers = np.where(labels == 1, delta, -delta)
    return centers + -special.ndtri(np.clip(u[..., 1, :], 1e-300, 1.0 - 1e-16)), labels


def _draw_mixture(rng: np.random.Generator, n: int, delta: float):
    """n labels and observations from the mixture at delta, from 2 n of rng's uniforms."""
    return _mixture(rng.random((2, n)), delta)


def oracle_eta(x: np.ndarray, delta: float) -> np.ndarray:
    """Exact class-1 posterior of the symmetric mixture: sigmoid(2 delta x)."""
    return sigmoid(2.0 * delta * np.asarray(x, dtype=float))


def _fit_scorer(scorer: str, x: np.ndarray, labels: np.ndarray, delta: float):
    if scorer == "oracle-eta":
        return lambda xs: oracle_eta(xs, delta)
    model = (fit_lda if scorer == "lda" else fit_logistic)(x, labels)
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
    return _run_study(partial(_accuracy_rep, cfg), range(cfg.reps), workers, keys, metrics)


# ---------------------------------------------------------------------------
# type I / type II sweep


# np-sweep stacks at most this many uniforms (each the seed of a few stacked values) at a time: a block of
# replications (8 at the default sizes), or as many deltas of a replication that draws more, at least one
_BLOCK_VALUES = 3 << 16


def _np_blocks(cfg: SimConfig) -> list[range]:
    """np-sweep's replications 0..reps-1 in blocks of consecutive ones, bounded by _BLOCK_VALUES."""
    size = max(1, _BLOCK_VALUES // (2 * (cfg.n_train + cfg.n_cal + cfg.n_test) * len(cfg.delta_grid)))
    return [range(start, min(start + size, cfg.reps)) for start in range(0, cfg.reps, size)]


def _np_rep(cfg: SimConfig, reps: range) -> list[dict]:
    """The rows of a block of replications, as each (replication, delta) cell gives them alone.

    A cell draws its training, calibration and test splits in turn, each as labels then normals,
    from its replication's stream.  The block draws each replication's uniforms for all its deltas
    in one call, or, where they exceed _BLOCK_VALUES, for as many deltas at a time as fit, and
    hands each such stack of cells to _np_stack.
    """
    streams, per_cell = [seeded_stream(cfg.seed, rep) for rep in reps], 2 * (cfg.n_train + cfg.n_cal + cfg.n_test)
    step = max(1, _BLOCK_VALUES // per_cell)  # every delta at once, unless one replication draws more
    rows = []
    for start in range(0, len(cfg.delta_grid), step):
        deltas = cfg.delta_grid[start : start + step]
        rows += _np_stack(cfg, reps, deltas, np.stack([rng.random((len(deltas), per_cell)) for rng in streams]))
    return rows


def _np_stack(cfg: SimConfig, reps: range, deltas: tuple, u: np.ndarray) -> list[dict]:
    """The rows of the cells (rep, delta), rep in reps and delta in deltas, from the uniforms u[i, j] of
    the i-th rep and the j-th delta: the mixture, the selection, the percentiles and each arm's count
    table run once on the stack of cells, and only the scorer is fitted cell by cell."""
    sizes, cells = (cfg.n_train, cfg.n_cal, cfg.n_test), [(rep, d) for rep in reps for d in deltas]
    # where each split's labels (row 0) and normals (row 1) sit among a cell's uniforms
    take = np.hstack([2 * sum(sizes[:i]) + np.arange(2 * m).reshape(2, m) for i, m in enumerate(sizes)])
    x, y = (a.reshape(len(cells), -1) for a in _mixture(u[..., take], np.array(deltas)[:, None]))
    n_tr, n_cal = sizes[:2]
    fits = (_fit_scorer(cfg.scorer, x_c[:n_tr], y_c[:n_tr], d) for x_c, y_c, (_, d) in zip(x, y, cells))
    scores = np.array([score(x_c[n_tr:]) for score, x_c in zip(fits, x)])  # calibration then test, in one call
    _check_scores(scores.ravel())  # as CalibrationSample checks them
    is_class1 = y[:, n_tr : n_tr + n_cal] == 1
    choice = _np_grid_select(scores[:, :n_cal], is_class1, cfg.alpha1, cfg.alpha2, want_trace=True)
    # NpRule's decisions on each cell's scores by that cell's thresholds
    algorithm2 = _np_decide(scores, choice.tau1[:, None], choice.tau2[:, None])
    tau0, test = choice.tau0[:, None], scores[:, n_cal:]  # the baseline: the selection's class-2 block at gamma = 0
    gamma_hat = _selective_errors(algorithm2[:, :n_cal], None)["gamma"]  # the rule's abstention on its sample
    arms = {  # arm -> its decisions on the test scores, gamma_star and feasible
        "algorithm2": (algorithm2[:, n_cal:], gamma_hat, choice.feasible.astype(int)),
        "np-baseline": (_np_decide(test, tau0, tau0), 0.0, 1),
        "bayes": (SelectiveBinaryRule.statistic(test)[1], 0.0, 1),  # its prediction, decided at tau = 0.5
    }
    band = [_percentile(choice.trace["type2"], q) for q in (5.0, 95.0)]  # NaN exactly where not valid
    columns = {}  # arm -> metric -> its value in each cell
    for arm, (decisions, gamma_star, feasible) in arms.items():
        stats = _selective_errors(decisions, y[:, n_tr + n_cal :])
        metrics = {"gamma_star": gamma_star, "test_gamma": stats["gamma"]}
        metrics.update({key: stats[key] for key in ("type1", "type2", "conditional_error")}, feasible=feasible)
        metrics.update(cal_type2_curve_p5=band[0], cal_type2_curve_p95=band[1])
        columns[arm] = {key: np.broadcast_to(value, len(cells)).tolist() for key, value in metrics.items()}
    return [
        {"delta": d, "rep": rep, "arm": arm, **{key: values[i] for key, values in metrics.items()}}
        for i, (rep, d) in enumerate(cells)
        for arm, metrics in columns.items()
    ]


def run_np_sweep(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Type I / type II controlled calibration versus abstention-free arms.

    Three arms per cell: the two-threshold procedure, an abstention-free
    baseline holding only the type-I budget, and the plain posterior argmax.
    Each row also carries the 5th/95th band of the achievable type II error
    over the full abstention grid on the calibration data.  The replications
    run in blocks (_np_blocks); the rows do not depend on the blocks.
    """
    keys, metrics = ("delta", "arm"), ("gamma_star", "type1", "type2")
    return _run_study(partial(_np_rep, cfg), _np_blocks(cfg), workers, keys, metrics)


# ---------------------------------------------------------------------------
# accuracy/abstention tradeoff across separations


_TARGET_ERROR = 0.01  # the intro tradeoff's conditional error target


def _tradeoff_oracle(delta: float) -> tuple[float, float, float]:
    """(Bayes error, gamma*, t*) at delta: the exact minimal abstention reaching
    _TARGET_ERROR and its threshold, both NaN where no threshold reaches it."""
    try:
        point = gmm.gamma_for_target_risk(gmm.GmmSpec(delta), _TARGET_ERROR)
    except gmm.InfeasibleTargetError:
        return normal_tail(delta), math.nan, math.nan
    return normal_tail(delta), point.gamma, point.t


def _tradeoff_rep(cfg: SimConfig, oracles: list, rep: int) -> list[dict]:
    rng = seeded_stream(cfg.seed, rep)
    rows = []
    for delta, (bayes_error, gamma_star, t_star) in zip(cfg.delta_grid, oracles):
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
                "target_error": _TARGET_ERROR,
                "gamma_star": gamma_star,
                "empirical_gamma": emp_gamma,
                "empirical_conditional_error": emp_err,
            }
        )
    return rows


def run_intro_tradeoff(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Exact accuracy/abstention tradeoff plus a sampled check per separation.

    For each delta: the no-abstention accuracy ceiling, the exact minimal
    abstention gamma* reaching a conditional error of 1%, and the empirical
    abstention and error of the closed-form thresholds on a fresh sample.
    Separation is reported both as delta (half the center distance) and as
    2 * delta.
    """
    oracles = [_tradeoff_oracle(delta) for delta in cfg.delta_grid]
    metrics = ("gamma_star", "empirical_gamma", "empirical_conditional_error")
    return _run_study(partial(_tradeoff_rep, cfg, oracles), range(cfg.reps), workers, ("delta",), metrics)


# ---------------------------------------------------------------------------
# plug-in consistency trend


def plugin_population_risk(center: float, predict1_right: bool, delta: float, gamma: float) -> float:
    """Exact conditional risk of a fitted symmetric-in-confidence 1-d rule.

    The rule abstains on the interval [center - h, center + h] whose mixture
    mass is exactly gamma, and predicts by side of the interval.  This is
    the infinite-calibration-set risk of a monotone plug-in score whose 0.5
    crossing sits at `center`.  The band is gmm.band_for_gamma's.
    """
    return gmm.band_for_gamma(gmm.GmmSpec(delta), gamma, center, predict1_right)[1]["conditional_error"]


# the consistency trend's mixture, abstention mass and training sizes
_TREND_DELTA, _TREND_GAMMA, _TREND_N_GRID = 1.0, 0.3, (100, 1000, 10000)


def _consistency_rep(oracle_risk: float, seed: int, rep: int) -> list[dict]:
    rng = seeded_stream(seed, rep)
    rows = []
    for n_train in _TREND_N_GRID:
        x, y = _draw_mixture(rng, n_train, _TREND_DELTA)
        model = fit_lda(x, y)
        # class 1 is decided where the discriminant w x + b is positive
        (w,), b = model.weights[0] - model.weights[1], model.biases[0] - model.biases[1]
        if w == 0.0:
            center, predict1_right = 0.0, True
        else:
            center, predict1_right = -b / w, w > 0
        risk = plugin_population_risk(center, predict1_right, _TREND_DELTA, _TREND_GAMMA)
        rows.append(
            {
                "delta": _TREND_DELTA,
                "gamma": _TREND_GAMMA,
                "n_train": n_train,
                "rep": rep,
                "plugin_risk": risk,
                "oracle_risk": oracle_risk,
                "risk_gap": risk - oracle_risk,
            }
        )
    return rows


def run_consistency_trend(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Risk gap of the fitted-score rule versus the exact rule as n grows.

    The mixture has delta = 1, both rules abstain on a mass of 0.3, and the
    scorer is fitted on 100, 1000 and 10000 points.  The fitted rule's risk
    is computed in closed form (equivalent to an infinite calibration set),
    so the gap isolates estimation error of the score itself.  Aggregates
    report the median gap per training size.  Of cfg only reps and seed are
    read.
    """
    oracle_risk = gmm.threshold_for_gamma(gmm.GmmSpec(_TREND_DELTA), _TREND_GAMMA).risk
    rep_fn = partial(_consistency_rep, oracle_risk, cfg.seed)
    return _run_study(rep_fn, range(cfg.reps), workers, ("n_train",), ("risk_gap",))


# ---------------------------------------------------------------------------
# aggregation and serialization helpers


def _percentile(values, q: float):
    """Order-statistic percentile (no interpolation beyond nearest rank) along the last
    axis: a float for a 1-d array, one per row of a stack.

    NaNs are dropped.  0.0 and -0.0 compare equal, so when the rank falls
    among the zeros the one returned is the one a stable sort puts there,
    with the zeros in input order.
    """
    vals = np.asarray(values, dtype=float)
    rows = vals.reshape(math.prod(vals.shape[:-1]), vals.shape[-1])
    size = np.count_nonzero(~np.isnan(rows), axis=1)
    rank = np.minimum(size - 1, np.maximum(0, np.ceil(q / 100.0 * size).astype(int) - 1))
    # NaNs sort last, after which a row without numbers reads, at its rank -1, the NaN put there
    ordered = np.sort(np.column_stack((rows, np.full(len(rows), np.nan))), axis=1)
    pick = ordered[np.arange(len(rows)), rank]
    for i in np.flatnonzero(pick == 0.0):
        pick[i] = as_stable_sort(rows[i], rank[i], 0.0)
    return pick.reshape(vals.shape[:-1]) if vals.ndim > 1 else float(pick[0])


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
    """[fn(item) for item in items], on min(workers, len(items)) processes,
    or in this process when that is 1.

    Items go to the workers in blocks, four per worker, and the results come
    back in item order, so they do not depend on the pool size.  A worker
    that dies raises BrokenProcessPool instead of hanging.
    """
    items = list(items)
    processes = min(workers, len(items))
    if processes <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = _start_method()
    if method == "fork":
        from scipy import special  # noqa: F401  loaded once here, for every worker to inherit

    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=processes, mp_context=context) as pool:
        return list(pool.map(fn, items, chunksize=math.ceil(len(items) / (4 * processes))))


def _rep_columns(rep_fn, item) -> dict:
    """rep_fn(item)'s row dicts as one list per key, in the rows' key order."""
    rows = rep_fn(item)
    return {name: [row[name] for row in rows] for name in rows[0]}


def _run_study(rep_fn, items, workers: int, keys: tuple, metrics: tuple) -> SimResult:
    """Run rep_fn on each item, a replication or a block of them in replication order, and
    aggregate metrics by keys.

    rep_fn returns the item's rows, at least one, as dicts with the same keys
    in the same order; each worker hands them back as one list per key, and
    the lists of all items become one column per key.
    """
    chunks = _parallel_map(partial(_rep_columns, rep_fn), items, workers)
    columns = {name: np.array([value for chunk in chunks for value in chunk[name]]) for name in chunks[0]}
    return SimResult(rows=columns, aggregates=_aggregate(columns, keys, metrics))


def sim_result_to_csv(result: SimResult, rows_path, aggregates_path) -> None:
    """Tidy CSVs: one row per replication cell plus one aggregate file."""
    write_columns(rows_path, [result.rows])
    write_columns(aggregates_path, [result.aggregates])


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
