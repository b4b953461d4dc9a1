"""Closed-form oracle for the symmetric two-component Gaussian mixture.

The mixture has centers at -delta and +delta, unit variance, and equal
priors; class 1 sits at +delta.  interval_errors gives the population errors
of any rule that abstains on an interval of x.  The symmetric band |x| < t
is the oracle's operating point (t, gamma, risk):

    gamma = P(xi >= delta - t) - P(xi >= delta + t)
    risk  = P(xi >= delta + t) / (1 - gamma)

All maps between t, gamma, and risk are monotone, so inversion is done by
numerics.bisect.  The phase-transition machinery parameterizes separation as
delta = c * sqrt(2 log(1/delta_target)) and abstention mass as a power of
delta_target, and computes where risk / delta_target crosses 1.
write_phase_panel writes such a (c, m) panel, its CSV and its SVG heatmap,
one block of cells at a time, so its memory does not grow with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .kvdoc import write_columns
from .numerics import bisect, normal_tail, normal_tail_vec
from .svgchart import heatmap_svg

__all__ = [
    "GmmSpec",
    "OracleOperatingPoint",
    "PhaseGridConfig",
    "PhaseGrid",
    "InfeasibleTargetError",
    "interval_errors",
    "operating_point_at_t",
    "band_for_gamma",
    "threshold_for_gamma",
    "gamma_for_target_risk",
    "empirical_exponent",
    "phase_envelope",
    "m_star",
    "phase_grid",
    "phase_grid_to_csv",
    "phase_grid_to_svg",
    "write_phase_panel",
]


class InfeasibleTargetError(ValueError):
    """The requested error target cannot be met by any operating point."""


@dataclass(frozen=True)
class GmmSpec:
    """Half-separation between the two centers, in standard deviations."""

    delta: float

    def __post_init__(self) -> None:
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")


@dataclass(frozen=True)
class OracleOperatingPoint:
    """A (threshold, abstention mass, conditional risk) triple.

    gamma_complement stores 1 - gamma without cancellation, which matters
    when gamma is within double rounding of 1 (deep phase-grid cells).
    """

    t: float
    gamma: float
    risk: float
    gamma_complement: float


# PhaseGrid's per-cell columns, and those its CSV writes, in file order
_CELL_COLUMNS = ("c", "m", "gamma", "t", "risk_ratio_raw", "risk_ratio_capped", "resolved")
_CSV_COLUMNS = _CELL_COLUMNS[:-1]
_CAP = (0.5, 2.0)  # risk ratios are clipped to this interval, the heatmap's colour range
_DEAD_BAND = 0.05  # cells with |c - 1/2| at most this are unresolved


@dataclass(frozen=True)
class PhaseGridConfig:
    """Grid description for the risk-ratio phase diagram.

    delta_target is the misclassification level whose attainability is being
    probed; c scales the separation, m the abstention-mass exponent.  Cells
    with |c - 1/2| <= _DEAD_BAND are left unresolved since neither
    parameterization of the abstention mass applies there.
    """

    delta_target: float
    c_grid: tuple[float, ...]
    m_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_target < 1.0:
            raise ValueError("delta_target must lie in (0, 1)")
        for name, grid in (("c_grid", self.c_grid), ("m_grid", self.m_grid)):
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(not 0.0 < g < 1.0 for g in grid):
                raise ValueError(f"{name} values must lie in (0, 1)")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """The phase diagram as equal-length columns, one entry per (c, m) cell.

    Cells are in row-major order, c outer and m inner.  Unresolved cells
    hold NaN in every float column but c and m.  max_iterations and
    max_residual describe the solver on this panel: the most bisection steps
    any cell took to reach its fixed point, and the largest
    |value(t) - target| over all solved cells, resolved or not.
    """

    c: np.ndarray
    m: np.ndarray
    gamma: np.ndarray
    t: np.ndarray
    risk_ratio_raw: np.ndarray
    risk_ratio_capped: np.ndarray
    resolved: np.ndarray
    max_iterations: int
    max_residual: float

    def __len__(self) -> int:
        return self.c.size


def interval_errors(spec: GmmSpec, a: float, b: float, predict1_right: bool) -> dict:
    """Population errors of the rule that abstains on a <= x <= b and decides
    class 1 above b and class 2 below a (the reverse when not predict1_right).

    a may be -inf and b inf.  The keys are calibration._selective_errors',
    plus gamma_complement, the decided mass.  A class's mass in the interval
    is the difference of its two smaller tails and its decided mass the sum
    of its two outer tails, so neither cancels.
    """
    if not a <= b:  # NaN too
        raise ValueError("interval needs a <= b")
    inside, below, above = [], [], []
    for mu in (spec.delta, -spec.delta):  # class 1, then class 2
        lo, hi = a - mu, b - mu
        inside.append(normal_tail(lo) - normal_tail(hi) if lo + hi >= 0 else normal_tail(-hi) - normal_tail(-lo))
        below.append(normal_tail(-lo))
        above.append(normal_tail(hi))
    wrong = (below[0], above[1]) if predict1_right else (above[0], below[1])
    decided = (below[0] + above[0], below[1] + above[1])
    out = {"gamma": min(max(0.5 * sum(inside), 0.0), 1.0), "gamma_complement": 0.5 * sum(decided)}
    for key, errors, total in (
        ("conditional_error", 0.5 * sum(wrong), out["gamma_complement"]),
        ("type1", wrong[0], decided[0]),
        ("type2", wrong[1], decided[1]),
        ("type1_marginal", wrong[0], 1.0),
    ):
        out[key] = errors / total if total else 0.0
    return out


def operating_point_at_t(spec: GmmSpec, t: float) -> OracleOperatingPoint:
    """Operating point of the symmetric abstention band |x| < t."""
    if not t >= 0:  # NaN too
        raise ValueError("threshold t must be nonnegative")
    point = interval_errors(spec, -t, t, True)
    return OracleOperatingPoint(float(t), point["gamma"], point["conditional_error"], point["gamma_complement"])


def band_for_gamma(spec: GmmSpec, gamma: float, center: float = 0.0, predict1_right: bool = True) -> tuple[float, dict]:
    """Half-width h >= 0 of the band [center - h, center + h] whose mixture
    mass is gamma, and interval_errors of the rule abstaining on that band.

    h is the bisection's fixed point from the bracket [0, delta + 2], and 0
    at gamma = 0.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")

    def errors(h: float) -> dict:
        return interval_errors(spec, center - h, center + h, predict1_right)

    h = 0.0
    if gamma > 0.0:
        (h,), _ = bisect(lambda hs: np.array([errors(h)["gamma"] < gamma for h in hs.tolist()]), [spec.delta + 2.0])
    return h, errors(h)


def threshold_for_gamma(spec: GmmSpec, gamma: float) -> OracleOperatingPoint:
    """Unique t >= 0 whose abstention mass equals gamma: the half-width of the centred band_for_gamma."""
    return operating_point_at_t(spec, band_for_gamma(spec, gamma)[0])


def gamma_for_target_risk(spec: GmmSpec, target_risk: float) -> OracleOperatingPoint:
    """Minimal-abstention operating point with conditional risk at most target_risk.

    Returns the gamma = 0 point when the Bayes risk already meets the
    target.  Raises InfeasibleTargetError for nonpositive targets, and for
    targets the risk falls below only where its error tail underflows to 0;
    ValueError for targets of 1 or more and for NaN.
    """
    if target_risk <= 0.0:
        raise InfeasibleTargetError("conditional risk 0 needs full abstention")
    if not target_risk < 1.0:  # NaN too
        raise ValueError("target_risk must lie in (0, 1)")
    d = spec.delta
    if target_risk >= normal_tail(d):
        return operating_point_at_t(spec, 0.0)
    # operating_point_at_t's risk: 0 where 1 - gamma underflows to 0
    (t,), _ = bisect(
        lambda ts: np.array([operating_point_at_t(spec, t).risk >= target_risk for t in ts.tolist()]), [d + 2.0]
    )
    point = operating_point_at_t(spec, t)
    if point.risk >= target_risk:  # t is the bracket's lower end; its upper end tested below the target
        point = operating_point_at_t(spec, math.nextafter(t, math.inf))
    if point.risk == 0.0:
        # the bracket closed on the jump to 0, not on a crossing of the target
        raise InfeasibleTargetError(f"conditional risk {target_risk!r} is reached only where the tails underflow")
    return point


def empirical_exponent(c: float, delta_target: float) -> float:
    """Observed abstention exponent m-hat at relative separation c.

    Finds the minimal abstention reaching conditional risk delta_target at
    separation c * sqrt(2 log(1/delta_target)) and reads off the exponent:
    log(1/gamma) / log(1/delta_target) above c = 1/2, with gamma replaced by
    its complement below.  The complement is solved directly so the result
    stays finite even when gamma rounds to 1 in doubles.
    """
    if not 0.0 < c < 1.0 or c == 0.5:
        raise ValueError(f"c must lie in (0, 1) excluding 1/2, got {c!r}")
    if not 0.0 < delta_target < 1.0:
        raise ValueError("delta_target must lie in (0, 1)")
    log_inv = math.log(1.0 / delta_target)
    spec = GmmSpec(c * math.sqrt(2.0 * log_inv))
    point = gamma_for_target_risk(spec, delta_target)
    if c > 0.5:
        if point.gamma <= 0.0:
            return 0.0
        return math.log(1.0 / point.gamma) / log_inv
    if point.gamma_complement <= 0.0:
        return math.inf
    return math.log(1.0 / point.gamma_complement) / log_inv


def phase_envelope(c: float, delta_target: float) -> tuple[float, float]:
    """Two-sided finite-delta envelope for the optimal abstention exponent.

    Both ends apply the relative correction epsilon =
    log(4 pi log(1/g)) / (2 log(1/g)) to the critical curve, with g the
    small abstention quantity of the asymptotic curve at this cell,
    g = delta_target ** m_star(c): (2c - 1 -/+ epsilon)^2 above one half,
    (c - (1 -/+ epsilon)/(4c))^2 below.  The minus branch is the impossibility
    side; the plus branch absorbs the polynomial tail prefactors that push
    the realized exponent above the asymptotic curve at finite delta.
    """
    log_inv = m_star(c) * math.log(1.0 / delta_target)
    if log_inv <= 0.0 or 4.0 * math.pi * log_inv <= 1.0:
        return 0.0, math.inf
    eps = 0.5 * math.log(4.0 * math.pi * log_inv) / log_inv
    if c > 0.5:
        low = (max(2.0 * c - 1.0 - eps, 0.0)) ** 2
        high = (2.0 * c - 1.0 + eps) ** 2
    else:
        low = (max(1.0 / (4.0 * c) * (1.0 - eps) - c, 0.0)) ** 2
        high = ((1.0 + eps) / (4.0 * c) - c) ** 2
    return min(low, m_star(c)), high


def m_star(c: float) -> float:
    """Critical abstention-mass exponent at relative separation c."""
    if not 0.0 < c < 1.0 or c == 0.5:
        raise ValueError(f"c must lie in (0, 1) excluding 1/2, got {c!r}")
    if c < 0.5:
        return (c - 1.0 / (4.0 * c)) ** 2
    return (2.0 * c - 1.0) ** 2


def _t_map(delta: np.ndarray, t: np.ndarray, increasing: bool) -> np.ndarray:
    """gamma at threshold t when increasing, else its complement 1 - gamma."""
    if increasing:
        return normal_tail_vec(delta - t) - normal_tail_vec(delta + t)
    return normal_tail_vec(t - delta) + normal_tail_vec(delta + t)


def _below(delta: np.ndarray, target: np.ndarray, t: np.ndarray, increasing: bool) -> np.ndarray:
    """The bisection's predicate: t lies below the root of _t_map(delta, t) = target."""
    return (_t_map(delta, t, increasing) < target) == increasing


_SOLVE_CHUNK = 16384  # cells per phase block, solved at once; larger blocks let the solver's arrays spill out of cache
_NEWTON_STEPS = 4
_WINDOWS = (1e-15, 1e-13, 1e-9, 1e-6)  # relative half-widths tried around the estimate, tightest first
# scipy's ndtr can step down between arguments a few ulps apart; sampled
# over the solver's argument range it never does across this many
_MONOTONE_ULPS = 16
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _normal_density(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _t_estimate(delta: np.ndarray, target: np.ndarray, increasing: bool) -> np.ndarray:
    """Newton estimate of the root t of _t_map(delta, t) = target, per cell.

    It starts from a closed-form guess and takes _NEWTON_STEPS Newton steps
    in log t, with the derivative phi(delta - t) + phi(delta + t) of either
    map and each step clipped to a factor e.  Nothing trusts the result:
    _t_window checks it, and it may be NaN, 0 or inf.
    """
    from scipy.special import ndtri  # imported here so the CLI starts without scipy

    sign = 1.0 if increasing else -1.0
    with np.errstate(all="ignore"):
        if increasing:
            # the smaller of the linearization gamma ~ 2 phi(delta) t and the
            # root of tail(delta - t) = target + tail(delta), which is above t
            t = np.fmin(target / (2.0 * _normal_density(delta)), delta + ndtri(target + normal_tail_vec(delta)))
        else:
            # one fixed-point step of tail(t - delta) = target - tail(delta + t)
            # from the root of tail(t - delta) = target, which is below t
            t = np.fmax(delta - ndtri(target), 0.0)
            t = delta - ndtri(target - normal_tail_vec(delta + t))
        for _ in range(_NEWTON_STEPS):
            slope = _normal_density(delta - t) + _normal_density(delta + t)
            step = sign * (_t_map(delta, t, increasing) - target) / (t * slope)
            t = t * np.exp(-np.clip(step, -1.0, 1.0))
    return t


def _t_window(delta: np.ndarray, target: np.ndarray, increasing: bool):
    """Per cell, the ts where the bisection's predicate is proven without evaluating it.

    _below must hold at the lower edge of a window t_hat (1 -+ rho) around the
    estimate and fail at its upper edge; the rhos of _WINDOWS are tried in
    turn.  _t_map is monotone in t except where ndtr steps down between
    arguments fewer than _MONOTONE_ULPS ulps apart, so the predicate is true
    at every t that lies that far below the lower edge, and false that far
    above the upper edge.  Returns those two bounds, -inf and inf for a cell
    where every window fails.
    """
    est = _t_estimate(delta, target, increasing)
    true_to = np.full_like(delta, -np.inf)
    false_from = np.full_like(delta, np.inf)
    todo = np.flatnonzero(np.isfinite(est) & (est > 0.0))
    for rho in _WINDOWS:
        d, tg, lower, upper = delta[todo], target[todo], est[todo] * (1.0 - rho), est[todo] * (1.0 + rho)
        ok = _below(d, tg, lower, increasing)
        ok[ok] = ~_below(d[ok], tg[ok], upper[ok], increasing)
        # |delta -+ t| <= delta + t: the margin spans _MONOTONE_ULPS ulps of either argument
        margin = _MONOTONE_ULPS * np.spacing(d[ok] + upper[ok])
        true_to[todo[ok]], false_from[todo[ok]] = lower[ok] - margin, upper[ok] + margin
        todo = todo[~ok]
    return true_to, false_from


def _below_or_proven(t, d, tg, true_to, false_from, increasing: bool) -> np.ndarray:
    """_below at t, evaluated only between true_to and false_from."""
    below = t <= true_to
    open_ = np.flatnonzero((t > true_to) & (t < false_from))
    below[open_] = _below(d[open_], tg[open_], t[open_], increasing)
    return below


def _solve_t_grid(delta: np.ndarray, target: np.ndarray, increasing: bool):
    """numerics.bisect in t for every (delta, target) pair, from the bracket [0, delta + 2].

    The predicate takes its proven value outside each cell's window from
    _t_window and is evaluated inside it, so t and the step counts are
    those of evaluating it at every step, bit for bit.  Returns t and the
    number of steps that moved each cell.
    """
    below = partial(_below_or_proven, increasing=increasing)
    return bisect(below, delta + 2.0, delta, target, *_t_window(delta, target, increasing))


def _phase_blocks(cfg: PhaseGridConfig) -> Iterator[PhaseGrid]:
    """phase_grid's cells in row-major blocks of _SOLVE_CHUNK, the last one
    partial, each a PhaseGrid with its own solver diagnostics.

    A cell's values depend only on its own (c, m), so the blocks hold the
    cells of phase_grid(cfg) bit for bit.
    """
    dt = cfg.delta_target
    log_inv = math.log(1.0 / dt)
    c_grid, m_grid = np.asarray(cfg.c_grid), np.asarray(cfg.m_grid)
    cells = c_grid.size * m_grid.size
    for start in range(0, cells, _SOLVE_CHUNK):
        row, col = np.divmod(np.arange(start, min(start + _SOLVE_CHUNK, cells)), m_grid.size)
        c, m = c_grid[row], m_grid[col]
        delta_sep = c * math.sqrt(2.0 * log_inv)
        upper_side = c > 0.5
        # gamma = dt**m above c=1/2, 1 - dt**m below; solve each side in its
        # well-conditioned parameterization, on that side's cells only
        small = dt**m
        t = np.empty_like(small)
        steps = np.empty(small.size, dtype=int)
        residual = np.empty_like(small)
        for side, increasing in ((upper_side, True), (~upper_side, False)):
            t[side], steps[side] = _solve_t_grid(delta_sep[side], small[side], increasing)
            residual[side] = np.abs(_t_map(delta_sep[side], t[side], increasing) - small[side])
        complement = np.where(upper_side, 1.0 - small, small)
        gamma = np.where(upper_side, small, 1.0 - small)
        resolved = (np.abs(c - 0.5) > _DEAD_BAND) & (complement > 0.0)
        raw = normal_tail_vec(delta_sep + t) / complement / dt  # conditional risk over the target

        def shown(column: np.ndarray) -> np.ndarray:
            return np.where(resolved, column, math.nan)

        yield PhaseGrid(
            c=c,
            m=m,
            gamma=shown(gamma),
            t=shown(t),
            risk_ratio_raw=shown(raw),
            risk_ratio_capped=shown(np.clip(raw, *_CAP)),
            resolved=resolved,
            max_iterations=int(steps.max()),
            max_residual=float(residual.max()),
        )


def phase_grid(cfg: PhaseGridConfig) -> PhaseGrid:
    """Capped risk ratios risk / delta_target over the (c, m) grid.

    Cells inside the dead band around c = 1/2, or whose abstention mass is
    numerically 1, are emitted with resolved=False rather than dropped.
    """
    blocks = list(_phase_blocks(cfg))
    return PhaseGrid(
        **{name: np.concatenate([getattr(b, name) for b in blocks]) for name in _CELL_COLUMNS},
        max_iterations=max(b.max_iterations for b in blocks),
        max_residual=float(np.max([b.max_residual for b in blocks])),
    )


def phase_grid_to_csv(grid: PhaseGrid, path) -> None:
    """Write the grid as CSV: c, m, gamma, t, risk_ratio_raw, risk_ratio_capped."""
    write_columns(path, [{name: getattr(grid, name) for name in _CSV_COLUMNS}])


def phase_grid_to_svg(grid: PhaseGrid, cfg: PhaseGridConfig, path) -> None:
    """Render the capped risk-ratio grid as a heatmap, with m_star and both
    ends of phase_envelope drawn over it as curves in c."""
    _capped_to_svg(grid.risk_ratio_capped, cfg, path)


def _capped_to_svg(capped: np.ndarray, cfg: PhaseGridConfig, path) -> None:
    """phase_grid_to_svg from the grid's risk_ratio_capped column alone."""
    cs, ms = np.asarray(cfg.c_grid).tolist(), np.asarray(cfg.m_grid).tolist()
    values = capped.reshape(len(cs), len(ms)).T
    overlays = {"m*": [], "envelope low": [], "envelope high": []}
    for c in cs:
        if abs(c - 0.5) <= _DEAD_BAND:
            continue
        for label, y in zip(overlays, (m_star(c), *phase_envelope(c, cfg.delta_target))):
            if ms[0] <= y <= ms[-1]:
                overlays[label].append((c, y))
    svg = heatmap_svg(
        cs,
        ms,
        values,
        vmin=_CAP[0],
        vmax=_CAP[1],
        title=f"risk ratio at delta_target={cfg.delta_target:g}",
        xlabel="c (relative separation)",
        ylabel="m (abstention exponent)",
        overlays=[(label, pts) for label, pts in overlays.items() if pts],
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def write_phase_panel(cfg: PhaseGridConfig, csv_path, svg_path) -> None:
    """Solve cfg's panel and write its CSV and SVG: the bytes of phase_grid_to_csv
    and phase_grid_to_svg of phase_grid(cfg), but solved and written one block
    of cells at a time.  Each block's rows go to the CSV as soon as it is
    built, and only its capped ratios, the heatmap's column, outlive it."""
    capped = []

    def csv_blocks():
        for block in _phase_blocks(cfg):
            capped.append(block.risk_ratio_capped)
            yield {name: getattr(block, name) for name in _CSV_COLUMNS}

    write_columns(csv_path, csv_blocks())
    _capped_to_svg(np.concatenate(capped), cfg, svg_path)
