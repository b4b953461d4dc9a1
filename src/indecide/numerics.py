"""Scalar numerical kernels shared by every other module.

Standard normal tail, bisection for monotone maps, and the deterministic
seeded random-stream contract used by the simulation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "BracketError",
    "IterationLimitError",
    "RootFindConfig",
    "normal_tail",
    "normal_tail_vec",
    "bisect_monotone",
    "seeded_stream",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# erfc keeps ~1e-15 relative accuracy across this range; beyond it the value
# is at the edge of double underflow and we fall back to the upper envelope
# exp(-t^2/2) / (sqrt(2 pi) t).
_TAIL_SWITCH = 40.0


class BracketError(ValueError):
    """The requested target is not enclosed by the bracket."""


class IterationLimitError(RuntimeError):
    """Bisection failed to converge within the iteration budget."""


@dataclass(frozen=True)
class RootFindConfig:
    """Bracket and stopping rule for monotone bisection."""

    bracket: tuple[float, float]
    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        low, high = self.bracket
        if not (math.isfinite(low) and math.isfinite(high) and low < high):
            raise ValueError(f"invalid bracket {self.bracket!r}")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def normal_tail(t: float) -> float:
    """Upper tail P(xi >= t) of the standard normal.

    Absolute error <= 1e-14 everywhere; relative accuracy ~1e-15 for
    |t| <= 40, the upper envelope bound beyond that.
    """
    t = float(t)
    if abs(t) <= _TAIL_SWITCH:
        return 0.5 * math.erfc(t / _SQRT2)
    if t > 0:
        # underflows smoothly to 0.0 past t ~ 38.6
        return math.exp(-0.5 * t * t) / (_SQRT_2PI * t)
    return 1.0 - normal_tail(-t)


def normal_tail_vec(t) -> np.ndarray:
    """Vectorized upper tail, same accuracy contract as normal_tail."""
    return special.ndtr(-np.asarray(t, dtype=float))


def bisect_monotone(f, target: float, cfg: RootFindConfig) -> float:
    """Solve f(x) == target for monotone f on cfg.bracket by bisection.

    Stops when |f(mid) - target| <= abs_tol or the bracket width falls
    below abs_tol.  Raises BracketError when the target is not enclosed and
    IterationLimitError when max_iter is exhausted first.
    """
    lo, hi = cfg.bracket
    f_lo, f_hi = f(lo), f(hi)
    increasing = f_hi >= f_lo
    f_min, f_max = (f_lo, f_hi) if increasing else (f_hi, f_lo)
    if not f_min <= target <= f_max:
        raise BracketError(
            f"target {target!r} outside f-range [{f_min!r}, {f_max!r}] on bracket {cfg.bracket!r}"
        )
    for _ in range(cfg.max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid - target) <= cfg.abs_tol or (hi - lo) <= cfg.abs_tol:
            return mid
        if (f_mid < target) == increasing:
            lo = mid
        else:
            hi = mid
    raise IterationLimitError(
        f"no convergence within {cfg.max_iter} iterations (bracket width {hi - lo:.3e})"
    )


_MASK64 = (1 << 64) - 1


def seeded_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic, independently addressable random stream.

    Counter-based (Philox) construction: stream_id indexing is O(1) and the
    sequence for a given (seed, stream_id) pair is identical regardless of
    execution order or how many workers are drawing from sibling streams.
    """
    key = (int(seed) & _MASK64) | ((int(stream_id) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))
