"""Scalar numerical kernels shared by every other module.

Standard normal tail, the logistic function and the deterministic seeded
random-stream contract used by the simulation harness.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BracketError",
    "normal_tail",
    "normal_tail_vec",
    "seeded_stream",
    "sigmoid",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# erfc keeps ~1e-15 relative accuracy across this range; beyond it the value
# is at the edge of double underflow and we fall back to the upper envelope
# exp(-t^2/2) / (sqrt(2 pi) t).
_TAIL_SWITCH = 40.0


class BracketError(ValueError):
    """The requested target is not enclosed by the bracket."""


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
    from scipy import special  # imported here so the CLI starts without scipy

    return special.ndtr(-np.asarray(t, dtype=float))


def sigmoid(z) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)) of a 1-d array, without overflow at large |z|."""
    z = np.asarray(z, dtype=float)
    out = np.empty(len(z))
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_MASK64 = (1 << 64) - 1


def seeded_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic, independently addressable random stream.

    Counter-based (Philox) construction: stream_id indexing is O(1) and the
    sequence for a given (seed, stream_id) pair is identical regardless of
    execution order or how many workers are drawing from sibling streams.
    """
    key = (int(seed) & _MASK64) | ((int(stream_id) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))
