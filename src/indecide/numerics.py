"""Numerical kernels shared by every other module.

Standard normal tail, the logistic function, the bisection that inverts
every monotone oracle map, the class-label check, stable-sort order
statistics, and the seeded random-stream contract of the simulation harness.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_stable_sort",
    "bisect",
    "class_labels",
    "normal_tail",
    "normal_tail_vec",
    "seeded_stream",
    "sigmoid",
]

_SQRT2 = math.sqrt(2.0)


def normal_tail(t: float) -> float:
    """Upper tail P(xi >= t) of the standard normal.

    Absolute error <= 1e-14 everywhere.  Relative error against 40-digit
    mpmath: within 3.1e-15 for t < 5, up to 6.1e-14 for t in [5, 20) and
    up to 2.1e-13 for t in [20, 37).  Above t of about 37.5 the tail is
    subnormal and loses digits, and it is 0.0 from t ~ 38.5.  It is 1.0
    for t below about -8.3, and NaN for NaN.
    """
    return 0.5 * math.erfc(float(t) / _SQRT2)


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


def bisect(below, hi, *columns):
    """Per cell, the root in t >= 0 of a monotone predicate, by vectorized bisection.

    below(t, *cols) tells, for each live cell, whether t lies below that
    cell's root; cols are the live cells' entries of columns.  Each cell's
    bracket [0, hi] first doubles its upper end (at most 70 times) while
    below holds there, then at most 110 bisection steps run.  A step is a
    pure function of (lo, hi), so a cell stops at the first step that moves
    neither end: every later step leaves it unchanged too, and it leaves the
    live set once a sixteenth of that set has stopped.  Returns each cell's
    bracket midpoint and the number of steps that moved its bracket.
    """
    hi = np.array(hi, dtype=float)
    lo = np.zeros_like(hi)
    idx = np.arange(hi.size)
    for _ in range(70):
        idx = idx[below(hi[idx], *(column[idx] for column in columns))]
        if not idx.size:
            break
        hi[idx] *= 2.0
    steps = np.zeros(hi.size, dtype=int)
    # the live cells: positions, bracket ends, moves and columns
    pos, l, h, moves, cols = np.arange(hi.size), lo, hi, steps, columns
    for _ in range(110):
        if not pos.size:
            break
        mid = 0.5 * (l + h)
        is_below = below(mid, *cols).astype(float)
        # 0 <= l <= mid <= h, all finite: np.where(is_below, mid, l) and
        # np.where(is_below, h, mid) without a branch on the unpredictable is_below
        new_l, new_h = np.maximum(l, mid * is_below), np.minimum(h, np.maximum(mid, h * is_below))
        moved = (new_l != l) | (new_h != h)
        l, h, moves = new_l, new_h, moves + moved
        if 16 * (moved.size - np.count_nonzero(moved)) > moved.size:
            lo[pos], hi[pos], steps[pos] = l, h, moves
            pos, l, h, moves = pos[moved], l[moved], h[moved], moves[moved]
            cols = tuple(column[moved] for column in cols)
    lo[pos], hi[pos], steps[pos] = l, h, moves
    return 0.5 * (lo + hi), steps


def class_labels(values) -> np.ndarray:
    """values as int class labels; unless they are ints, each must be a finite whole number (1.7 is not class 1)."""
    labels = np.asarray(values)
    if labels.dtype.kind != "i":
        labels = np.asarray(labels, dtype=float)
        if not np.isfinite(labels).all():
            raise ValueError("labels must be finite (no NaN or infinity)")
        if (labels != np.trunc(labels)).any():
            raise ValueError("labels must be integer class indices")
    return labels.astype(int, copy=False)


def as_stable_sort(values: np.ndarray, rank: int, value: float) -> float:
    """value, the rank-th (0-based) of the NaN-free values in sorted order; when
    it is a zero, the one a stable sort puts there, the zeros in input order."""
    if value == 0.0:
        value = values[values == 0.0][rank - np.count_nonzero(values < 0.0)]
    return float(value)


_MASK64 = (1 << 64) - 1


def seeded_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic, independently addressable random stream.

    Counter-based (Philox) construction: stream_id indexing is O(1) and the
    sequence for a given (seed, stream_id) pair is identical regardless of
    execution order or how many workers are drawing from sibling streams.
    """
    key = (int(seed) & _MASK64) | ((int(stream_id) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))
