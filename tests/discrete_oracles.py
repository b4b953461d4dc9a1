"""Exhaustive test oracles for the exact minimax rules of indecide.discrete.

brute_force_min searches every subset of abstained atoms plus one fractional
atom, or, under a type-I constraint, solves the exact linear program; the
discrete tests and acceptance criterion 3 compare the three rule
constructions against it.  abstained_mass sums the mass a minimax rule
abstains on, to check it against the rule's gamma.
"""

from __future__ import annotations

import math
from itertools import combinations

from indecide.discrete import _MASS_TOL, DiscreteJoint, IndecisionRule, InfeasibleConstraintError

_BRUTE_FORCE_MAX_ATOMS = 12


class SizeLimitError(ValueError):
    """Instance too large for exhaustive search."""


def abstained_mass(rule: IndecisionRule, joint: DiscreteJoint) -> float:
    """The mass rule abstains on: each abstained atom whole, and its plateau_fraction of every other atom."""
    return sum(
        (1.0 if action == "abstain" else fraction) * sum(weights)
        for action, fraction, weights in zip(rule.action, rule.plateau_fraction, joint.points)
    )


def _np_linear_program(joint: DiscreteJoint, gamma: float, alpha1: float) -> float:
    """Exact global minimum of the type-II objective over randomized rules.

    Decision variables per atom: fraction sent to class 2 and fraction
    abstained (remainder is class 1).  Two equality constraints — abstained
    mass = gamma, class-1 mass labeled 2 = alpha1 * (1 - gamma) — and box
    constraints; the linear program is solved exactly, so optima that split
    two different atoms fractionally (one at each threshold) are covered.
    """
    from scipy.optimize import linprog

    n = len(joint.points)
    w1 = [p[0] for p in joint.points]
    w2 = [p[1] for p in joint.points]
    masses = [sum(p) for p in joint.points]
    # variables x = [q2_0..q2_{n-1}, q0_0..q0_{n-1}]
    cost = [-v for v in w2] + [-v for v in w2]  # minimize decided-1 class-2 mass
    a_eq = [
        [0.0] * n + masses,  # abstention mass
        w1 + [0.0] * n,  # type-I mass
    ]
    b_eq = [gamma, alpha1 * (1.0 - gamma)]
    # q2_i + q0_i <= 1
    a_ub = [[1.0 if j == i or j == n + i else 0.0 for j in range(2 * n)] for i in range(n)]
    result = linprog(
        c=cost,
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=[1.0] * n,
        bounds=[(0.0, 1.0)] * (2 * n),
        method="highs",
    )
    if not result.success:
        raise InfeasibleConstraintError(
            f"no rule meets abstention {gamma!r} with type-I level {alpha1!r}"
        )
    missed2 = sum(w2) + result.fun  # total class-2 mass minus (labeled 2 or abstained)
    return max(missed2, 0.0) / (1.0 - gamma)


def brute_force_min(
    joint: DiscreteJoint, gamma: float, constraint: float | None = None
) -> float:
    """Global minimum risk at abstention mass exactly gamma, independently.

    Without a constraint: exhaustively searches every subset of fully
    abstained atoms plus one fractionally abstained boundary atom (complete,
    because a single mass equality admits optima with at most one fractional
    atom) and minimizes the conditional misclassified mass of the argmax
    rule.  With constraint = alpha1: minimizes conditional type II mass
    subject to decided class-1 mass labeled 2 equal to alpha1 * (1 - gamma)
    exactly, solved as an exact linear program since the second equality
    allows two fractional atoms.
    """
    n = len(joint.points)
    if n > _BRUTE_FORCE_MAX_ATOMS:
        raise SizeLimitError(f"{n} atoms exceeds the exhaustive-search limit")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    if constraint is not None:
        if joint.n_classes != 2:
            raise ValueError("type-I constraint requires 2 classes")
        return _np_linear_program(joint, gamma, constraint)
    masses = [sum(w) for w in joint.points]
    best = math.inf
    ids = range(n)
    for r in range(n + 1):
        for subset in combinations(ids, r):
            sub_mass = sum(masses[i] for i in subset)
            if sub_mass > gamma + _MASS_TOL:
                continue
            shortfall = gamma - sub_mass
            boundary_options: list[tuple[int | None, float]]
            if shortfall <= _MASS_TOL:
                boundary_options = [(None, 0.0)]
            else:
                boundary_options = [
                    (j, shortfall / masses[j])
                    for j in ids
                    if j not in subset and masses[j] > shortfall + _MASS_TOL
                ]
            for j, frac in boundary_options:
                missed = 0.0
                for i in ids:
                    if i in subset:
                        continue
                    share = 1.0 - frac if i == j else 1.0
                    missed += share * (masses[i] - max(joint.points[i]))
                value = missed / (1.0 - gamma)
                if value < best:
                    best = value
    if not math.isfinite(best):
        raise InfeasibleConstraintError("no abstention set has mass exactly gamma")
    return best
