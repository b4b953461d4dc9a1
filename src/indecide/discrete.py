"""Exact minimax abstention rules on finite-support distributions.

Every atom carries per-class mass w_1..w_K (the joint density values times
class priors).  The minimax rule at abstention mass gamma abstains where the
normalized max score is smallest, splitting one boundary atom fractionally;
the type I / type II variant places two thresholds on the class-1 posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateAtomError",
    "InfeasibleConstraintError",
    "DiscreteJoint",
    "IndecisionRule",
    "NpRuleDiscrete",
    "eta_of",
    "oracle_binary",
    "oracle_np",
    "oracle_multiclass",
]

_MASS_TOL = 1e-12


class DegenerateAtomError(ValueError):
    """An atom has zero total mass, so its posterior is undefined."""


class InfeasibleConstraintError(ValueError):
    """No rule satisfies the requested error/abstention constraints."""


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite-support joint distribution: per-atom per-class masses.

    points[i] is the weight vector (w_1, ..., w_K) of atom i; all weights
    are nonnegative and the grand total is 1 within 1e-12.
    """

    points: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("need at least 2 atoms")
        k = len(self.points[0])
        if k < 2:
            raise ValueError("need at least 2 classes")
        total = 0.0
        for weights in self.points:
            if len(weights) != k:
                raise ValueError("all atoms must have the same class count")
            if any(w < 0 for w in weights):
                raise ValueError("weights must be nonnegative")
            if not all(math.isfinite(w) for w in weights):
                raise ValueError("weights must be finite")
            total += sum(weights)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"total mass {total!r} != 1 beyond tolerance")

    @property
    def n_classes(self) -> int:
        return len(self.points[0])


@dataclass(frozen=True)
class IndecisionRule:
    """Per-atom action for the minimax rule at a given abstention mass.

    action[i] is "decide" or "abstain"; plateau_fraction[i] in [0, 1] is the
    share of atom i's mass sent to abstention (nonzero only on the single
    boundary atom that straddles the gamma budget).
    """

    action: tuple[str, ...]
    plateau_fraction: tuple[float, ...]


@dataclass(frozen=True)
class NpRuleDiscrete:
    """Two-threshold rule on the class-1 posterior for a discrete instance.

    label[i] in {"1", "2", "abstain"}; fraction_to_2 / fraction_to_abstain
    split the (at most two) boundary atoms' mass fractionally, the remainder
    of a split atom falling to the next region up (abstain above the class-2
    block, class 1 above the abstention block).
    """

    tau1: float
    tau2: float
    label: tuple[str, ...]
    fraction_to_2: tuple[float, ...]
    fraction_to_abstain: tuple[float, ...]


def eta_of(weights) -> tuple[float, ...]:
    """Normalize an atom's class weights into a posterior vector."""
    total = float(sum(weights))
    if total <= 0.0:
        raise DegenerateAtomError(f"atom with zero total mass: {tuple(weights)!r}")
    return tuple(float(w) / total for w in weights)


def _weights(joint: DiscreteJoint) -> tuple[np.ndarray, np.ndarray]:
    """The n x K weights and the n atom masses."""
    weights = np.array(joint.points, dtype=float)
    return weights, weights.sum(axis=1)


def _posterior(joint: DiscreteJoint, masses: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """scores / masses per atom; DegenerateAtomError for the first atom of zero mass."""
    for i in np.flatnonzero(masses <= 0.0)[:1]:
        eta_of(joint.points[i])  # raises DegenerateAtomError
    return scores / masses


def _cut(amounts: np.ndarray, budget: float) -> np.ndarray:
    """The share of each amount that budget takes, in order: whole amounts while
    they fit within _MASS_TOL, a fraction of the first one that does not, and
    nothing after it or once the budget left is within _MASS_TOL of 0."""
    left = np.subtract.accumulate(np.concatenate(([budget], amounts[:-1])))  # before each amount
    live = left > _MASS_TOL
    return np.divide(left, amounts, out=live.astype(float), where=live & (amounts > left + _MASS_TOL))


def oracle_multiclass(joint: DiscreteJoint, gamma: float) -> tuple[IndecisionRule, float]:
    """Minimax rule at abstention mass gamma; decided atoms predict argmax.

    Abstains on the atoms of lowest normalized max score (ties by atom id)
    up to mass gamma, splitting at most one boundary atom; risk = 1 -
    (decided max-score mass) / (1 - gamma).
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    weights, masses = _weights(joint)
    top = weights.max(axis=1)
    order = np.argsort(_posterior(joint, masses, top), kind="stable")
    share = _cut(masses[order], gamma)[np.argsort(order)]
    whole = share == 1.0
    rule = IndecisionRule(
        action=tuple(np.where(whole, "abstain", "decide").tolist()),
        plateau_fraction=tuple(np.where(whole, 0.0, share).tolist()),
    )
    if gamma >= 1.0 - _MASS_TOL:
        return rule, 0.0
    return rule, float((1.0 - share) @ (masses - top)) / (1.0 - gamma)


def oracle_binary(joint: DiscreteJoint, gamma: float) -> tuple[IndecisionRule, float]:
    """Binary specialization: abstain where min(eta, 1-eta) is largest."""
    if joint.n_classes != 2:
        raise ValueError("oracle_binary requires exactly 2 classes")
    return oracle_multiclass(joint, gamma)


def oracle_np(joint: DiscreteJoint, alpha1: float, gamma: float) -> tuple[NpRuleDiscrete, float]:
    """Minimax type-II rule under an exact type-I constraint.

    Sorted by class-1 posterior ascending (ties by atom id), the rule labels
    a bottom block class 2 (class-1 mass in it exactly alpha1 * (1 - gamma)),
    abstains on the next block (mass exactly gamma, starting with what is
    left of the atom split at the class-2 edge), and labels the rest class 1.
    Each block edge splits at most one atom.  Returns the rule and its
    conditional type II error.
    """
    if joint.n_classes != 2:
        raise ValueError("oracle_np requires exactly 2 classes")
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma!r}")
    if not 0.0 <= alpha1 <= 1.0:
        raise ValueError(f"alpha1 must lie in [0, 1], got {alpha1!r}")
    weights, masses = _weights(joint)
    class1_total = sum(weights[:, 0].tolist())
    budget1 = alpha1 * (1.0 - gamma)
    if budget1 > class1_total + _MASS_TOL:
        raise InfeasibleConstraintError(f"type-I budget {budget1!r} exceeds class-1 mass {class1_total!r}")
    eta = _posterior(joint, masses, weights[:, 0])
    order = np.argsort(eta, kind="stable")
    rank = np.argsort(order)
    frac2 = _cut(weights[order, 0], budget1)[rank]
    frac_abstain = _cut(((1.0 - frac2) * masses)[order], gamma)[rank] * (1.0 - frac2)
    if gamma - frac_abstain @ masses > 1e-9:
        raise InfeasibleConstraintError(f"cannot place abstention mass gamma={gamma!r} above the type-I block")
    # thresholds for reporting: eta at the top of each block
    tau1 = float(eta[frac2 > 0.0].max(initial=0.0))
    rule = NpRuleDiscrete(
        tau1=tau1,
        tau2=float(eta[frac_abstain > 0.0].max(initial=tau1)),
        label=tuple(np.select([frac2 > 0.0, frac_abstain == 1.0], ["2", "abstain"], "1").tolist()),
        fraction_to_2=tuple(frac2.tolist()),
        fraction_to_abstain=tuple(frac_abstain.tolist()),
    )
    # type II error: class-2 mass decided as class 1, over decided mass share
    return rule, float(np.maximum(1.0 - frac2 - frac_abstain, 0.0) @ weights[:, 1]) / (1.0 - gamma)
