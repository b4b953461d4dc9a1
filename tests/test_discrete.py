"""Tests for the exact finite-support abstention rules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrete_oracles import SizeLimitError, abstained_mass, brute_force_min
from indecide.discrete import (
    DegenerateAtomError,
    DiscreteJoint,
    InfeasibleConstraintError,
    eta_of,
    oracle_binary,
    oracle_multiclass,
    oracle_np,
)
from indecide.numerics import seeded_stream


def random_joint(rng, n_atoms, n_classes):
    raw = rng.random((n_atoms, n_classes)) + 1e-3
    raw /= raw.sum()
    return DiscreteJoint(tuple(tuple(row) for row in raw))


def tied_joint(rng, n_atoms, n_classes):
    """Quarter-grid weights, the second half of the atoms duplicating the first,
    and one class weighing 0 on about half the atoms.  Also returns the mass
    unit: every atom's mass is a multiple of it, so budgets in whole units
    land on block edges, between tied atoms."""
    raw = rng.integers(0, 5, (n_atoms, n_classes)) / 4
    half = max(1, n_atoms // 2)
    raw[half:] = raw[rng.integers(0, half, n_atoms - half)]
    raw[rng.random(n_atoms) < 0.5, rng.integers(0, n_classes)] = 0.0
    raw[raw.sum(axis=1) == 0, 0] = 0.25
    return DiscreteJoint(tuple(tuple(row) for row in (raw / raw.sum()).tolist())), 0.25 / raw.sum()


class TestDiscreteJoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteJoint(((1.0,),))  # one atom, one class
        with pytest.raises(ValueError):
            DiscreteJoint(((0.5, 0.5), (0.5,)))  # ragged
        with pytest.raises(ValueError):
            DiscreteJoint(((0.9, 0.2), (0.2, 0.2)))  # mass 1.5
        with pytest.raises(ValueError):
            DiscreteJoint(((-0.1, 0.6), (0.3, 0.2)))  # negative
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                DiscreteJoint(((bad, 0.5), (0.25, 0.25)))


class TestEta:
    def test_normalizes(self):
        assert eta_of((0.3, 0.1)) == pytest.approx((0.75, 0.25))

    def test_degenerate(self):
        with pytest.raises(DegenerateAtomError):
            eta_of((0.0, 0.0))


class TestOracleBinary:
    def test_worked_example(self):
        # three atoms with posteriors 0.75 / 0.5 / 0.25 for class 1; at
        # gamma = 0.25 the middle (least confident) atom abstains first
        joint = DiscreteJoint(((0.375, 0.125), (0.125, 0.125), (0.0625, 0.1875)))
        rule, risk = oracle_binary(joint, 0.25)
        assert rule.action == ("decide", "abstain", "decide")
        # missed mass: atom0 -> 0.125, atom2 -> 0.0625, over 0.75 decided
        assert risk == pytest.approx(0.1875 / 0.75, abs=1e-12)
        assert risk == pytest.approx(brute_force_min(joint, 0.25), abs=1e-12)

    def test_gamma_zero_is_bayes(self):
        rng = seeded_stream(5, 0)
        for _ in range(50):
            joint = random_joint(rng, 6, 2)
            _, risk = oracle_binary(joint, 0.0)
            bayes = sum(min(w) for w in joint.points)
            assert risk == pytest.approx(bayes, abs=1e-12)

    def test_requires_two_classes(self):
        joint = DiscreteJoint(((0.2, 0.2, 0.1), (0.2, 0.2, 0.1)))
        with pytest.raises(ValueError):
            oracle_binary(joint, 0.1)

    def test_plateau_fraction(self):
        # both atoms share confidence 0.75; gamma = 0.25 must split one
        joint = DiscreteJoint(((0.375, 0.125), (0.125, 0.375)))
        rule, risk = oracle_binary(joint, 0.25)
        fractional = [f for f in rule.plateau_fraction if 0.0 < f < 1.0]
        assert len(fractional) == 1
        assert abstained_mass(rule, joint) == pytest.approx(0.25, abs=1e-12)
        assert risk == pytest.approx(brute_force_min(joint, 0.25), abs=1e-12)

    def test_risk_non_increasing_in_gamma(self):
        rng = seeded_stream(6, 0)
        joint = random_joint(rng, 8, 2)
        risks = [oracle_binary(joint, g / 20)[1] for g in range(20)]
        for a, b in zip(risks, risks[1:]):
            assert b <= a + 1e-12

    def test_gamma_budget_exact(self):
        rng = seeded_stream(7, 0)
        for trial in range(20):
            joint = random_joint(rng, 7, 2)
            gamma = float(rng.random()) * 0.95
            rule, _ = oracle_binary(joint, gamma)
            assert abstained_mass(rule, joint) == pytest.approx(gamma, abs=1e-10)


class TestOracleMulticlass:
    def test_abstains_least_confident(self):
        # confidences 0.8 / 0.5 / 0.6: the middle atom goes first
        joint = DiscreteJoint(
            ((0.24, 0.03, 0.03), (0.15, 0.1, 0.05), (0.04, 0.24, 0.12))
        )
        rule, _ = oracle_multiclass(joint, 0.3)
        assert rule.action == ("decide", "abstain", "decide")

    def test_dominant_class_zero_risk(self):
        joint = DiscreteJoint(((0.5, 0.0), (0.5, 0.0)))
        _, risk = oracle_multiclass(joint, 0.2)
        assert risk == 0.0

    def test_exchange_never_helps(self):
        # swapping an abstained atom for a decided atom with strictly higher
        # confidence cannot lower the risk
        rng = seeded_stream(8, 0)
        for _ in range(30):
            joint = random_joint(rng, 6, 3)
            gamma = 0.3
            rule, risk = oracle_multiclass(joint, gamma)
            abstained = [i for i, a in enumerate(rule.action) if a == "abstain"]
            decided = [
                i
                for i, a in enumerate(rule.action)
                if a == "decide" and rule.plateau_fraction[i] == 0.0
            ]
            for a in abstained:
                for d in decided:
                    swapped = brute_force_swap(joint, rule, a, d, gamma)
                    if swapped is not None:
                        assert swapped >= risk - 1e-10


def brute_force_swap(joint, rule, abstained_id, decided_id, gamma):
    """Risk after abstaining decided_id instead of abstained_id, if the
    masses allow an exact swap (equal masses); None otherwise."""
    m_a = sum(joint.points[abstained_id])
    m_d = sum(joint.points[decided_id])
    if abs(m_a - m_d) > 1e-9:
        return None
    missed = 0.0
    for i, weights in enumerate(joint.points):
        abstain = (rule.action[i] == "abstain" and i != abstained_id) or i == decided_id
        if abstain:
            continue
        share = 1.0 - rule.plateau_fraction[i]
        missed += share * (sum(weights) - max(weights))
    return missed / (1.0 - gamma)


class TestOracleNp:
    def test_gamma_zero_matches_lp(self):
        rng = seeded_stream(9, 0)
        for _ in range(30):
            joint = random_joint(rng, 6, 2)
            _, type2 = oracle_np(joint, 0.2, 0.0)
            assert type2 == pytest.approx(
                brute_force_min(joint, 0.0, constraint=0.2), abs=1e-10
            )

    def test_full_alpha1_kills_type2(self):
        # with the whole class-1 mass allowed in the class-2 block, every
        # atom can be labeled 2 and nothing of class 2 is missed
        rng = seeded_stream(10, 0)
        joint = random_joint(rng, 5, 2)
        class1_total = sum(w[0] for w in joint.points)
        _, type2 = oracle_np(joint, class1_total, 0.0)
        assert type2 == pytest.approx(0.0, abs=1e-12)

    def test_type1_budget_exact(self):
        rng = seeded_stream(11, 0)
        for _ in range(20):
            joint = random_joint(rng, 7, 2)
            alpha1, gamma = 0.15, 0.25
            rule, _ = oracle_np(joint, alpha1, gamma)
            spent = sum(
                f * joint.points[i][0] for i, f in enumerate(rule.fraction_to_2)
            )
            assert spent == pytest.approx(alpha1 * (1.0 - gamma), abs=1e-10)
            abstained = sum(
                f * sum(joint.points[i])
                for i, f in enumerate(rule.fraction_to_abstain)
            )
            assert abstained == pytest.approx(gamma, abs=1e-9)

    def test_threshold_order(self):
        rng = seeded_stream(12, 0)
        for _ in range(20):
            joint = random_joint(rng, 6, 2)
            rule, _ = oracle_np(joint, 0.1, 0.2)
            assert rule.tau1 <= rule.tau2 + 1e-12

    def test_infeasible_budget(self):
        joint = DiscreteJoint(((0.01, 0.49), (0.01, 0.49)))
        with pytest.raises(InfeasibleConstraintError):
            oracle_np(joint, 0.9, 0.9)

    def test_type2_non_increasing_in_gamma(self):
        rng = seeded_stream(13, 0)
        joint = random_joint(rng, 8, 2)
        t2s = [oracle_np(joint, 0.1, g / 10)[1] for g in range(8)]
        for a, b in zip(t2s, t2s[1:]):
            assert b <= a + 1e-10


class TestBruteForce:
    def test_size_limit(self):
        rng = seeded_stream(14, 0)
        joint = random_joint(rng, 13, 2)
        with pytest.raises(SizeLimitError):
            brute_force_min(joint, 0.1)

    def test_impossible_gamma(self):
        # with gamma exceeding total mass of any achievable split... use a
        # 2-atom instance where no subset+fraction can reach mass > 1
        joint = DiscreteJoint(((0.5, 0.0), (0.0, 0.5)))
        assert brute_force_min(joint, 0.5) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_oracle_matches_search(self, trial, tied):
        rng = seeded_stream(trial, 0)
        n_atoms = 3 + trial % 6
        n_classes = 2 + trial % 2
        if tied:  # gamma on a block edge
            joint, unit = tied_joint(rng, n_atoms, n_classes)
            gamma = unit * int(rng.integers(0, int(0.9 / unit)))
        else:
            joint = random_joint(rng, n_atoms, n_classes)
            gamma = float(rng.random()) * 0.9
        _, risk = oracle_multiclass(joint, gamma)
        assert risk == pytest.approx(brute_force_min(joint, gamma), abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_np_oracle_matches_lp(self, trial, tied):
        rng = seeded_stream(trial, 1)
        if tied:  # gamma and the type-I budget on block edges
            joint, unit = tied_joint(rng, 3 + trial % 6, 2)
            gamma = unit * int(rng.integers(0, int(0.5 / unit) + 1))
            alpha1 = min(1.0, unit * int(rng.integers(1, int(0.2 / unit) + 2)) / (1.0 - gamma))
        else:
            joint = random_joint(rng, 3 + trial % 6, 2)
            gamma = float(rng.random()) * 0.5
            alpha1 = 0.02 + float(rng.random()) * 0.18
        try:
            _, type2 = oracle_np(joint, alpha1, gamma)
        except InfeasibleConstraintError:
            if tied:
                # the type-I budget exceeds the class-1 mass, or the abstention
                # mass does not fit above the class-2 block
                budget = alpha1 * (1.0 - gamma)
                if budget <= sum(w[0] for w in joint.points) + 1e-12:
                    rule, _ = oracle_np(joint, budget, 0.0)
                    block2 = sum(f * sum(w) for f, w in zip(rule.fraction_to_2, joint.points))
                    assert gamma > 1.0 - block2 - 1e-9
                return
            # the structured rule cannot fit both blocks; only extreme
            # budget/abstention combinations land here
            assert alpha1 * (1.0 - gamma) + gamma > 0.2
            return
        assert type2 == pytest.approx(
            brute_force_min(joint, gamma, constraint=alpha1), abs=1e-10
        )
