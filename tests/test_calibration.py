"""Tests for the finite-sample calibration procedures."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indecide import gmm
from indecide.calibration import (
    CalibrationSample,
    _np_grid_select,
    _type1_count_budget,
    MaxScoreRule,
    MlrNpRule,
    MlrSymmetricRule,
    NpRule,
    Rule,
    SelectiveBinaryRule,
    calibrate_accuracy,
    calibrate_accuracy_fixed_gamma,
    calibrate_accuracy_mlr,
    calibrate_multiclass_fixed_gamma,
    calibrate_np,
    calibrate_np_mlr,
)
from indecide.experiments import _draw_mixture, oracle_eta
from indecide.kvdoc import dump_kv, load_kv
from indecide.numerics import seeded_stream

DATA = Path(__file__).parent / "data"


class TestCalibrationSample:
    def test_exactly_one_kind(self):
        with pytest.raises(ValueError):
            CalibrationSample(labels=np.array([1]))
        with pytest.raises(ValueError):
            CalibrationSample(
                scores=np.array([0.5]), xs=np.array([0.0]), labels=np.array([1])
            )

    def test_score_range(self):
        with pytest.raises(ValueError):
            CalibrationSample(scores=np.array([1.2]), labels=np.array([1]))

    def test_score_vectors_sum(self):
        with pytest.raises(ValueError):
            CalibrationSample(
                score_vectors=np.array([[0.6, 0.6]]), labels=np.array([1])
            )

    def test_labels_required_for_scalar(self):
        with pytest.raises(ValueError):
            CalibrationSample(scores=np.array([0.5]))

    def test_unsupervised_vectors_allowed(self):
        cal = CalibrationSample(score_vectors=np.array([[0.7, 0.3], [0.2, 0.8]]))
        assert cal.n == 2

    def test_label_shape(self):
        with pytest.raises(ValueError):
            CalibrationSample(scores=np.array([0.5, 0.6]), labels=np.array([1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            CalibrationSample(scores=np.array([0.5, bad]), labels=np.array([1, 2]))
        with pytest.raises(ValueError, match="xs must be finite"):
            CalibrationSample(xs=np.array([0.5, bad]), labels=np.array([1, 2]))
        with pytest.raises(ValueError, match="score_vectors must be finite"):
            CalibrationSample(score_vectors=np.array([[0.5, 0.5], [bad, 0.5]]))

    @pytest.mark.parametrize("labels", [[1.7, 2.9, 1.2], [1.0, 2.0, 1.5], [1, 2, np.nan], [1, 2, np.inf]])
    def test_non_integer_labels_rejected(self, labels):
        # casting to int used to turn [1.7, 2.9, 1.2] into [1, 2, 1], and calibrate_np reported feasible
        with pytest.raises(ValueError, match="labels must be"):
            CalibrationSample(scores=np.array([0.9, 0.6, 0.2]), labels=np.array(labels))

    def test_integral_float_labels_accepted(self):
        cal = CalibrationSample(scores=np.array([0.9, 0.2]), labels=np.array([1.0, 2.0]))
        assert cal.labels.dtype.kind == "i" and cal.labels.tolist() == [1, 2]

    def test_xs_must_be_1d(self):
        # a 2 x 2 xs used to build a sample and fail later inside the grid search
        with pytest.raises(ValueError, match="xs must be a 1-d array"):
            CalibrationSample(xs=np.array([[0.1, 0.2], [0.3, 0.4]]), labels=np.array([1, 2]))

    @pytest.mark.parametrize(
        "calibrate",
        [
            lambda cal: calibrate_accuracy(cal, 0.1),
            lambda cal: calibrate_accuracy_fixed_gamma(cal, 0.1),
            lambda cal: calibrate_np(cal, 0.1, 0.1),
        ],
    )
    def test_binary_calibrators_reject_third_label(self, calibrate):
        cal = CalibrationSample(scores=np.array([0.9, 0.6, 0.2]), labels=np.array([1, 3, 2]))
        with pytest.raises(ValueError, match="labels in"):
            calibrate(cal)

    @pytest.mark.parametrize(
        "calibrate",
        [lambda cal: calibrate_np_mlr(cal, 0.1, 0.1), lambda cal: calibrate_accuracy_mlr(cal, 0.1)],
    )
    def test_mlr_calibrators_reject_third_label(self, calibrate):
        cal = CalibrationSample(xs=np.array([-1.0, 0.0, 1.0]), labels=np.array([1, 3, 2]))
        with pytest.raises(ValueError, match="labels in"):
            calibrate(cal)

    def test_holdout_labels_checked(self):
        cal = CalibrationSample(scores=np.array([0.9, 0.2]), labels=np.array([1, 2]))
        hold = CalibrationSample(scores=np.array([0.9, 0.2]), labels=np.array([1, 3]))
        with pytest.raises(ValueError, match="labels in"):
            calibrate_np(cal, 0.1, 0.1, holdout=hold)


class TestRules:
    def test_selective_binary(self):
        rule = SelectiveBinaryRule(tau=0.8)
        out = rule.apply([0.9, 0.7, 0.15])
        assert list(out) == [1, 0, 2]

    def test_np_rule(self):
        rule = NpRule(tau1=0.2, tau2=0.6)
        out = rule.apply([0.1, 0.4, 0.9])
        assert list(out) == [2, 0, 1]
        with pytest.raises(ValueError):
            NpRule(tau1=0.7, tau2=0.6)

    def test_mlr_np_rule(self):
        rule = MlrNpRule(tau2=-1.0, tau1=1.0)
        out = rule.apply([-2.0, 0.0, 2.0])
        assert list(out) == [1, 0, 2]
        with pytest.raises(ValueError):
            MlrNpRule(tau2=1.0, tau1=0.0)

    def test_mlr_symmetric_rule(self):
        rule = MlrSymmetricRule(tau=0.5)
        out = rule.apply([-1.0, 0.0, 1.0])
        assert list(out) == [1, 0, 2]

    def test_max_score_rule(self):
        rule = MaxScoreRule(tau=0.6)
        out = rule.apply([[0.7, 0.2, 0.1], [0.4, 0.35, 0.25]])
        assert list(out) == [1, 0]


class TestRuleSerialization:
    # rule.kv documents as calibrate has always written them
    OLD_FILES = {
        "selective-binary": ("format_version = 1\nrule_type = selective-binary\ntau = 0.80000000000000004\n",
                             SelectiveBinaryRule(tau=0.8)),
        "np": ("format_version = 1\nrule_type = np\ntau1 = -inf\ntau2 = 0.55000000000000004\n",
               NpRule(tau1=-np.inf, tau2=0.55)),
        "mlr-np": ("format_version = 1\nrule_type = mlr-np\ntau1 = inf\ntau2 = -1.5\n",
                   MlrNpRule(tau2=-1.5, tau1=np.inf)),
        "mlr-symmetric": ("format_version = 1\nrule_type = mlr-symmetric\ntau = 2\n", MlrSymmetricRule(tau=2.0)),
        "max-score": ("format_version = 1\nrule_type = max-score\ntau = -inf\n", MaxScoreRule(tau=-np.inf)),
    }

    @pytest.mark.parametrize("kind", sorted(OLD_FILES))
    def test_old_rule_files_load_and_round_trip(self, kind):
        text, rule = self.OLD_FILES[kind]
        loaded = Rule.from_kv(load_kv(text))
        assert loaded == rule and type(loaded) is type(rule)
        assert loaded.rule_type == kind
        assert Rule.from_kv(load_kv(dump_kv(loaded.to_kv()))) == loaded
        # vars(rule) holds only the numeric thresholds; the rest lives on the class
        assert all(type(value) is float for value in vars(loaded).values())
        assert loaded.to_kv() == {"rule_type": kind, **vars(loaded)}

    def test_input_columns(self):
        assert [cls.column for cls in (SelectiveBinaryRule, NpRule, MlrNpRule, MlrSymmetricRule, MaxScoreRule)] == [
            "score", "score", "x", "x", "s_1"
        ]

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"rule_type": "np", "tau1": 0.2}, "missing tau2"),
            ({"rule_type": "np", "tau1": 0.2, "tau2": True}, "tau2 must be a number"),
            ({"rule_type": "np", "tau1": math.nan, "tau2": 0.6}, "tau1 must be a number"),
            ({"rule_type": "max-score", "tau": "0.5"}, "tau must be a number"),
            ({"rule_type": "mystery", "tau": 0.5}, "unknown rule_type"),
            ({"tau": 0.5}, "unknown rule_type"),
        ],
    )
    def test_malformed_entries_rejected(self, entries, message):
        with pytest.raises(ValueError, match=message):
            Rule.from_kv(entries)

    @pytest.mark.parametrize(
        "rule, values",
        [
            (NpRule(tau1=0.2, tau2=0.6), [0.5, 1.5]),
            (NpRule(tau1=0.2, tau2=0.6), [-3.0]),
            (SelectiveBinaryRule(tau=0.8), [math.inf]),
            (SelectiveBinaryRule(tau=0.8), [math.nan]),
            (MlrSymmetricRule(tau=1.0), [0.0, math.nan]),
            (MaxScoreRule(tau=0.5), [[0.9, 0.9]]),
            (MaxScoreRule(tau=0.5), [[math.nan, 0.5]]),
        ],
    )
    def test_apply_checks_input_as_calibration_does(self, rule, values):
        with pytest.raises(ValueError):
            rule.apply(values)

    @pytest.mark.parametrize("rule", [MlrNpRule(tau2=-1.0, tau1=1.0), MlrSymmetricRule(tau=1.0)])
    def test_x_rules_reject_2d_input(self, rule):
        with pytest.raises(ValueError, match="xs must be a 1-d array"):
            rule.apply(np.array([[0.0, 2.0], [-2.0, 0.5]]))


class TestCalibrateAccuracy:
    def golden_sample(self):
        return CalibrationSample(
            scores=np.array([0.9, 0.8, 0.6, 0.4, 0.1]),
            labels=np.array([1, 1, 2, 2, 2]),
        )

    def test_golden_trace(self):
        report = calibrate_accuracy(self.golden_sample(), 0.1, want_trace=True)
        assert isinstance(report.rule, SelectiveBinaryRule)
        assert report.rule.tau == pytest.approx(0.8)
        assert report.gamma_hat == pytest.approx(0.4)
        assert report.achieved["conditional_error"] == 0.0
        assert report.feasible
        assert list(report.trace) == ["tau", "decided", "error", "running_min"]
        assert all(len(col) == 5 for col in report.trace.values())
        # candidate thresholds ascend through the sorted confidences
        taus = report.trace["tau"].tolist()
        assert taus == sorted(taus)
        # decided counts shrink, running minimum never rises
        decided = report.trace["decided"].tolist()
        assert decided == sorted(decided, reverse=True)
        mins = report.trace["running_min"].tolist()
        assert all(b <= a + 1e-15 for a, b in zip(mins, mins[1:]))

    def test_perfect_scores_need_no_abstention(self):
        cal = CalibrationSample(
            scores=np.array([0.9, 0.8, 0.1, 0.2]), labels=np.array([1, 1, 2, 2])
        )
        report = calibrate_accuracy(cal, 0.1)
        assert report.gamma_hat == 0.0
        assert report.feasible

    def test_adversarial_labels_infeasible(self):
        cal = CalibrationSample(
            scores=np.array([0.99, 0.98, 0.02, 0.01]), labels=np.array([2, 2, 1, 1])
        )
        report = calibrate_accuracy(cal, 0.1)
        assert not report.feasible
        assert report.gamma_hat == 1.0

    def test_infeasible_rule_abstains_everywhere(self):
        scores = np.array([0.0, 1.0, 0.99, 0.02])
        cal = CalibrationSample(scores=scores, labels=np.array([1, 2, 2, 1]))
        report = calibrate_accuracy(cal, 0.1)
        assert not report.feasible
        assert report.rule.tau == math.inf
        assert report.rule.apply(scores).tolist() == [0, 0, 0, 0]
        assert report.achieved["conditional_error"] == 0.0

    def test_gamma_non_increasing_in_alpha(self):
        rng = seeded_stream(21, 0)
        x, y = _draw_mixture(rng, 400, 1.0)
        cal = CalibrationSample(scores=oracle_eta(x, 1.0), labels=y)
        gammas = [
            calibrate_accuracy(cal, a).gamma_hat for a in (0.05, 0.1, 0.2, 0.3)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(gammas, gammas[1:]))

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            calibrate_accuracy(self.golden_sample(), 0.0)

    def test_large_sample_tracks_exact_tradeoff(self):
        rng = seeded_stream(22, 0)
        x, y = _draw_mixture(rng, 20_000, 1.0)
        cal = CalibrationSample(scores=oracle_eta(x, 1.0), labels=y)
        report = calibrate_accuracy(cal, 0.10)
        exact = gmm.gamma_for_target_risk(gmm.GmmSpec(1.0), 0.10).gamma
        assert report.feasible
        assert report.gamma_hat == pytest.approx(exact, abs=0.04)


class TestCalibrateAccuracyFixedGamma:
    def test_ceiling_rule(self):
        cal = CalibrationSample(
            scores=np.array([0.9, 0.8, 0.6, 0.55]), labels=np.array([1, 1, 1, 2])
        )
        report = calibrate_accuracy_fixed_gamma(cal, 0.3)
        # ceil(0.3 * 4) = 2 abstentions
        assert report.gamma_hat == pytest.approx(0.5)
        decisions = report.rule.apply(cal.scores)
        assert int((decisions == 0).sum()) == 2

    def test_abstains_on_ties_with_the_last_abstained(self):
        scores = np.array([0.9, 0.2, 0.8, 0.8, 0.2, 0.5])  # confidences 0.9, 0.8 x 4, 0.5
        cal = CalibrationSample(scores=scores, labels=np.array([1, 2, 1, 2, 1, 1]))
        report = calibrate_accuracy_fixed_gamma(cal, 0.3)  # ceil(1.8) = 2: 0.5, then one of the 0.8s
        assert report.rule.tau == 0.9
        assert report.rule.apply(scores).tolist() == [1, 0, 0, 0, 0, 0]
        assert report.gamma_hat == 5 / 6

    def test_gamma_zero_decides_all(self):
        cal = CalibrationSample(
            scores=np.array([0.9, 0.2]), labels=np.array([1, 2])
        )
        report = calibrate_accuracy_fixed_gamma(cal, 0.0)
        assert report.gamma_hat == 0.0
        assert report.achieved["conditional_error"] == 0.0

    def test_large_sample_matches_oracle_risk(self):
        rng = seeded_stream(23, 0)
        x, y = _draw_mixture(rng, 50_000, 1.0)
        cal = CalibrationSample(scores=oracle_eta(x, 1.0), labels=y)
        gamma = 0.3
        report = calibrate_accuracy_fixed_gamma(cal, gamma)
        exact = gmm.threshold_for_gamma(gmm.GmmSpec(1.0), gamma).risk
        assert report.achieved["conditional_error"] == pytest.approx(exact, abs=0.01)


class TestCalibrateNp:
    def golden_sample(self):
        return CalibrationSample(
            scores=np.array([0.9, 0.7, 0.55, 0.45, 0.3, 0.2]),
            labels=np.array([1, 1, 1, 2, 2, 2]),
        )

    def test_golden_selection(self):
        report = calibrate_np(self.golden_sample(), 1 / 3, 1 / 3)
        assert isinstance(report.rule, NpRule)
        assert report.rule.tau1 == pytest.approx(0.55)
        assert report.rule.tau2 == pytest.approx(0.55)
        assert report.gamma_hat == 0.0
        assert report.achieved["type1"] == pytest.approx(1 / 3)
        assert report.achieved["type2"] == 0.0
        assert report.feasible

    def test_golden_trace_matches_shipped_file(self):
        report = calibrate_np(self.golden_sample(), 1 / 3, 1 / 3, want_trace=True)
        with open(DATA / "np_trace_golden.csv", newline="") as fh:
            expected = list(csv.DictReader(fh))
        trace = report.trace
        assert list(trace) == list(expected[0])
        assert all(len(col) == len(expected) for col in trace.values())
        assert trace["valid"].dtype == bool
        for i, want in enumerate(expected):
            assert trace["k"][i] == int(want["k"])
            assert trace["gamma"][i] == pytest.approx(float(want["gamma"]), abs=1e-15)
            assert trace["k_tilde"][i] == int(want["k_tilde"])
            assert trace["type1_count"][i] == int(want["type1_count"])
            assert trace["valid"][i] == (want["valid"] == "True")
            if want["type2"] == "nan":
                assert math.isnan(trace["type2"][i])
            else:
                assert trace["type2"][i] == pytest.approx(float(want["type2"]), abs=1e-15)

    def test_needs_both_classes(self):
        cal = CalibrationSample(
            scores=np.array([0.9, 0.8]), labels=np.array([1, 1])
        )
        with pytest.raises(ValueError):
            calibrate_np(cal, 0.1, 0.1)

    def test_type1_budget_respected_on_calibration_data(self):
        rng = seeded_stream(24, 0)
        for rep in range(10):
            x, y = _draw_mixture(seeded_stream(24, rep), 500, 1.0)
            cal = CalibrationSample(scores=oracle_eta(x, 1.0), labels=y)
            report = calibrate_np(cal, 0.1, 0.1)
            n1 = int((y == 1).sum())
            # the count-based budget never exceeds the exact level
            assert report.achieved["type1_marginal"] * n1 <= 0.1 * n1 + 1e-9

    def test_gamma_minimal_on_trace(self):
        rng = seeded_stream(25, 0)
        x, y = _draw_mixture(rng, 300, 0.5)
        cal = CalibrationSample(scores=oracle_eta(x, 0.5), labels=y)
        report = calibrate_np(cal, 0.1, 0.3, want_trace=True)
        if report.feasible:
            k_sel = round(report.gamma_hat * cal.n)
            trace = report.trace
            earlier = (trace["k"] < k_sel) & trace["valid"]
            assert (trace["type2"][earlier] > 0.3).all()

    def test_holdout_estimates_reported(self):
        rng = seeded_stream(26, 0)
        x, y = _draw_mixture(rng, 400, 1.0)
        xh, yh = _draw_mixture(rng, 400, 1.0)
        cal = CalibrationSample(scores=oracle_eta(x, 1.0), labels=y)
        hold = CalibrationSample(scores=oracle_eta(xh, 1.0), labels=yh)
        report = calibrate_np(cal, 0.1, 0.3, holdout=hold)
        if report.feasible:
            assert "holdout_type1" in report.achieved
            assert "holdout_type2" in report.achieved

    def test_high_prob_budget_is_more_conservative(self):
        rng = seeded_stream(27, 0)
        x, y = _draw_mixture(rng, 500, 1.0)
        cal = CalibrationSample(scores=oracle_eta(x, 1.0), labels=y)
        plain = calibrate_np(cal, 0.1, 0.3)
        strict = calibrate_np(cal, 0.1, 0.3, high_prob_delta=0.05)
        assert strict.achieved["type1_marginal"] <= plain.achieved["type1_marginal"] + 1e-12

    def test_infeasible_reports_best_type2(self):
        cal = CalibrationSample(
            scores=np.array([0.9, 0.8, 0.7, 0.6]), labels=np.array([2, 2, 1, 1])
        )
        report = calibrate_np(cal, 0.2, 0.01)
        assert not report.feasible


def loop_type1_count_budget(n1, levels, high_prob_delta):
    """The per-level loop the vectorized high-probability budget replaced."""
    from scipy.stats import binom

    counts = np.zeros(len(levels))
    for idx, p in enumerate(levels):
        j = int(np.floor(p * n1))
        while j > 0 and binom.cdf(j - 1, n1, p) > high_prob_delta:
            j -= 1
        counts[idx] = j
    return counts


class TestType1Budget:
    @pytest.mark.parametrize("delta", [1e-6, 0.05, 0.5])
    def test_matches_per_level_loop(self, delta):
        rng = np.random.default_rng(41)
        for n1 in [*range(1, 61), 257, 1000, 3001]:
            step = max(1, n1 // 10)
            levels = np.concatenate(
                [
                    np.arange(0, n1 + 1, step) / n1,  # level * n1 an integer, up to rounding
                    (1.0 - np.arange(0, 21) / 20) * 0.1,  # the grid calibrate_np sweeps
                    rng.random(4),
                    [1e-300, 1e-12, 1e-6, 0.5 / n1],  # tiny levels
                ]
            )
            got = _type1_count_budget(n1, levels, delta)
            np.testing.assert_array_equal(got, loop_type1_count_budget(n1, levels, delta), err_msg=f"n1={n1}")


class TestCalibrateMulticlass:
    def test_fixed_gamma_counts(self):
        sv = np.array(
            [[0.9, 0.05, 0.05], [0.5, 0.3, 0.2], [0.4, 0.35, 0.25], [0.7, 0.2, 0.1]]
        )
        cal = CalibrationSample(score_vectors=sv, labels=np.array([1, 1, 2, 1]))
        report = calibrate_multiclass_fixed_gamma(cal, 0.4)
        # ceil(0.4 * 4) = 2 lowest-confidence rows abstain
        assert report.gamma_hat == pytest.approx(0.5)
        decisions = report.rule.apply(sv)
        assert int((decisions == 0).sum()) == 2
        assert "conditional_error" in report.achieved

    def test_abstains_on_ties_with_the_last_abstained(self):
        sv = np.array([[0.5, 0.5], [0.75, 0.25], [0.25, 0.75], [1.0, 0.0]])
        report = calibrate_multiclass_fixed_gamma(CalibrationSample(score_vectors=sv), 0.3)
        assert report.rule.tau == 0.75  # ceil(0.3 * 4) = 2: 0.5, one 0.75, then the tie at 0.75
        assert report.rule.apply(sv).tolist() == [0, 0, 0, 1]
        assert report.gamma_hat == 0.75

    def test_unsupervised(self):
        sv = np.array([[0.9, 0.1], [0.6, 0.4], [0.3, 0.7]])
        cal = CalibrationSample(score_vectors=sv)
        report = calibrate_multiclass_fixed_gamma(cal, 0.34)
        assert report.gamma_hat == pytest.approx(2 / 3, abs=1e-12)
        assert "conditional_error" not in report.achieved

    def test_gamma_zero(self):
        sv = np.array([[0.9, 0.1], [0.3, 0.7]])
        cal = CalibrationSample(score_vectors=sv, labels=np.array([1, 2]))
        report = calibrate_multiclass_fixed_gamma(cal, 0.0)
        decisions = report.rule.apply(sv)
        assert list(decisions) == [1, 2]


class TestCalibrateMlr:
    def draw(self, rep, n=400, delta=1.0):
        # class 2 sits to the right: flip the mixture convention
        x, y = _draw_mixture(seeded_stream(31, rep), n, delta)
        return CalibrationSample(xs=-x, labels=y)

    def test_abstention_is_interval(self):
        for rep in range(10):
            cal = self.draw(rep)
            report = calibrate_np_mlr(cal, 0.1, 0.2)
            order = np.argsort(cal.xs, kind="stable")
            decisions = report.rule.apply(cal.xs)[order]
            abstained = np.flatnonzero(decisions == 0)
            if len(abstained) > 0:
                assert abstained[-1] - abstained[0] == len(abstained) - 1

    def test_power_criterion_matches_gamma(self):
        for rep in range(10):
            cal = self.draw(rep, delta=0.6)
            report = calibrate_np_mlr(cal, 0.1, 0.2)
            if report.feasible:
                needs = report.achieved["power_criterion_positive_gamma"]
                assert needs == (report.gamma_hat > 0.0)

    def test_power_at_gamma0_from_the_single_grid_search(self):
        # tie-heavy samples: observations on a few half-integers, class 2 to the right
        rng = np.random.default_rng(33)
        branches = set()
        for rep in range(60):
            n = int(rng.integers(3, 60))
            labels = rng.integers(1, 3, n)
            if len(np.unique(labels)) < 2:
                continue
            xs = np.round(rng.normal(labels - 1.5, 1.0) * 2) / 2
            report = calibrate_np_mlr(CalibrationSample(xs=xs, labels=labels), 0.1, 0.2, want_trace=True)
            # the gamma = 0 test keeps the plain budget under a high-probability selection
            strict = calibrate_np_mlr(CalibrationSample(xs=xs, labels=labels), 0.1, 0.2, high_prob_delta=0.05)
            assert strict.achieved["power_at_gamma0"] == report.achieved["power_at_gamma0"]
            # what the former second grid search (alpha2 just below 1) reported
            old = _np_grid_select(-xs, labels == 1, 0.1, 1.0 - 1e-12, want_trace=True)
            branches.add(old.k == 0)
            if old.k == 0:  # its type II at k = 0, now read from its trace
                assert report.achieved["power_at_gamma0"] == 1.0 - old.trace["type2"][0]
            else:  # it skipped gamma = 0, which here has type II error 1
                assert report.trace["type2"][0] == 1.0
                assert report.achieved["power_at_gamma0"] == 0.0
            if report.feasible:
                assert report.achieved["power_criterion_positive_gamma"] == (report.gamma_hat > 0.0)
            assert list(report.trace) == ["k", "gamma", "k_tilde", "type1_count", "type2", "valid"]
            assert all(len(col) == n + 1 for col in report.trace.values())
        assert branches == {True, False}

    def test_separated_data_needs_no_abstention(self):
        xs = np.concatenate([np.linspace(-5, -3, 50), np.linspace(3, 5, 50)])
        labels = np.array([1] * 50 + [2] * 50)
        cal = CalibrationSample(xs=xs, labels=labels)
        report = calibrate_np_mlr(cal, 0.1, 0.1)
        assert report.feasible
        assert report.gamma_hat == 0.0
        assert report.achieved["power_at_gamma0"] == pytest.approx(1.0)

    def test_symmetric_accuracy_rule(self):
        x, y = _draw_mixture(seeded_stream(32, 0), 1000, 1.5)
        cal = CalibrationSample(xs=-x, labels=y)
        report = calibrate_accuracy_mlr(cal, 0.1)
        assert isinstance(report.rule, MlrSymmetricRule)
        assert report.feasible
        decisions = report.rule.apply(cal.xs)
        decided = decisions != 0
        err = float((decisions[decided] != y[decided]).mean())
        assert err <= 0.1 + 1e-12

    def test_symmetric_infeasible(self):
        cal = CalibrationSample(
            xs=np.array([-2.0, -1.0, 1.0, 2.0]), labels=np.array([2, 2, 1, 1])
        )
        report = calibrate_accuracy_mlr(cal, 0.05)
        assert not report.feasible
        assert report.gamma_hat == 1.0


def recomputed_np(rule, values, labels) -> dict:
    """gamma, type I and type II of rule.apply on the sample, as the NP
    calibrators define them: errors over the decided points of each class."""
    decisions = rule.apply(values)
    c1, c2 = labels == 1, labels == 2
    decided1, decided2 = int((c1 & (decisions != 0)).sum()), int((c2 & (decisions != 0)).sum())
    wrong1, wrong2 = int((c1 & (decisions == 2)).sum()), int((c2 & (decisions == 1)).sum())
    return {
        "gamma": int((decisions == 0).sum()) / len(values),
        "type1": wrong1 / decided1 if decided1 > 0 else 0.0,
        "type2": wrong2 / decided2 if decided2 > 0 else 0.0,
    }


def recomputed_accuracy(rule, values, labels) -> dict:
    decisions = rule.apply(values)
    decided = decisions != 0
    n_decided = int(decided.sum())
    wrong = int((decisions[decided] != labels[decided]).sum())
    return {
        "gamma": int((~decided).sum()) / len(values),
        "conditional_error": wrong / n_decided if n_decided > 0 else 0.0,
    }


@st.composite
def tie_heavy(draw, values, side):
    """6-60 values drawn from a few, labelled side(value) except for about
    one in six, so that deciding every point is often within alpha."""
    n = draw(st.integers(6, 60))
    xs = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    flips = np.array(draw(st.lists(st.sampled_from([False] * 5 + [True]), min_size=n, max_size=n)))
    labels = np.where(flips, 3 - side(xs), side(xs))
    assume(len(set(labels.tolist())) == 2)
    return xs, labels


@st.composite
def distinct_labelled(draw, values):
    n = draw(st.integers(6, 60))
    xs = draw(st.lists(values, min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n).filter(lambda ls: len(set(ls)) == 2))
    return np.array(xs, dtype=float), np.array(labels)


ALPHAS = st.sampled_from([0.05, 0.1, 0.2, 0.3])


class TestReportMatchesApply:
    """A saved rule, applied to its own calibration sample, does what the
    report says: gamma_hat and the achieved errors recomputed from rule.apply."""

    @settings(max_examples=40, deadline=None)
    @given(distinct_labelled(st.floats(0.0, 1.0)), ALPHAS, ALPHAS)
    def test_np_on_distinct_scores(self, sample, alpha1, alpha2):
        scores, labels = sample
        report = calibrate_np(CalibrationSample(scores=scores, labels=labels), alpha1, alpha2)
        got = recomputed_np(report.rule, scores, labels)
        assert report.gamma_hat == got["gamma"]
        assert report.achieved["type1"] == got["type1"]
        assert report.achieved["type2"] == got["type2"]

    @settings(max_examples=40, deadline=None)
    @given(distinct_labelled(st.floats(-10.0, 10.0)), ALPHAS, ALPHAS)
    def test_np_mlr_on_distinct_observations(self, sample, alpha1, alpha2):
        xs, labels = sample
        report = calibrate_np_mlr(CalibrationSample(xs=xs, labels=labels), alpha1, alpha2)
        got = recomputed_np(report.rule, xs, labels)
        assert report.gamma_hat == got["gamma"]
        assert report.achieved["type1"] == got["type1"]
        assert report.achieved["type2"] == got["type2"]

    def test_np_abstains_on_all_k_points(self):
        scores = np.array([0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95])
        labels = np.array([2, 2, 1, 2, 1, 2, 1, 1, 1, 1])
        report = calibrate_np(CalibrationSample(scores=scores, labels=labels), 0.2, 0.2)
        assert report.gamma_hat > 0.0
        assert (report.rule.apply(scores) == 0).sum() == round(report.gamma_hat * len(scores))

    def test_accuracy_tie_at_one_half(self):
        scores, labels = np.array([0.5, 0.5, 0.5, 0.9]), np.array([1, 1, 1, 1])
        report = calibrate_accuracy(CalibrationSample(scores=scores, labels=labels), 0.1)
        assert report.achieved["conditional_error"] == 0.0
        assert report.rule.apply(scores).tolist() == [1, 1, 1, 1]

    def test_accuracy_mlr_tie_at_zero(self):
        xs, labels = np.array([0.0, 0.0, 0.0, 2.0]), np.array([2, 2, 2, 2])
        report = calibrate_accuracy_mlr(CalibrationSample(xs=xs, labels=labels), 0.1)
        assert report.achieved["conditional_error"] == 0.0
        assert report.rule.apply(xs).tolist() == [2, 2, 2, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        tie_heavy([0.0, 0.1, 0.25, 0.5, 0.5, 0.5, 0.75, 0.9, 1.0], lambda s: np.where(s >= 0.5, 1, 2)),
        st.sampled_from([0.1, 0.25, 0.4]),
    )
    def test_accuracy_on_tie_heavy_scores(self, sample, alpha):
        scores, labels = sample
        report = calibrate_accuracy(CalibrationSample(scores=scores, labels=labels), alpha)
        if report.feasible:
            got = recomputed_accuracy(report.rule, scores, labels)
            assert report.gamma_hat == got["gamma"]
            assert report.achieved["conditional_error"] == got["conditional_error"]

    @settings(max_examples=60, deadline=None)
    @given(
        tie_heavy([-2.0, -1.0, -0.5, 0.0, 0.0, 0.0, 0.5, 1.0, 2.0], lambda x: np.where(x >= 0.0, 2, 1)),
        st.sampled_from([0.1, 0.25, 0.4]),
    )
    def test_accuracy_mlr_on_tie_heavy_observations(self, sample, alpha):
        xs, labels = sample
        report = calibrate_accuracy_mlr(CalibrationSample(xs=xs, labels=labels), alpha)
        if report.feasible:
            got = recomputed_accuracy(report.rule, xs, labels)
            assert report.gamma_hat == got["gamma"]
            assert report.achieved["conditional_error"] == got["conditional_error"]


def recomputed_power_at_gamma0(xs, labels, alpha1) -> float:
    """Power of the abstention-free test at alpha1, class 2 to the right:
    2 for x >= c with the smallest cut c among the observations (or inf)
    leaving at most floor(alpha1 * n1) class-1 points at or above it, and
    its type II error taken from rule.apply."""
    budget = math.floor(alpha1 * int((labels == 1).sum()) + 1e-12)
    cut = min(c for c in [*np.unique(xs).tolist(), math.inf] if int(((xs >= c) & (labels == 1)).sum()) <= budget)
    rule = MlrNpRule(tau2=float(np.nextafter(cut, -math.inf)), tau1=cut)
    return 1.0 - recomputed_np(rule, xs, labels)["type2"]


def assert_report_is_apply(report, values, labels, holdout=None):
    """gamma_hat and every achieved key rule.apply can recompute, exactly
    (the mlr-np power keys describe another rule and are checked apart)."""
    wrong1 = int(((labels == 1) & (report.rule.apply(values) == 2)).sum())
    expected = {
        **recomputed_accuracy(report.rule, values, labels),
        **recomputed_np(report.rule, values, labels),
        "type1_marginal": wrong1 / int((labels == 1).sum()),
    }
    if holdout is not None:
        held = recomputed_np(report.rule, *holdout)
        expected.update(holdout_type1=held["type1"], holdout_type2=held["type2"])
    assert report.gamma_hat == expected["gamma"]
    for key, value in report.achieved.items():
        if key not in ("power_at_gamma0", "power_criterion_positive_gamma"):
            assert value == expected[key], key


def assert_grid_row_is_the_rule(report, labels, alpha2):
    """The two-threshold search scored the rule it ships: its trace row at
    the selected k counts what rule.apply does, and no earlier valid k met
    alpha2 when the report is feasible."""
    trace, n1 = report.trace, int((labels == 1).sum())
    k = round(report.gamma_hat * len(labels))
    assert trace["valid"][k] and trace["gamma"][k] == report.gamma_hat
    assert trace["type2"][k] == report.achieved["type2"]
    assert trace["type1_count"][k] / n1 == report.achieved["type1_marginal"]
    if report.feasible:
        assert (trace["type2"][:k][trace["valid"][:k]] > alpha2).all()


def assert_accuracy_row_is_the_rule(report, alpha):
    """The accuracy selector scored the rule it ships: the first candidate
    within alpha, or none."""
    trace = report.trace
    hits = np.flatnonzero(trace["error"] <= alpha)
    assert report.feasible == (len(hits) > 0)
    if report.feasible:
        assert trace["tau"][hits[0]] == report.rule.tau
        assert trace["error"][hits[0]] == report.achieved["conditional_error"]
        assert trace["decided"][hits[0]] == round((1.0 - report.gamma_hat) * len(trace["tau"]))


def piled(draw, n):
    """Values piled at 0, 0.5 and 1, with a few anywhere in between."""
    return draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=n, max_size=n))


SCORE_KINDS = {
    "distinct": lambda draw, n: draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True)),
    "tie-heavy": lambda draw, n: draw(
        st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=n, max_size=n)
    ),
    "piled": piled,
}


@st.composite
def labelled_scores(draw, kind):
    """6-60 scores of one kind, labelled 1 above 1/2 and 2 below except for
    about one in four, with both labels present."""
    n = draw(st.integers(6, 60))
    scores = np.array(SCORE_KINDS[kind](draw, n), dtype=float)
    flips = np.array(draw(st.lists(st.sampled_from([False] * 3 + [True]), min_size=n, max_size=n)))
    labels = np.where(flips, 3 - np.where(scores >= 0.5, 1, 2), np.where(scores >= 0.5, 1, 2))
    assume(len(set(labels.tolist())) == 2)
    return scores, labels


@settings(max_examples=80, deadline=None)
@given(data=st.data(), alpha1=ALPHAS, alpha2=ALPHAS, gamma=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]))
@pytest.mark.parametrize("kind", sorted(SCORE_KINDS))
def test_every_report_is_what_its_rule_does(kind, data, alpha1, alpha2, gamma):
    """All six calibrators, feasible or not: the report is rule.apply on the
    calibration sample (and, for holdout_*, on the holdout sample)."""
    scores, labels = data.draw(labelled_scores(kind))
    held_scores, held_labels = data.draw(labelled_scores(kind))
    xs = 2.0 - 4.0 * scores  # class 2 to the right; s = 1/2 lands on x = 0
    cal, cal_x = CalibrationSample(scores=scores, labels=labels), CalibrationSample(xs=xs, labels=labels)
    vectors = np.stack([scores, 1.0 - scores], axis=1)

    holdout = CalibrationSample(scores=held_scores, labels=held_labels)
    report = calibrate_np(cal, alpha1, alpha2, holdout=holdout, want_trace=True)
    assert_report_is_apply(report, scores, labels, (held_scores, held_labels))
    assert_grid_row_is_the_rule(report, labels, alpha2)
    assert ("holdout_type1" in report.achieved) == report.feasible
    report = calibrate_np_mlr(cal_x, alpha1, alpha2, want_trace=True)
    assert_report_is_apply(report, xs, labels)
    assert_grid_row_is_the_rule(report, labels, alpha2)
    power = recomputed_power_at_gamma0(xs, labels, alpha1)
    assert report.achieved["power_at_gamma0"] == power
    assert report.achieved["power_criterion_positive_gamma"] == (power < 1.0 - alpha2)
    for report, values in (
        (calibrate_accuracy(cal, alpha1, want_trace=True), scores),
        (calibrate_accuracy_mlr(cal_x, alpha1, want_trace=True), xs),
        (calibrate_accuracy_fixed_gamma(cal, gamma), scores),
        (calibrate_multiclass_fixed_gamma(CalibrationSample(score_vectors=vectors, labels=labels), gamma), vectors),
    ):
        assert_report_is_apply(report, values, labels)
        assert report.achieved.keys() == {"conditional_error"}
        if report.trace:
            assert_accuracy_row_is_the_rule(report, alpha1)
