"""Acceptance suite: nine end-to-end behavioral guarantees.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) and asserts both the stated tolerance and the runtime
budget.  Tolerances and reference constants are frozen here; see the
module tests for finer-grained coverage.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from indecide import gmm
from indecide.calibration import CalibrationSample, calibrate_accuracy, calibrate_np_mlr
from indecide.discrete import DiscreteJoint, brute_force_min, oracle_multiclass, oracle_np
from indecide.experiments import (
    SimConfig,
    _draw_mixture,
    oracle_eta,
    run_consistency_trend,
    run_np_sweep,
)
from indecide.kvdoc import write_kv
from indecide.numerics import seeded_stream


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


class TestAcceptance:
    def test_criterion_1_bayes_anchor(self):
        spec = gmm.GmmSpec(1.0)
        gmm.operating_point_at_t(spec, 0.0)  # warm up
        start = time.perf_counter()
        point = gmm.operating_point_at_t(spec, 0.0)
        elapsed = time.perf_counter() - start
        ok = abs(point.risk - 0.15866) <= 0.0005 and point.gamma == 0.0 and elapsed < 1e-3
        report(
            1,
            "no-abstention risk at unit separation is the 15.9% anchor",
            ok,
            f"risk={point.risk:.6f}, {elapsed * 1e6:.0f}us",
        )

    def test_criterion_2_risk_curve_regularity(self):
        start = time.perf_counter()
        worst = -math.inf
        ok = True
        h = 0.01
        for delta in (0.5, 1.0, 2.0):
            spec = gmm.GmmSpec(delta)
            risks = [gmm.threshold_for_gamma(spec, g / 100.0).risk for g in range(100)]
            for i in range(99):
                gamma = i / 100.0
                drop = risks[i] - risks[i + 1]
                bound = 2.0 * h / (1.0 - gamma - h) + 1e-9
                worst = max(worst, drop - bound, -drop)
                if not (-1e-12 <= drop <= bound):
                    ok = False
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < 1.0
        report(
            2,
            "risk curve is non-increasing with Lipschitz-bounded drops",
            ok,
            f"worst slack={worst:.2e}, {elapsed:.2f}s",
        )

    def test_criterion_3_brute_force_equivalence(self):
        start = time.perf_counter()
        worst = 0.0
        plateau_cases = 0
        for trial in range(200):
            rng = seeded_stream(1000 + trial, 0)
            n_atoms = int(rng.integers(3, 11))
            n_classes = 2 if trial % 2 == 0 else 3
            raw = rng.random((n_atoms, n_classes)) + 1e-3
            if trial % 5 == 0:
                # force tied confidences so the boundary atom splits
                raw[1] = raw[0]
            raw /= raw.sum()
            joint = DiscreteJoint(tuple(tuple(row) for row in raw))
            gamma = float(rng.random()) * 0.9
            rule, risk = oracle_multiclass(joint, gamma)
            if any(0.0 < f < 1.0 for f in rule.plateau_fraction):
                plateau_cases += 1
            worst = max(worst, abs(risk - brute_force_min(joint, gamma)))
            if n_classes == 2:
                alpha1 = 0.02 + float(rng.random()) * 0.15
                gamma_np = float(rng.random()) * 0.4
                _, type2 = oracle_np(joint, alpha1, gamma_np)
                worst = max(
                    worst,
                    abs(type2 - brute_force_min(joint, gamma_np, constraint=alpha1)),
                )
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-10 and plateau_cases > 0 and elapsed < 30.0
        report(
            3,
            "oracle rules match exhaustive search on 200 random instances",
            ok,
            f"max gap={worst:.2e}, plateau splits={plateau_cases}, {elapsed:.1f}s",
        )

    def test_criterion_4_phase_envelope(self):
        start = time.perf_counter()
        violations = 0
        checked = 0
        for delta_target, c_lo, c_hi in ((1e-15, 0.55, 0.95), (1e-7, 0.05, 0.45)):
            for c in np.linspace(c_lo + 1e-9, c_hi - 1e-9, 200):
                m_hat = gmm.empirical_exponent(float(c), delta_target)
                low, high = gmm.phase_envelope(float(c), delta_target)
                checked += 1
                if not low <= m_hat <= high:
                    violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 0 and checked == 400 and elapsed < 60.0
        report(
            4,
            "observed abstention exponent stays inside the critical envelope",
            ok,
            f"{violations}/{checked} outside, {elapsed:.1f}s",
        )

    def test_criterion_5_accuracy_calibration_control(self):
        start = time.perf_counter()
        target = gmm.gamma_for_target_risk(gmm.GmmSpec(1.0), 0.10).gamma
        failures = []
        for rep in range(50):
            rng = seeded_stream(500, rep)
            x_cal, y_cal = _draw_mixture(rng, 100_000, 1.0)
            x_te, y_te = _draw_mixture(rng, 100_000, 1.0)
            cal = CalibrationSample(scores=oracle_eta(x_cal, 1.0), labels=y_cal)
            rep_out = calibrate_accuracy(cal, 0.10)
            decisions = rep_out.rule.apply(oracle_eta(x_te, 1.0))
            decided = decisions != 0
            err = float((decisions[decided] != y_te[decided]).mean())
            if not (err <= 0.11 and abs(rep_out.gamma_hat - target) <= 0.02):
                failures.append((rep, err, rep_out.gamma_hat))
        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 60.0
        report(
            5,
            "threshold calibration controls test error and abstention",
            ok,
            f"{len(failures)} bad reps, gamma*={target:.4f}, {elapsed:.1f}s",
        )

    def test_criterion_6_two_threshold_control_and_dominance(self):
        start = time.perf_counter()
        cfg = SimConfig(
            n_train=1000,
            n_cal=1000,
            n_test=1000,
            reps=200,
            delta_grid=(0.5, 1.0, 1.5, 2.0),
            alpha1=0.1,
            alpha2=0.1,
            scorer="lda",
            seed=11,
        )
        rows = run_np_sweep(cfg, workers=2).rows
        problems = []
        for delta in cfg.delta_grid:
            alg = (rows["delta"] == delta) & (rows["arm"] == "algorithm2")
            base = (rows["delta"] == delta) & (rows["arm"] == "np-baseline")
            assert (rows["rep"][alg] == rows["rep"][base]).all()  # the same replications, in the same order
            mean_t1 = float(np.mean(rows["type1"][alg]))
            wins = np.count_nonzero(rows["type2"][alg] <= rows["type2"][base] + 1e-12)
            dominance = wins / np.count_nonzero(alg)
            if mean_t1 > 0.12:
                problems.append(f"delta={delta}: mean type I {mean_t1:.3f}")
            if dominance < 0.95:
                problems.append(f"delta={delta}: dominance {dominance:.3f}")
            if delta == 2.0:
                med_gamma = float(np.median(rows["gamma_star"][alg]))
                if med_gamma > 0.05:
                    problems.append(f"delta=2 median gamma* {med_gamma:.3f}")
        elapsed = time.perf_counter() - start
        ok = not problems and elapsed < 300.0
        report(
            6,
            "two-threshold calibration controls type I and dominates the no-abstention baseline",
            ok,
            "; ".join(problems) or f"{elapsed:.0f}s",
        )

    def test_criterion_7_plugin_consistency_trend(self):
        start = time.perf_counter()
        result = run_consistency_trend(
            delta=1.0, gamma=0.3, n_grid=(100, 1000, 10_000), reps=100, seed=0, workers=2
        )
        order = np.argsort(result.aggregates["n_train"])
        gaps = result.aggregates["risk_gap_median"][order].tolist()
        monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        nonneg = all(g >= -1e-12 for g in gaps)
        elapsed = time.perf_counter() - start
        ok = monotone and nonneg and elapsed < 180.0
        report(
            7,
            "median excess risk of the fitted rule shrinks with training size",
            ok,
            f"medians={[f'{g:.2e}' for g in gaps]}, {elapsed:.0f}s",
        )

    def test_criterion_8_mlr_interval_structure(self):
        start = time.perf_counter()
        problems = []
        for trial in range(100):
            rng = seeded_stream(800, trial)
            n = int(rng.integers(60, 400))
            delta = 0.3 + float(rng.random()) * 1.7
            x, y = _draw_mixture(rng, n, delta)
            if len(set(y)) < 2:
                continue
            cal = CalibrationSample(xs=-x, labels=y)  # class 2 on the right
            alpha1 = 0.05 + float(rng.random()) * 0.15
            alpha2 = 0.05 + float(rng.random()) * 0.25
            rep_out = calibrate_np_mlr(cal, alpha1, alpha2)
            order = np.argsort(cal.xs, kind="stable")
            decisions = rep_out.rule.apply(cal.xs)[order]
            abstained = np.flatnonzero(decisions == 0)
            if len(abstained) > 0 and abstained[-1] - abstained[0] != len(abstained) - 1:
                problems.append(f"trial {trial}: abstention not contiguous")
            if rep_out.feasible:
                needs_abstention = rep_out.achieved["power_criterion_positive_gamma"]
                has_abstention = rep_out.gamma_hat > 0.0
                # allow one order statistic of slack at the boundary
                if needs_abstention != has_abstention and rep_out.gamma_hat > 1.0 / n:
                    problems.append(f"trial {trial}: power criterion mismatch")
        elapsed = time.perf_counter() - start
        ok = not problems and elapsed < 30.0
        report(
            8,
            "raw-observation abstention set is an interval; abstention iff power shortfall",
            ok,
            "; ".join(problems[:3]) or f"{elapsed:.1f}s",
        )

    def test_criterion_9_determinism_across_workers(self, tmp_path):
        start = time.perf_counter()
        cfg_path = tmp_path / "cfg.kv"
        write_kv(
            {"reps": 6, "n_train": 200, "n_cal": 200, "n_test": 200, "delta_grid": "0.5;1.0"},
            cfg_path,
        )
        outputs = {}
        for workers in (1, 3):
            out_dir = tmp_path / f"w{workers}"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "indecide.cli", "experiment", "accuracy-sweep",
                    "--config", str(cfg_path), "--out-dir", str(out_dir),
                    "--seed", "17", "--workers", str(workers),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs[workers] = (
                (out_dir / "accuracy-sweep_rows.csv").read_bytes(),
                (out_dir / "accuracy-sweep_aggregates.csv").read_bytes(),
            )
        elapsed = time.perf_counter() - start
        ok = outputs[1] == outputs[3]
        report(
            9,
            "same seed gives byte-identical CSVs at any worker count",
            ok,
            f"{elapsed:.1f}s",
        )
