"""End-to-end tests for the command-line interface."""

import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from indecide import cli
from indecide.calibration import MaxScoreRule, MlrNpRule, MlrSymmetricRule, NpRule, SelectiveBinaryRule
from indecide.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from indecide.kvdoc import load_kv

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

# consistency-trend with replication 1 SIGKILLing its own worker process
KILLED_WORKER_SCRIPT = """
import os, signal, sys
from indecide import cli, experiments

real_rep = experiments._consistency_rep


def rep(*args):
    if args[-1] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_rep(*args)


experiments._consistency_rep = rep
if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:]))
"""


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def run_cli(argv, cwd, stdin=None):
    """indecide argv in a new process, fed the bytes stdin on standard input; a hang fails at the timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-m", "indecide.cli", *argv]
    return subprocess.run(command, cwd=cwd, env=env, input=stdin, capture_output=True, timeout=60)


class TestCalibrateCommand:
    def test_accuracy_golden(self, tmp_path):
        inp = write_csv(
            tmp_path / "cal.csv",
            "score,label\n0.9,1\n0.8,1\n0.6,2\n0.4,2\n0.1,2\n",
        )
        out = tmp_path / "out"
        code = main(
            ["calibrate", "--mode", "accuracy", "--input", inp, "--alpha", "0.1", "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        rule = load_kv((out / "rule.kv").read_text(encoding="utf-8"))
        assert rule["rule_type"] == "selective-binary"
        assert rule["tau"] == pytest.approx(0.8)
        report = load_kv((out / "report.kv").read_text(encoding="utf-8"))
        assert report["gamma_hat"] == pytest.approx(0.4)
        assert report["feasible"] is True
        assert report["achieved_conditional_error"] == 0.0
        manifest = load_kv((out / "manifest.kv").read_text(encoding="utf-8"))
        assert manifest["subcommand"] == "calibrate-accuracy"
        assert f"sha256_{Path(inp).name}" in manifest

    def test_np_trace_matches_golden_file(self, tmp_path):
        inp = str(DATA / "np_cal_golden.csv")
        out = tmp_path / "out"
        code = main(
            [
                "calibrate", "--mode", "np", "--input", inp,
                "--alpha1", "0.3333333333333333", "--alpha2", "0.3333333333333333",
                "--out-dir", str(out), "--trace",
            ]
        )
        assert code == EXIT_OK
        got = (out / "trace.csv").read_bytes()
        want = (DATA / "np_trace_golden.csv").read_bytes()
        assert got == want
        rule = load_kv((out / "rule.kv").read_text(encoding="utf-8"))
        assert rule["rule_type"] == "np"
        assert rule["tau1"] == pytest.approx(0.55)

    def test_accuracy_trace_matches_golden_file(self, tmp_path):
        # golden file written by the row-dict trace writer this one replaced
        out = tmp_path / "out"
        code = main(
            [
                "calibrate", "--mode", "accuracy", "--input", str(DATA / "accuracy_cal_golden.csv"),
                "--alpha", "0.35", "--out-dir", str(out), "--trace",
            ]
        )
        assert code == EXIT_OK
        assert (out / "trace.csv").read_bytes() == (DATA / "accuracy_trace_golden.csv").read_bytes()

    def test_infeasible_exit_code(self, tmp_path):
        inp = write_csv(
            tmp_path / "cal.csv",
            "score,label\n0.99,2\n0.98,2\n0.02,1\n0.01,1\n",
        )
        code = main(
            ["calibrate", "--mode", "accuracy", "--input", inp, "--alpha", "0.05", "--out-dir", str(tmp_path / "o")]
        )
        assert code == EXIT_INFEASIBLE

    def test_bad_header_schema_error(self, tmp_path):
        inp = write_csv(tmp_path / "cal.csv", "s,y\n0.9,1\n")
        code = main(
            ["calibrate", "--mode", "accuracy", "--input", inp, "--alpha", "0.1", "--out-dir", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE

    def test_non_numeric_cell_reports_line(self, tmp_path, capsys):
        inp = write_csv(tmp_path / "cal.csv", "score,label\n0.9,1\noops,2\n")
        code = main(
            ["calibrate", "--mode", "accuracy", "--input", inp, "--alpha", "0.1", "--out-dir", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    def test_missing_target_flag(self, tmp_path, capsys):
        inp = write_csv(tmp_path / "cal.csv", "score,label\n0.9,1\n0.1,2\n")
        # the flags are checked before the input is read: a missing one wins over a missing file
        for path in (inp, str(tmp_path / "missing.csv")):
            code = main(
                ["calibrate", "--mode", "np", "--input", path, "--alpha1", "0.1", "--out-dir", str(tmp_path / "o")]
            )
            assert code == EXIT_USAGE
            assert capsys.readouterr().err == "error: mode np requires --alpha2\n"

    @pytest.mark.parametrize(
        "mode, flags, message",
        [
            ("np", ["--alpha1", "0.1", "--alpha2", "0.1", "--gamma", "0.2"], "mode np does not read --gamma"),
            ("accuracy", ["--alpha", "0.1", "--gamma", "0.2"], "mode accuracy --gamma does not read --alpha"),
            ("mlr-np", ["--alpha", "0.1", "--alpha1", "0.1", "--alpha2", "0.1"], "mode mlr-np does not read --alpha"),
        ],
    )
    def test_unread_target_flag(self, tmp_path, capsys, mode, flags, message):
        # such a flag used to be dropped without a word; it fails before the input is read
        out = tmp_path / "o"
        argv = ["calibrate", "--mode", mode, "--input", str(tmp_path / "missing.csv"), *flags]
        code = main([*argv, "--out-dir", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # the CI step "Every calibrate mode writes a trace", row for row: (input CSV, flags, the cli._MODES row
    # they reach, the rule class it saves, its trace header)
    TRACE_CSVS = {
        "score.csv": "score,label\n0.9,1\n0.7,1\n0.6,2\n0.4,1\n0.2,2\n0.1,2\n",
        "x.csv": "x,label\n-2,1\n-1,1\n-0.5,2\n0.5,1\n1,2\n2,2\n",
        "s.csv": "s_1,s_2,label\n0.9,0.1,1\n0.7,0.3,1\n0.6,0.4,2\n0.4,0.6,1\n0.2,0.8,2\n0.1,0.9,2\n",
    }
    CHOW_TRACE, NP_TRACE = "tau,decided,error,running_min", "k,gamma,k_tilde,type1_count,type2,valid"
    TRACE_MODES = [
        ("score.csv", "--mode accuracy --alpha 0.3", "accuracy", SelectiveBinaryRule, CHOW_TRACE),
        ("score.csv", "--mode accuracy --gamma 0.3", "accuracy --gamma", SelectiveBinaryRule, CHOW_TRACE),
        ("x.csv", "--mode mlr-accuracy --alpha 0.3", "mlr-accuracy", MlrSymmetricRule, CHOW_TRACE),
        ("score.csv", "--mode np --alpha1 0.4 --alpha2 0.4", "np", NpRule, NP_TRACE),
        ("x.csv", "--mode mlr-np --alpha1 0.4 --alpha2 0.4", "mlr-np", MlrNpRule, NP_TRACE),
        ("s.csv", "--mode multiclass --gamma 0.3", "multiclass", MaxScoreRule, CHOW_TRACE),
    ]

    def test_trace_rows_cover_every_mode(self):
        assert sorted(row[2] for row in self.TRACE_MODES) == sorted(cli._MODES)

    @pytest.mark.parametrize("csv, flags, key, rule_class, header", TRACE_MODES, ids=[r[2] for r in TRACE_MODES])
    def test_every_mode_writes_a_trace(self, tmp_path, csv, flags, key, rule_class, header):
        inp = write_csv(tmp_path / csv, self.TRACE_CSVS[csv])
        out = tmp_path / "out"
        # exit 2 (targets not met) still writes every file
        code = main(["calibrate", "--input", inp, *flags.split(), "--out-dir", str(out), "--trace"])
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        trace = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
        assert trace[0] == header and len(trace) > 1
        assert load_kv((out / "rule.kv").read_text(encoding="utf-8"))["rule_type"] == rule_class.rule_type

    @pytest.mark.parametrize(
        "mode, text",
        [
            ("multiclass", "s_1,s_2,label\n0.8,0.2,1\n0.3,0.7,1\n0.5,0.5,2\n0.1,0.9,2\n"),
            ("accuracy", "score,label\n0.9,1\n0.3,1\n0.5,2\n0.1,2\n"),
        ],
    )
    def test_fixed_gamma_modes_write_a_trace(self, tmp_path, mode, text):
        # --trace used to write no trace.csv in these modes, and exit 0
        out = tmp_path / "out"
        argv = ["calibrate", "--mode", mode, "--input", write_csv(tmp_path / "cal.csv", text), "--gamma", "0.2"]
        assert main([*argv, "--out-dir", str(out), "--trace"]) == EXIT_OK
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "tau,decided,error,running_min"
        assert len(trace) == 1 + 4  # one row per candidate
        assert "trace.csv" in load_kv((out / "manifest.kv").read_text(encoding="utf-8"))["outputs"]

    def test_multiclass_fixed_gamma(self, tmp_path):
        inp = write_csv(
            tmp_path / "cal.csv",
            "s_1,s_2,s_3,label\n0.8,0.1,0.1,1\n0.2,0.5,0.3,2\n0.1,0.2,0.7,3\n0.4,0.3,0.3,1\n",
        )
        out = tmp_path / "out"
        code = main(
            ["calibrate", "--mode", "multiclass", "--input", inp, "--gamma", "0.25", "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        rule = load_kv((out / "rule.kv").read_text(encoding="utf-8"))
        assert rule["rule_type"] == "max-score"

    @pytest.mark.parametrize("header", ["s_2,s_1,label", "s_1,note,s_2,label", "s_1,s_3,label"])
    def test_score_vector_header_out_of_order(self, tmp_path, capsys, header):
        # s_2,s_1,label used to be read as given: every row scored against the wrong class, exit 0
        inp = write_csv(tmp_path / "cal.csv", f"{header}\n0.8,0.2,1\n0.3,0.7,2\n")
        out = tmp_path / "out"
        code = main(["calibrate", "--mode", "multiclass", "--input", inp, "--gamma", "0.25", "--out-dir", str(out)])
        assert code == EXIT_USAGE
        assert f"expected header s_1,...,s_K,label, got {header.split(',')!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_label_above_the_score_columns(self, tmp_path, capsys):
        # used to calibrate with exit 0, counting the row labelled 3 as a mistake
        inp = write_csv(tmp_path / "cal.csv", "s_1,s_2,label\n0.8,0.2,1\n0.3,0.7,3\n0.4,0.6,2\n")
        out = tmp_path / "out"
        code = main(["calibrate", "--mode", "multiclass", "--input", inp, "--gamma", "0.25", "--out-dir", str(out)])
        assert code == EXIT_USAGE
        assert "label 3 exceeds K = 2, the number of score columns" in capsys.readouterr().err
        assert not out.exists()

    def test_mlr_np_mode(self, tmp_path):
        lines = ["x,label"]
        lines += [f"{-3 + 0.1 * i:.2f},1" for i in range(20)]
        lines += [f"{1 + 0.1 * i:.2f},2" for i in range(20)]
        inp = write_csv(tmp_path / "cal.csv", "\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(
            [
                "calibrate", "--mode", "mlr-np", "--input", inp, "--alpha1", "0.1", "--alpha2", "0.1",
                "--out-dir", str(out), "--trace",
            ]
        )
        assert code == EXIT_OK
        rule = load_kv((out / "rule.kv").read_text(encoding="utf-8"))
        assert rule["rule_type"] == "mlr-np"
        assert rule["tau2"] <= rule["tau1"]
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "k,gamma,k_tilde,type1_count,type2,valid"
        assert len(trace) == 1 + 41  # one row per k in 0..n
        assert trace[1].startswith("0,0,") and trace[-1].startswith("40,1,")


class TestApplyCommand:
    def rule_file(self, tmp_path, entries):
        from indecide.kvdoc import write_kv

        path = tmp_path / "rule.kv"
        write_kv(entries, path)
        return str(path)

    def test_selective_binary(self, tmp_path):
        rule = self.rule_file(tmp_path, {"rule_type": "selective-binary", "tau": 0.8})
        inp = write_csv(tmp_path / "scores.csv", "score\n0.9\n0.7\n0.15\n")
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--rule", rule, "--input", inp, "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "decision"
        assert lines[1:4] == ["1", "abstain", "2"]
        assert lines[4].startswith("# abstention_fraction = 0.33333333333333331")
        assert lines[4].endswith("rows = 3")

    def test_np_rule(self, tmp_path):
        rule = self.rule_file(tmp_path, {"rule_type": "np", "tau1": 0.2, "tau2": 0.6})
        inp = write_csv(tmp_path / "scores.csv", "score\n0.1\n0.4\n0.9\n")
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--rule", rule, "--input", inp, "--output", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[1:4] == ["2", "abstain", "1"]

    def test_empty_input(self, tmp_path):
        rule = self.rule_file(tmp_path, {"rule_type": "selective-binary", "tau": 0.8})
        inp = write_csv(tmp_path / "scores.csv", "score\n")
        out = tmp_path / "decisions.csv"
        code = main(["apply", "--rule", rule, "--input", inp, "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[-1].endswith("rows = 0")

    def test_header_mismatch(self, tmp_path):
        rule = self.rule_file(tmp_path, {"rule_type": "mlr-symmetric", "tau": 0.5})
        inp = write_csv(tmp_path / "scores.csv", "score\n0.4\n")
        code = main(["apply", "--rule", rule, "--input", inp, "--output", str(tmp_path / "d.csv")])
        assert code == EXIT_USAGE

    def test_unknown_rule_type(self, tmp_path):
        rule = self.rule_file(tmp_path, {"rule_type": "mystery", "tau": 0.5})
        inp = write_csv(tmp_path / "scores.csv", "score\n0.4\n")
        code = main(["apply", "--rule", rule, "--input", inp, "--output", str(tmp_path / "d.csv")])
        assert code == EXIT_USAGE

    # input apply would have decided on silently: np 1.5 -> 1, -3 -> 2, inf -> 1, nan -> abstain
    @pytest.mark.parametrize("score", ["1.5", "-3", "inf", "nan"])
    def test_np_rule_rejects_score_outside_unit_interval(self, tmp_path, capsys, score):
        rule = self.rule_file(tmp_path, {"rule_type": "np", "tau1": 0.2, "tau2": 0.6})
        inp = write_csv(tmp_path / "scores.csv", f"score\n0.4\n{score}\n")
        out = tmp_path / "d.csv"
        assert main(["apply", "--rule", rule, "--input", inp, "--output", str(out)]) == EXIT_USAGE
        assert "scores must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [("0.9,0.9", "sum to 1"), ("nan,0.5", "finite"), ("0.5,nan", "finite"), ("-0.5,1.5", "nonnegative")],
    )
    def test_max_score_rule_rejects_bad_vector(self, tmp_path, capsys, row, message):
        rule = self.rule_file(tmp_path, {"rule_type": "max-score", "tau": 0.6})
        inp = write_csv(tmp_path / "scores.csv", f"s_1,s_2\n0.7,0.3\n{row}\n")
        assert main(["apply", "--rule", rule, "--input", inp, "--output", str(tmp_path / "d.csv")]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("header, message", [
        ("s_1,note,s_2", "K >= 2"),  # read as one score column; note used to be read as s_2
        ("s_2,s_1", "expected header s_1,...,s_K, got ['s_2', 's_1']"),
    ])
    def test_max_score_rule_reads_s_1_to_s_k_in_order(self, tmp_path, capsys, header, message):
        rule = self.rule_file(tmp_path, {"rule_type": "max-score", "tau": 0.6})
        inp = write_csv(tmp_path / "scores.csv", f"{header}\n0.7,0.5,0.3\n")
        out = tmp_path / "d.csv"
        assert main(["apply", "--rule", rule, "--input", inp, "--output", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_mlr_rule_rejects_non_finite_observation(self, tmp_path, capsys, x):
        rule = self.rule_file(tmp_path, {"rule_type": "mlr-np", "tau1": 1.0, "tau2": -1.0})
        inp = write_csv(tmp_path / "xs.csv", f"x\n0.4\n{x}\n")
        assert main(["apply", "--rule", rule, "--input", inp, "--output", str(tmp_path / "d.csv")]) == EXIT_USAGE
        assert "xs must be finite" in capsys.readouterr().err

    def raw_rule_file(self, tmp_path, text):
        path = tmp_path / "rule.kv"
        path.write_text("format_version = 1\n" + text)
        return str(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rule_type = np\ntau1 = 0.2\n", "missing tau2"),
            ("rule_type = max-score\n", "missing tau"),
            ("rule_type = np\ntau1 = 0.2\ntau2 = true\n", "tau2 must be a number"),
            ("rule_type = np\ntau1 = nan\ntau2 = 0.6\n", "tau1 must be a number"),
            ("rule_type = selective-binary\ntau = high\n", "tau must be a number"),
            ("rule_type = np\ntau1 = 0.7\ntau2 = 0.6\n", "tau1 must not exceed tau2"),
            # used to be applied with tau = 0.6, a document dump_kv cannot write
            ("rule_type = selective-binary\ntau = 0.8\ntau = 0.6\n", "line 4: key 'tau' given twice"),
        ],
    )
    def test_malformed_rule_file_fails_with_message(self, tmp_path, capsys, text, message):
        rule = self.raw_rule_file(tmp_path, text)
        inp = write_csv(tmp_path / "scores.csv", "score\n0.4\n")
        assert main(["apply", "--rule", rule, "--input", inp, "--output", str(tmp_path / "d.csv")]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_rule_file_of_another_format_version(self, tmp_path, capsys):
        # used to be applied: a document dump_kv cannot write
        rule = tmp_path / "rule.kv"
        rule.write_text("format_version = 2\nrule_type = selective-binary\ntau = 0.8\n")
        inp = write_csv(tmp_path / "scores.csv", "score\n0.4\n")
        out = tmp_path / "d.csv"
        assert main(["apply", "--rule", str(rule), "--input", inp, "--output", str(out)]) == EXIT_USAGE
        assert "line 1: format_version '2' is not 1" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_thresholds_load(self, tmp_path):
        # calibrators write them: an empty class-2 block and an all-abstaining rule
        rule = self.raw_rule_file(tmp_path, "rule_type = np\ntau1 = -inf\ntau2 = inf\n")
        inp = write_csv(tmp_path / "scores.csv", "score\n0.0\n1.0\n")
        out = tmp_path / "d.csv"
        assert main(["apply", "--rule", rule, "--input", inp, "--output", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[1:3] == ["abstain", "abstain"]


class TestOracleCommand:
    def test_gamma_query(self, capsys):
        code = main(["oracle", "--delta", "1.0", "--gamma", "0.3"])
        assert code == EXIT_OK
        out = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["gamma"]) == pytest.approx(0.3, abs=1e-9)
        assert 0.0 < float(out["risk"]) < float(out["gamma_complement"])

    def test_infeasible_target(self, capsys):
        # a nonpositive target cannot be reached by any finite abstention
        for target in ("-0.5", "0"):
            code = main(["oracle", "--delta", "1.0", "--target-risk", target])
            assert code == EXIT_INFEASIBLE
        # a target outside (0, 1) on the high side, or NaN, is a usage error
        for target in ("1.5", "nan"):
            code = main(["oracle", "--delta", "1.0", "--target-risk", target])
            assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == "error: target_risk must lie in (0, 1)"

    def test_nan_threshold(self, capsys):
        # NaN used to recurse without end in the normal tail
        assert main(["oracle", "--delta", "1.0", "--t", "nan"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: threshold t must be nonnegative\n"

    def test_targets_where_both_tails_underflow(self, capsys):
        # both used to divide 0 by 0 inside the bisection
        assert main(["oracle", "--delta", "0.1", "--target-risk", "0.001"]) == EXIT_OK
        out = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
        assert out["t"] == "34.50484085339793"
        assert float(out["risk"]) == pytest.approx(0.001, rel=1e-12)
        assert float(out["risk"]) <= 0.001
        # the risk is 0.0286 where 1 - gamma underflows, above the target
        assert main(["oracle", "--delta", "0.05", "--target-risk", "0.01"]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("infeasible: ")


class TestExperimentCommand:
    def small_config(self, tmp_path):
        from indecide.kvdoc import write_kv

        path = tmp_path / "cfg.kv"
        write_kv(
            {"reps": 3, "n_train": 100, "n_cal": 100, "n_test": 100, "delta_grid": "1.0"},
            path,
        )
        return str(path)

    def test_accuracy_sweep_outputs(self, tmp_path):
        cfg = self.small_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["experiment", "accuracy-sweep", "--config", cfg, "--out-dir", str(out), "--seed", "9"]
        )
        assert code == EXIT_OK
        for name in ("accuracy-sweep_rows.csv", "accuracy-sweep_aggregates.csv", "accuracy-sweep.svg", "manifest.kv"):
            assert (out / name).exists()
        manifest = load_kv((out / "manifest.kv").read_text(encoding="utf-8"))
        assert manifest["seed"] == 9
        assert "sha256_cfg.kv" in manifest

    def test_seeded_reruns_byte_identical(self, tmp_path):
        cfg = self.small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["experiment", "np-sweep", "--config", cfg, "--out-dir", str(out), "--seed", "9"]) == EXIT_OK
        assert (out1 / "np-sweep_rows.csv").read_bytes() == (out2 / "np-sweep_rows.csv").read_bytes()
        assert (out1 / "np-sweep_aggregates.csv").read_bytes() == (out2 / "np-sweep_aggregates.csv").read_bytes()

    def test_worker_env_is_ignored(self, tmp_path, monkeypatch):
        # no environment variable sets the worker count: only --workers does
        cfg = self.small_config(tmp_path)
        monkeypatch.setenv("INDECIDE_WORKERS", "lots")
        out = tmp_path / "o"
        assert main(["experiment", "accuracy-sweep", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
        assert load_kv((out / "manifest.kv").read_text(encoding="utf-8"))["workers_requested"] == 1

    @pytest.mark.parametrize("study", ["accuracy-sweep", "phase"])
    @pytest.mark.parametrize("flag", [["--workers", "0"], ["--workers", "-3"]], ids=["flag-zero", "flag-negative"])
    def test_worker_count_below_one(self, tmp_path, capsys, flag, study):
        # checked before the config, which phase would reject for its sizes
        cfg = self.small_config(tmp_path)
        out = tmp_path / "o"
        code = main(["experiment", study, "--config", cfg, "--out-dir", str(out), *flag])
        assert code == EXIT_USAGE
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "study, config, workers, pools",
        [("accuracy-sweep", None, 8, [3]), ("phase", {"grid_points": 4}, 5, [])],
        ids=["capped-at-reps", "phase-pool-from-cpus"],
    )
    def test_workers_requested_is_the_flag_as_given(
        self, tmp_path, monkeypatch, process_pools, study, config, workers, pools
    ):
        from indecide.kvdoc import write_kv

        cfg = self.small_config(tmp_path)
        if config:
            write_kv(config, cfg)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # phase runs one process per panel, up to this
        out = tmp_path / "o"
        assert main(["experiment", study, "--config", cfg, "--out-dir", str(out), "--workers", str(workers)]) == EXIT_OK
        assert [size for size, _, _ in process_pools] == pools
        assert load_kv((out / "manifest.kv").read_text(encoding="utf-8"))["workers_requested"] == workers

    def test_unknown_config_key(self, tmp_path):
        from indecide.kvdoc import write_kv

        path = tmp_path / "cfg.kv"
        write_kv({"repz": 3}, path)
        code = main(["experiment", "accuracy-sweep", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "study, key",
        [
            ("phase", "repz"),
            ("phase", "reps"),
            ("consistency-trend", "repz"),
            ("consistency-trend", "grid_points"),
            ("consistency-trend", "n_train"),
            ("consistency-trend", "delta_grid"),
        ],
    )
    def test_unknown_config_key_of_phase_and_consistency_trend(self, tmp_path, capsys, study, key):
        from indecide.kvdoc import write_kv

        path = tmp_path / "cfg.kv"
        write_kv({key: 3}, path)
        code = main(["experiment", study, "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "study, key",
        [
            *[("intro-tradeoff", key) for key in ("n_train", "n_cal", "alpha", "alpha1", "alpha2", "scorer")],
            ("accuracy-sweep", "alpha1"),
            ("accuracy-sweep", "alpha2"),
            ("np-sweep", "alpha"),
        ],
    )
    def test_a_study_rejects_the_keys_it_does_not_read(self, tmp_path, capsys, study, key):
        # these used to be checked, then ignored
        cfg = tmp_path / "cfg.kv"
        cfg.write_text(f"format_version = 1\nreps = 1\n{key} = 0.2\n")
        out = tmp_path / "out"
        assert main(["experiment", study, "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "study, text, message",
        [
            ("np-sweep", "reps = 3\n", "format_version"),
            ("phase", "grid_points = 3\n", "format_version"),
            ("consistency-trend", "format_version = 1\nreps = 0\n", "reps must be at least 1"),
            # these used to run 2 replications: documents dump_kv cannot write
            ("intro-tradeoff", "format_version = 7\nreps = 2\n", "line 1: format_version '7' is not 1"),
            ("intro-tradeoff", "format_version = 1\nreps = 50\nreps = 2\n", "line 3: key 'reps' given twice"),
        ],
    )
    def test_rejected_config_leaves_no_output_directory(self, tmp_path, capsys, study, text, message):
        cfg = tmp_path / "bad.kv"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["experiment", study, "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "study, text, message",
        [
            # these used to run 2 replications, a 3-point grid and 1 replication
            ("accuracy-sweep", "reps = 2.5", "config key 'reps' must be an integer: 2.5"),
            ("accuracy-sweep", "n_cal = true", "config key 'n_cal' must be an integer: True"),
            ("accuracy-sweep", "alpha = false", "config key 'alpha' must be a number: False"),
            ("phase", "grid_points = 3.9", "config key 'grid_points' must be an integer: 3.9"),
            ("phase", "grid_points = inf", "config key 'grid_points' must be an integer: inf"),
            ("consistency-trend", "reps = true", "config key 'reps' must be an integer: True"),
            ("consistency-trend", "reps = 3x", "config key 'reps' must be an integer: '3x'"),
            # an int beyond the largest float, which float() cannot convert
            pytest.param(
                "accuracy-sweep", "alpha = 1" + "0" * 400, "config key 'alpha' must be a number: 1000", id="alpha-overflow"
            ),
            # an int too large for an index, which range(reps) cannot hold
            pytest.param(
                "accuracy-sweep",
                "reps = 1" + "0" * 20,
                f"config key 'reps' must be at most {sys.maxsize} in magnitude: 1{'0' * 20}",
                id="reps-overflow",
            ),
            # these used to fail in the LDA fit, or without naming the key
            pytest.param("np-sweep", "delta_grid = nan", "delta_grid must be nonempty with finite", id="delta-nan"),
            pytest.param("np-sweep", "delta_grid = 1.0;inf", "delta_grid must be nonempty with finite", id="delta-inf"),
            pytest.param("np-sweep", "delta_grid = 0.5;abc", "config key 'delta_grid' must be", id="delta-text"),
        ],
    )
    def test_config_value_of_the_wrong_type(self, tmp_path, capsys, study, text, message):
        cfg = tmp_path / "cfg.kv"
        cfg.write_text(f"format_version = 1\n{text}\n")
        out = tmp_path / "out"
        assert main(["experiment", study, "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study", ["accuracy-sweep", "np-sweep", "intro-tradeoff"])
    def test_seed_comes_only_from_the_flag(self, tmp_path, capsys, study):
        # a config seed used to win over --seed while the manifest recorded --seed
        cfg = tmp_path / "cfg.kv"
        cfg.write_text("format_version = 1\nreps = 1\nseed = 5\n")
        out = tmp_path / "out"
        assert main(["experiment", study, "--config", str(cfg), "--out-dir", str(out), "--seed", "0"]) == EXIT_USAGE
        assert "unknown config key 'seed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, reps", [("", 1000), ("reps = 3\n", 3)], ids=["full", "config-wins"])
    def test_full_consistency_trend(self, tmp_path, monkeypatch, text, reps):
        # --full used to leave consistency-trend at 100 replications
        from indecide import cli

        real, calls = cli.run_consistency_trend, []

        def record(cfg, **kwargs):
            calls.append(cfg)
            return real(dataclasses.replace(cfg, reps=2), **kwargs)

        monkeypatch.setattr(cli, "run_consistency_trend", record)
        cfg = tmp_path / "cfg.kv"
        cfg.write_text(f"format_version = 1\n{text}")
        argv = ["experiment", "consistency-trend", "--config", str(cfg), "--full", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK
        assert [call.reps for call in calls] == [reps]
        assert load_kv((tmp_path / "o" / "manifest.kv").read_text(encoding="utf-8"))["full"] is True

    @pytest.mark.skipif(sys.platform == "win32", reason="needs SIGKILL")
    def test_killed_worker_fails_the_command(self, tmp_path):
        from indecide.kvdoc import write_kv

        cfg = tmp_path / "cfg.kv"
        write_kv({"reps": 2}, cfg)
        script = tmp_path / "killed_worker.py"
        script.write_text(KILLED_WORKER_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        argv = ["experiment", "consistency-trend", "--config", str(cfg), "--workers", "2", "--out-dir", "o"]
        # a pool that waits for the dead worker hangs here until the timeout fails the test
        done = subprocess.run(
            [sys.executable, str(script), *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == EXIT_USAGE, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: a worker process died"), done.stderr

    def test_phase_panels(self, tmp_path):
        from indecide.kvdoc import write_kv

        cfg = tmp_path / "cfg.kv"
        write_kv({"grid_points": 8}, cfg)
        out = tmp_path / "out"
        code = main(["experiment", "phase", "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_OK
        for name in ("phase_lower.csv", "phase_upper.csv", "phase_lower.svg", "phase_upper.svg"):
            assert (out / name).exists()

    def test_phase_outputs_match_golden_files(self, tmp_path):
        # tests/data/phase_*_golden.csv were written by the per-cell implementation
        # (one PhaseCell object per cell) at grid_points = 12; the SVGs draw one rect
        # per run of equal colour, and phase_*_percell.svg keep one rect per cell
        from indecide.kvdoc import write_kv

        cfg = tmp_path / "cfg.kv"
        write_kv({"grid_points": 12}, cfg)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["experiment", "phase", "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_OK
        for panel in ("lower", "upper"):
            for ext in ("csv", "svg"):
                golden = DATA / f"phase_{panel}_golden.{ext}"
                assert (out / f"phase_{panel}.{ext}").read_bytes() == golden.read_bytes()
        # the solver diagnostics stay out of the manifest
        assert set(load_kv((out / "manifest.kv").read_text(encoding="utf-8"))) == {
            "format_version",
            "full",
            "inputs",
            "outputs",
            "seed",
            "sha256_cfg.kv",
            "subcommand",
            "toolkit_version",
            "workers_requested",
        }

    def test_phase_same_bytes_at_one_and_two_cpus(self, tmp_path, monkeypatch, process_pools):
        from indecide.kvdoc import write_kv

        cfg = tmp_path / "cfg.kv"
        write_kv({"grid_points": 12}, cfg)
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_usable_cpus", lambda n=cpus: n)
            code = main(["experiment", "phase", "--config", str(cfg), "--out-dir", str(tmp_path / f"cpus{cpus}")])
            assert code == EXIT_OK
            # one CPU solves the panels in turn in this process; two give each its own
            assert [size for size, _, _ in process_pools] == ([] if cpus == 1 else [2])
        names = sorted(p.name for p in (tmp_path / "cpus1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "cpus2").iterdir())
        for name in names:
            assert (tmp_path / "cpus1" / name).read_bytes() == (tmp_path / "cpus2" / name).read_bytes(), name

    def test_study_outputs_match_golden_files(self, tmp_path):
        # tests/data/<study>*_golden.* were written by the row-dict studies
        # (csv-module writer, dict aggregator) that the columnar ones replaced
        from indecide.kvdoc import write_kv

        sim_cfg, intro_cfg, reps_cfg = tmp_path / "sim.kv", tmp_path / "intro.kv", tmp_path / "reps.kv"
        write_kv({"reps": 4, "n_train": 200, "n_cal": 200, "n_test": 200, "delta_grid": "0.5;1.5"}, sim_cfg)
        write_kv({"reps": 4, "n_test": 200, "delta_grid": "0.5;1.5"}, intro_cfg)  # only the keys it reads
        write_kv({"reps": 4}, reps_cfg)
        configs = {"intro-tradeoff": intro_cfg, "consistency-trend": reps_cfg}
        for study in ("accuracy-sweep", "np-sweep", "intro-tradeoff", "consistency-trend"):
            cfg = configs.get(study, sim_cfg)
            out = tmp_path / study
            argv = ["experiment", study, "--config", str(cfg), "--seed", "11", "--workers", "1", "--out-dir", str(out)]
            assert main(argv) == EXIT_OK
            for name in (f"{study}_rows.csv", f"{study}_aggregates.csv", f"{study}.svg"):
                stem, ext = name.rsplit(".", 1)
                assert (out / name).read_bytes() == (DATA / f"{stem}_golden.{ext}").read_bytes(), name


class TestManifestHashes:
    # sha256_<name> is the hash of the bytes the command parsed: a second read of
    # the path would see an empty pipe, or wait for a FIFO writer that never comes
    @staticmethod
    def serve(path, data, source):
        """data as a file at path, a FIFO at path fed by a thread, or standard input:
        (the path to give the command, its standard input, the thread or None)."""
        if source == "file":
            path.write_bytes(data)
            return path, None, None
        if source == "stdin":
            if not os.path.exists("/dev/stdin"):
                pytest.skip("needs /dev/stdin")
            return Path("/dev/stdin"), data, None
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        return path, None, writer

    @pytest.mark.parametrize("source", ["file", "fifo", "stdin"])
    def test_calibrate_records_the_input_it_read(self, tmp_path, source):
        data = b"score,label\n0.9,1\n0.8,1\n0.3,2\n0.1,2\n"
        path, stdin, writer = self.serve(tmp_path / "cal.csv", data, source)
        argv = ["calibrate", "--mode", "np", "--input", str(path), "--alpha1", "0.5", "--alpha2", "0.5"]
        done = run_cli([*argv, "--out-dir", "out"], tmp_path, stdin)
        assert done.returncode == EXIT_OK, done.stderr
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        manifest = load_kv((tmp_path / "out" / "manifest.kv").read_text(encoding="utf-8"))
        assert manifest[f"sha256_{path.name}"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("source", ["file", "fifo", "stdin"])
    def test_apply_records_the_rule_and_input_it_read(self, tmp_path, source):
        cal = write_csv(tmp_path / "cal.csv", "score,label\n0.9,1\n0.8,1\n0.3,2\n0.1,2\n")
        argv = ["calibrate", "--mode", "accuracy", "--input", cal, "--alpha", "0.1", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        calibrate_manifest = (tmp_path / "out" / "manifest.kv").read_bytes()
        data = b"score\n0.9\n0.5\n0.1\n"
        path, stdin, writer = self.serve(tmp_path / "scores.csv", data, source)
        argv = ["apply", "--rule", "out/rule.kv", "--input", str(path), "--output", "out/d.csv"]
        done = run_cli(argv, tmp_path, stdin)
        assert done.returncode == EXIT_OK, done.stderr
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        # calibrate's manifest beside the decisions keeps its bytes
        assert (tmp_path / "out" / "manifest.kv").read_bytes() == calibrate_manifest
        manifest = load_kv((tmp_path / "out" / "d.csv.manifest.kv").read_text(encoding="utf-8"))
        assert manifest["sha256_rule.kv"] == hashlib.sha256((tmp_path / "out" / "rule.kv").read_bytes()).hexdigest()
        assert manifest[f"sha256_{path.name}"] == hashlib.sha256(data).hexdigest()
        decisions = (tmp_path / "out" / "d.csv").read_text().splitlines()[1:-1]
        assert (manifest["subcommand"], manifest["rule_type"]) == ("apply", "selective-binary")
        assert (manifest["rows"], manifest["abstained"]) == (3, decisions.count("abstain"))
        assert manifest["outputs"] == "d.csv;d.csv.manifest.kv"

    def test_apply_inputs_of_one_name_are_keyed_by_path(self, tmp_path, monkeypatch):
        # under one key, sha256_data, the input's hash would replace the rule's
        monkeypatch.chdir(tmp_path)
        rule, scores = Path("a/data"), Path("b/data")
        rule_text = "format_version = 1\nrule_type = selective-binary\ntau = 0.8\n"
        for path, text in ((rule, rule_text), (scores, "score\n0.9\n")):
            path.parent.mkdir()
            path.write_text(text)
        assert main(["apply", "--rule", "a/data", "--input", "b/data", "--output", "d.csv"]) == EXIT_OK
        manifest = load_kv(Path("d.csv.manifest.kv").read_text(encoding="utf-8"))
        assert [key for key in manifest if key.startswith("sha256_")] == ["sha256_a/data", "sha256_b/data"]
        for path in (rule, scores):
            assert manifest[f"sha256_{path}"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_names_holding_equals_or_percent_are_recorded(self, tmp_path, monkeypatch):
        # a key cannot hold "=": calibrate used to write rule.kv and report.kv, then exit 1 with an empty manifest.kv
        monkeypatch.chdir(tmp_path)
        cal, scores, config = Path("a=b.csv"), Path("50%=x.csv"), Path("c=d.kv")
        cal.write_text("score,label\n0.9,1\n0.8,1\n0.3,2\n0.1,2\n")
        scores.write_text("score\n0.9\n0.5\n")
        config.write_text("format_version = 1\nreps = 2\n")
        np_flags = ["--mode", "np", "--alpha1", "0.5", "--alpha2", "0.5"]
        apply = ["apply", "--rule", "out/rule.kv", "--input", str(scores), "--output", "d.csv"]
        study = ["experiment", "intro-tradeoff", "--config", str(config), "--out-dir", "e"]
        for argv, manifest, inputs in (
            (["calibrate", "--input", str(cal), *np_flags, "--out-dir", "out"], "out/manifest.kv", {"a%3Db.csv": cal}),
            (apply, "d.csv.manifest.kv", {"rule.kv": Path("out/rule.kv"), "50%25%3Dx.csv": scores}),
            (study, "e/manifest.kv", {"c%3Dd.kv": config}),
        ):
            assert main(argv) == EXIT_OK
            entries = load_kv(Path(manifest).read_text(encoding="utf-8"))
            assert {key: value for key, value in entries.items() if key.startswith("sha256_")} == {
                f"sha256_{key}": hashlib.sha256(path.read_bytes()).hexdigest() for key, path in inputs.items()
            }
            assert entries["inputs"] == ";".join(map(str, inputs.values()))

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_apply_to_a_pipe_writes_no_manifest(self, tmp_path):
        (tmp_path / "rule.kv").write_text("format_version = 1\nrule_type = selective-binary\ntau = 0.8\n")
        (tmp_path / "scores.csv").write_text("score\n0.9\n0.5\n")
        done = run_cli(["apply", "--rule", "rule.kv", "--input", "scores.csv", "--output", "/dev/stdout"], tmp_path)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith(b"decision\n1\nabstain\n")
        assert sorted(os.listdir(tmp_path)) == ["rule.kv", "scores.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_experiment_records_the_config_it_read(self, tmp_path):
        data = b"format_version = 1\nreps = 2\n"
        argv = ["experiment", "intro-tradeoff", "--config", "/dev/stdin", "--out-dir", "out"]
        done = run_cli(argv, tmp_path, data)
        assert done.returncode == EXIT_OK, done.stderr
        manifest = load_kv((tmp_path / "out" / "manifest.kv").read_text(encoding="utf-8"))
        assert manifest["sha256_stdin"] == hashlib.sha256(data).hexdigest()


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().out.lower()

    def test_unreadable_input(self, tmp_path):
        code = main(
            ["calibrate", "--mode", "accuracy", "--input", str(tmp_path / "missing.csv"), "--alpha", "0.1", "--out-dir", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE
