"""End-to-end tests for the command-line interface."""

import warnings
from pathlib import Path

import pytest

from indecide.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from indecide.kvdoc import read_kv

DATA = Path(__file__).parent / "data"


def write_csv(path, text):
    path.write_text(text)
    return str(path)


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
        rule = read_kv(out / "rule.kv")
        assert rule["rule_type"] == "selective-binary"
        assert rule["tau"] == pytest.approx(0.8)
        report = read_kv(out / "report.kv")
        assert report["gamma_hat"] == pytest.approx(0.4)
        assert report["feasible"] is True
        assert report["achieved_conditional_error"] == 0.0
        manifest = read_kv(out / "manifest.kv")
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
        rule = read_kv(out / "rule.kv")
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

    def test_missing_target_flag(self, tmp_path):
        inp = write_csv(tmp_path / "cal.csv", "score,label\n0.9,1\n0.1,2\n")
        code = main(
            ["calibrate", "--mode", "np", "--input", inp, "--alpha1", "0.1", "--out-dir", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE

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
        rule = read_kv(out / "rule.kv")
        assert rule["rule_type"] == "max-score"

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
        rule = read_kv(out / "rule.kv")
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
        ],
    )
    def test_malformed_rule_file_fails_with_message(self, tmp_path, capsys, text, message):
        rule = self.raw_rule_file(tmp_path, text)
        inp = write_csv(tmp_path / "scores.csv", "score\n0.4\n")
        assert main(["apply", "--rule", rule, "--input", inp, "--output", str(tmp_path / "d.csv")]) == EXIT_USAGE
        assert message in capsys.readouterr().err

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
        # a target outside (0, 1) on the high side is a usage error
        code = main(["oracle", "--delta", "1.0", "--target-risk", "1.5"])
        assert code == EXIT_USAGE


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
        manifest = read_kv(out / "manifest.kv")
        assert manifest["seed"] == 9
        assert "sha256_cfg.kv" in manifest

    def test_seeded_reruns_byte_identical(self, tmp_path):
        cfg = self.small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["experiment", "np-sweep", "--config", cfg, "--out-dir", str(out), "--seed", "9"]) == EXIT_OK
        assert (out1 / "np-sweep_rows.csv").read_bytes() == (out2 / "np-sweep_rows.csv").read_bytes()
        assert (out1 / "np-sweep_aggregates.csv").read_bytes() == (out2 / "np-sweep_aggregates.csv").read_bytes()

    def test_worker_env_fallback(self, tmp_path, monkeypatch):
        cfg = self.small_config(tmp_path)
        monkeypatch.setenv("INDECIDE_WORKERS", "2")
        serial = tmp_path / "serial"
        env2 = tmp_path / "env2"
        assert main(["experiment", "accuracy-sweep", "--config", cfg, "--out-dir", str(serial), "--workers", "1"]) == EXIT_OK
        assert main(["experiment", "accuracy-sweep", "--config", cfg, "--out-dir", str(env2)]) == EXIT_OK
        assert (serial / "accuracy-sweep_rows.csv").read_bytes() == (env2 / "accuracy-sweep_rows.csv").read_bytes()

    def test_bad_worker_env(self, tmp_path, monkeypatch):
        cfg = self.small_config(tmp_path)
        monkeypatch.setenv("INDECIDE_WORKERS", "lots")
        code = main(["experiment", "accuracy-sweep", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, env",
        [(["--workers", "0"], None), (["--workers", "-3"], None), ([], "0")],
        ids=["flag-zero", "flag-negative", "env-zero"],
    )
    def test_worker_count_below_one(self, tmp_path, monkeypatch, capsys, flag, env):
        cfg = self.small_config(tmp_path)
        if env is None:
            monkeypatch.delenv("INDECIDE_WORKERS", raising=False)
        else:
            monkeypatch.setenv("INDECIDE_WORKERS", env)
        out = tmp_path / "o"
        code = main(["experiment", "accuracy-sweep", "--config", cfg, "--out-dir", str(out), *flag])
        assert code == EXIT_USAGE
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        from indecide.kvdoc import write_kv

        path = tmp_path / "cfg.kv"
        write_kv({"repz": 3}, path)
        code = main(["experiment", "accuracy-sweep", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_USAGE

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
        # tests/data/phase_*_golden.* were written by the per-cell implementation
        # (one PhaseCell object per cell) at grid_points = 12
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
        assert set(read_kv(out / "manifest.kv")) == {
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

    def test_study_outputs_match_golden_files(self, tmp_path):
        # tests/data/<study>*_golden.* were written by the row-dict studies
        # (csv-module writer, dict aggregator) that the columnar ones replaced
        from indecide.kvdoc import write_kv

        cfg = tmp_path / "cfg.kv"
        write_kv({"reps": 4, "n_train": 200, "n_cal": 200, "n_test": 200, "delta_grid": "0.5;1.5"}, cfg)
        for study in ("accuracy-sweep", "np-sweep", "intro-tradeoff", "consistency-trend"):
            out = tmp_path / study
            argv = ["experiment", study, "--config", str(cfg), "--seed", "11", "--workers", "1", "--out-dir", str(out)]
            assert main(argv) == EXIT_OK
            for name in (f"{study}_rows.csv", f"{study}_aggregates.csv", f"{study}.svg"):
                stem, ext = name.rsplit(".", 1)
                assert (out / name).read_bytes() == (DATA / f"{stem}_golden.{ext}").read_bytes(), name


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().out.lower()

    def test_unreadable_input(self, tmp_path):
        code = main(
            ["calibrate", "--mode", "accuracy", "--input", str(tmp_path / "missing.csv"), "--alpha", "0.1", "--out-dir", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE
