"""Smoke test of the benchmark itself, at toy sizes (about a minute).

    python3 -m pytest -q perfbench/smoke.py     # or: python3 perfbench/smoke.py

It is not named test_*.py, so the package's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = ["--seed", "5", "--seconds", "1", "--size", "toy"]


def bench(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, *TOY], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def assert_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_every_metric_is_printed_with_its_unit():
    for workload in SPEC["workloads"]:
        for trace, spec in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            assert_metrics(bench("--workload", workload["name"], "--trace", trace), spec)


def test_a_corrupted_output_is_a_failed_operation():
    original = run.run_op_subprocess

    def corrupting(procs, op):
        sample = original(procs, op)
        if op.name == "calibrate_np":
            path = procs.work / "out/np/rule.kv"
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join("tau1 = 0.25" if l.startswith("tau1 =") else l for l in lines) + "\n")
        return sample

    run.run_op_subprocess = corrupting
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert run.main(["--workload", "cli-1m", "--trace", "0", *TOY]) == 0
    finally:
        run.run_op_subprocess = original
    lines = stdout.getvalue().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])["record"]
    assert not result["correct"] and result["failed"] > 0
    assert record["named_metrics"]["ops_failed"]["value"] > 0
    assert any("calibrate_np" in f and "rule.kv" in f for f in record["failures"])


def test_tracer_reports_a_missing_name_as_absent_and_restores_originals():
    run.load_package()
    import indecide.cli
    import indecide.gmm

    main, solve = indecide.cli.main, indecide.gmm._solve_t_grid
    del indecide.gmm._solve_t_grid
    tracer = Tracer()
    try:
        tracer.install()
        assert indecide.cli.main is not main
    finally:
        tracer.uninstall()
        indecide.gmm._solve_t_grid = solve
    assert indecide.cli.main is main
    values, absent = layer_metrics(tracer)
    assert "no longer exists" in absent["gmm.solve_s"] and values["gmm.solve_s"] == 0.0
    assert "gmm.cell_build_s" not in absent


def test_without_the_program_it_fails_and_prints_no_result():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "phase", "--trace", "0", *TOY],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
    assert out.returncode != 0 and out.stdout == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
