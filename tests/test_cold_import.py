"""What a fresh interpreter loads and sets at startup: scipy only where it is
called, one OpenBLAS thread unless the caller chose a count, and for the CLI,
beyond numpy, only the standard library and nine package modules of bounded
size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script: str, cwd: Path) -> dict:
    """Run script in a new interpreter with the package on its path; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


CLI_SCRIPT = """
import json, sys
import indecide.cli
from indecide.cli import main

with open("cal.csv", "w") as fh:
    fh.write("score,label\\n")
    for i in range(20):
        fh.write(f"{(7 * i % 20) / 20 + 0.01},{1 if i % 2 else 2}\\n")
codes = [
    main(["calibrate", "--mode", "np", "--input", "cal.csv", "--alpha1", "0.3", "--alpha2", "0.3",
          "--out-dir", "np", "--trace"]),
    main(["apply", "--rule", "np/rule.kv", "--input", "cal.csv", "--output", "decisions.csv"]),
    main(["calibrate", "--mode", "accuracy", "--input", "cal.csv", "--alpha", "0.4", "--out-dir", "acc"]),
    main(["oracle", "--delta", "1.0", "--gamma", "0.2"]),
    main(["oracle", "--delta", "1.0", "--target-risk", "0.05"]),
]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

SOLVER_SCRIPT = """
import json, sys
import numpy as np
from indecide import gmm

scipy_before = "scipy" in sys.modules
rng = np.random.default_rng(5)
delta = 10.0 ** rng.uniform(-4.0, 1.0, gmm._SOLVE_CHUNK)
target = 10.0 ** rng.uniform(-300.0, -1e-4, gmm._SOLVE_CHUNK)
_, steps = gmm._solve_t_grid(delta, target, True)
print(json.dumps({"scipy_before": scipy_before, "capped": int((steps == 110).sum())}))
"""


def test_cli_commands_run_without_scipy(tmp_path):
    out = run_fresh(CLI_SCRIPT, tmp_path)
    assert out["codes"] == [0, 0, 0, 0, 0]
    # a scipy import at module level anywhere on these paths shows up here
    assert out["scipy"] == []


def test_solver_imports_scipy_on_first_use(tmp_path):
    out = run_fresh(SOLVER_SCRIPT, tmp_path)
    assert out["scipy_before"] is False
    assert out["capped"] > 0


HIGH_PROB_SCRIPT = """
import json, sys
import numpy as np
import indecide.calibration as calibration

at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
rng = np.random.default_rng(9)
scores = rng.random(400)
cal = calibration.CalibrationSample(scores=scores, labels=np.where(rng.random(400) < scores, 1, 2))
first = calibration.calibrate_np(cal, 0.1, 0.3, high_prob_delta=0.05)
stats_loaded = "scipy.stats" in sys.modules
second = calibration.calibrate_np(cal, 0.1, 0.3, high_prob_delta=0.05)
print(json.dumps({"at_import": at_import, "stats_loaded": stats_loaded, "reports": [repr(first), repr(second)]}))
"""


def test_high_prob_budget_imports_scipy_stats_on_first_use(tmp_path):
    out = run_fresh(HIGH_PROB_SCRIPT, tmp_path)
    assert out["at_import"] == []
    assert out["stats_loaded"] is True
    first, second = out["reports"]
    assert first == second


OPENBLAS_SCRIPT = """
import json, os, sys
assert "numpy" not in sys.modules
import indecide.cli
print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_cli_sets_one_openblas_thread_unless_preset(tmp_path, monkeypatch, preset, expected):
    # numpy reads the variable when it is first imported, which the CLI module does
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    assert run_fresh(OPENBLAS_SCRIPT, tmp_path) == expected


COLD_IMPORT_SCRIPT = """
import json, sys
import numpy

before = set(sys.modules)
import indecide.cli

loaded = set(sys.modules) - before
package = sorted(m for m in loaded if m.split(".")[0] not in sys.stdlib_module_names)
lines = 0
for name in package:
    with open(sys.modules[name].__file__, encoding="utf-8") as fh:
        lines += len(fh.read().splitlines())
print(json.dumps({"package": package, "lines": lines}))
"""

# every command compiles these modules from source where no bytecode cache is written
# (PYTHONDONTWRITEBYTECODE), so each line is paid at every start; a change that raises
# the bound says why
COLD_IMPORT_LINES = 2911


def test_cli_import_loads_only_the_stdlib_and_nine_package_modules(tmp_path):
    out = run_fresh(COLD_IMPORT_SCRIPT, tmp_path)
    assert out["package"] == [
        "indecide", "indecide.calibration", "indecide.cli", "indecide.experiments", "indecide.gmm",
        "indecide.kvdoc", "indecide.models", "indecide.numerics", "indecide.svgchart",
    ]
    assert out["lines"] <= COLD_IMPORT_LINES
