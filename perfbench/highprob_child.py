"""The highprob workload's operation: three high-probability NP calibrations.

Run as a child process with the package's ``src`` directory on PYTHONPATH:

    python3 perfbench/highprob_child.py INPUTS.npz RESULT.json TIMING.json

RESULT.json holds what the calls returned (compared across passes and
checked by the parent); TIMING.json holds the wall and CPU seconds of the
three calls together.  The benchmark also calls run() in-process for its
traced run.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from workloads import ALPHA, HIGH_PROB_DELTA


def run(inputs_path: Path, result_path: Path) -> tuple[float, float]:
    """Time the three calls, write their results, return (wall, cpu) seconds."""
    import scipy.stats  # noqa: F401  the budget imports it lazily; users pay that once per process

    from indecide import calibration

    with np.load(inputs_path) as npz:
        sizes = sorted(int(key.split("_")[1]) for key in npz.files if key.startswith("scores_"))
        samples = {n: (npz[f"scores_{n}"], npz[f"labels_{n}"]) for n in sizes}
    start, cpu = time.perf_counter(), time.process_time()
    reports = {
        n: calibration.calibrate_np(
            calibration.CalibrationSample(scores=scores, labels=labels),
            ALPHA,
            ALPHA,
            high_prob_delta=HIGH_PROB_DELTA,
        )
        for n, (scores, labels) in samples.items()
    }
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    results = {
        str(n): {
            "rule": {key: float(value) for key, value in vars(report.rule).items()},
            "gamma_hat": report.gamma_hat,
            "feasible": bool(report.feasible),
            "achieved": report.achieved,
            # class-1 points the rule sends to class 2, counted with the public apply
            "type1_count": int(((report.rule.apply(samples[n][0]) == 2) & (samples[n][1] == 1)).sum()),
        }
        for n, report in reports.items()
    }
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(results, sort_keys=True) + "\n", encoding="utf-8")
    return wall, cpu


def main(argv: list) -> int:
    inputs_path, result_path, timing_path = map(Path, argv)
    wall, cpu = run(inputs_path, result_path)
    timing_path.write_text(json.dumps({"seconds": wall, "cpu_seconds": cpu}) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
