"""The four benchmark workloads: seeded inputs, the operations of one pass,
and the correctness check of every operation's outputs.

All inputs come from the seed alone and are written at set-up; the program
only ever sees the generated files.  Checks compare outputs with what the
library returns on the same arrays, or with an independent reference.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

DELTA = 1.0  # half-separation of the two-component mixture behind every input
ALPHA = 0.1  # every error target: alpha, alpha1 and alpha2
HIGH_PROB_DELTA = 0.05  # exceedance probability of the high-probability type-I budget
NP_SWEEP_DELTAS = (0.5, 1.0, 1.5, 2.0)  # the study's default grid, written out


@dataclass(frozen=True)
class Sizes:
    rows: int  # rows of each cli-1m CSV
    reps: int  # np-sweep replications
    grid_points: int  # phase grid points per axis
    highprob_n: tuple  # calibration sample sizes of the highprob calls


FULL = Sizes(rows=10**6, reps=400, grid_points=500, highprob_n=(1000, 2000, 3000))
TOY = Sizes(rows=1000, reps=4, grid_points=20, highprob_n=(100, 200, 300))


@dataclass
class Op:
    """One timed operation of a pass.

    args are the arguments of the ``indecide`` command, or of
    highprob_child.py when child is set, with paths relative to the work
    directory; inprocess_args replace them when the operation runs inside
    the benchmark process.  outputs are the files and directories it
    writes, and check(work) lists what is wrong with them.
    """

    name: str
    args: list
    expect: int
    outputs: list
    check: Callable[[Path], list]
    child: bool = False
    inprocess_args: Optional[list] = None


# ---------------------------------------------------------------------------
# inputs


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox stream keyed like ``indecide.numerics.seeded_stream``.

    Built here rather than imported so that the inputs do not change when
    the code under test does.
    """
    mask = (1 << 64) - 1
    return np.random.Generator(np.random.Philox(key=(seed & mask) | ((stream_id & mask) << 64)))


def draw(seed: int, stream_id: int, n: int):
    """Labels in {1, 2} with equal priors; class 1 centred at +DELTA, class 2 at -DELTA."""
    rng = stream(seed, stream_id)
    labels = np.where(rng.random(n) < 0.5, 1, 2)
    return np.where(labels == 1, DELTA, -DELTA) + rng.standard_normal(n), labels


def oracle_eta(x: np.ndarray) -> np.ndarray:
    """Exact class-1 posterior of the mixture."""
    return expit(2.0 * DELTA * x)


def write_csv(path: Path, header: str, *columns: np.ndarray) -> None:
    """Floats with 17 significant digits, so parsing gives back the same doubles."""
    fmt = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write("".join(map(fmt.format, *(c.tolist() for c in columns))))


def write_config(path: Path, entries: dict) -> None:
    lines = [f"{key} = {value}" for key, value in sorted({**entries, "format_version": 1}.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# checks


def read_kv(path: Path) -> dict:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def encode(value) -> str:
    """A value as the package's key-value files write it."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def check_report(out_dir: Path, report) -> list:
    """rule.kv and report.kv hold exactly what the library returned."""
    try:
        rule_kv, report_kv = read_kv(out_dir / "rule.kv"), read_kv(out_dir / "report.kv")
    except OSError as exc:
        return [f"cannot read the rule or report: {exc}"]
    rule = {key: encode(value) for key, value in vars(report.rule).items()}
    expected = {
        **rule,
        "gamma_hat": encode(report.gamma_hat),
        "feasible": encode(report.feasible),
        **{f"achieved_{key}": encode(value) for key, value in report.achieved.items()},
    }
    meta = ("format_version", "rule_type")
    problems = []
    got_rule = {k: v for k, v in rule_kv.items() if k not in meta}
    if got_rule != rule:
        problems.append(f"{out_dir.name}/rule.kv has {got_rule}, the library returned {rule}")
    got_report = {k: v for k, v in report_kv.items() if k not in meta}
    if got_report != expected:
        diff = sorted(k for k in expected.keys() | got_report.keys() if expected.get(k) != got_report.get(k))
        problems.append(f"{out_dir.name}/report.kv differs from the library at {diff}")
    if "rule_type" not in rule_kv or rule_kv.get("rule_type") != report_kv.get("rule_type"):
        problems.append(f"{out_dir.name}: rule_type missing or different in rule.kv and report.kv")
    return problems


def data_rows(path: Path) -> int:
    """Lines after the header."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def check_rows(path: Path, expected: int) -> list:
    try:
        rows = data_rows(path)
    except OSError as exc:
        return [str(exc)]
    return [] if rows == expected else [f"{path.name} has {rows} data rows, expected {expected}"]


def check_svg(path: Path) -> list:
    try:
        with open(path, "rb") as fh:
            fh.seek(max(0, path.stat().st_size - 16))
            tail = fh.read()
    except OSError as exc:
        return [str(exc)]
    return [] if tail.rstrip().endswith(b"</svg>") else [f"{path.name} is not a complete SVG"]


_FOOTER = re.compile(rb"# abstention_fraction = (\S+); rows = (\d+)")


def check_decisions(path: Path, expected: np.ndarray) -> list:
    """One decision per input row, equal to rule.apply on the same scores."""
    try:
        lines = path.read_bytes().split(b"\n")
    except OSError as exc:
        return [str(exc)]
    n = len(expected)
    if len(lines) != n + 3 or lines[0] != b"decision" or lines[-1] != b"":
        return [f"{path.name}: expected a header, {n} decisions and a footer"]
    body = np.array(lines[1 : n + 1])
    try:
        got = np.where(body == b"abstain", b"0", body).astype(int)
    except ValueError as exc:
        return [f"{path.name}: unreadable decision: {exc}"]
    problems = []
    wrong = int(np.count_nonzero(got != expected))
    if wrong:
        problems.append(f"{path.name}: {wrong} of {n} decisions differ from rule.apply")
    footer = _FOOTER.fullmatch(lines[n + 1])
    fraction = float((expected == 0).mean())
    if footer is None or float(footer.group(1)) != fraction or int(footer.group(2)) != n:
        problems.append(f"{path.name}: footer {lines[n + 1][:80]!r} does not state fraction {fraction!r}, rows {n}")
    return problems


def type1_budget(n1: int, level: float) -> int:
    """High-probability type-I budget: the order-statistic rank of the NP umbrella
    algorithm (Tong, Feng & Li, Sci. Adv. 2018), written independently of the package.

    The largest count j <= floor(level * n1) whose binomial CDF at j - 1 is at
    most HIGH_PROB_DELTA under Binomial(n1, level).
    """
    from scipy.stats import binom

    j = math.floor(level * n1)
    while j > 0 and binom.cdf(j - 1, n1, level) > HIGH_PROB_DELTA:
        j -= 1
    return j


# ---------------------------------------------------------------------------
# workloads


def _exit_code(report) -> int:
    return 0 if report.feasible else 2


class CliWorkload:
    """Five ``indecide`` commands in a row on three 10^6-row CSVs."""

    name = "cli-1m"
    warm = "import indecide.cli"
    note = ""

    def setup(self, work: Path, seed: int, sizes: Sizes) -> None:
        n = sizes.rows
        x, self.labels = draw(seed, 0, n)
        self.scores = oracle_eta(x)
        self.new_scores = oracle_eta(draw(seed, 1, n)[0])
        x_mlr, self.mlr_labels = draw(seed, 2, n)
        # the mlr-np mode needs class 2 on the right; drawn as above, class 2
        # is on the left and the calibration is infeasible (exit code 2)
        self.xs = -x_mlr
        write_csv(work / "inputs" / "cal.csv", "score,label", self.scores, self.labels)
        write_csv(work / "inputs" / "new.csv", "score", self.new_scores)
        write_csv(work / "inputs" / "mlr.csv", "x,label", self.xs, self.mlr_labels)

    def ops(self, seed: int, sizes: Sizes) -> list:
        from indecide.calibration import CalibrationSample, calibrate_accuracy, calibrate_np, calibrate_np_mlr

        cal = CalibrationSample(scores=self.scores, labels=self.labels)
        ref_np = calibrate_np(cal, ALPHA, ALPHA)
        ref_acc = calibrate_accuracy(cal, ALPHA)
        ref_mlr = calibrate_np_mlr(CalibrationSample(xs=self.xs, labels=self.mlr_labels), ALPHA, ALPHA)
        decisions = ref_np.rule.apply(self.new_scores)
        a = repr(ALPHA)
        np_args = ["calibrate", "--mode", "np", "--input", "inputs/cal.csv", "--alpha1", a, "--alpha2", a]
        return [
            Op("calibrate_np", np_args + ["--out-dir", "out/np"], _exit_code(ref_np), ["out/np"],
               lambda w: check_report(w / "out/np", ref_np)),
            Op("calibrate_np_trace", np_args + ["--out-dir", "out/np-trace", "--trace"], _exit_code(ref_np),
               ["out/np-trace"],
               lambda w: check_report(w / "out/np-trace", ref_np) + check_rows(w / "out/np-trace/trace.csv", sizes.rows + 1)),
            Op("calibrate_accuracy",
               ["calibrate", "--mode", "accuracy", "--input", "inputs/cal.csv", "--alpha", a, "--out-dir", "out/accuracy"],
               _exit_code(ref_acc), ["out/accuracy"], lambda w: check_report(w / "out/accuracy", ref_acc)),
            Op("calibrate_mlr_np",
               ["calibrate", "--mode", "mlr-np", "--input", "inputs/mlr.csv", "--alpha1", a, "--alpha2", a,
                "--out-dir", "out/mlr-np"],
               _exit_code(ref_mlr), ["out/mlr-np"], lambda w: check_report(w / "out/mlr-np", ref_mlr)),
            Op("apply", ["apply", "--rule", "out/np/rule.kv", "--input", "inputs/new.csv", "--output", "out/decisions.csv"],
               0, ["out/decisions.csv"], lambda w: check_decisions(w / "out/decisions.csv", decisions)),
        ]


class NpSweepWorkload:
    """The seeded type I / type II study at 2 workers."""

    name = "np-sweep"
    warm = "import indecide.cli"
    note = ("the traced run uses --workers 1: spawned workers are out of reach of "
            "the outside-in wrappers (the study's rows are the same at any worker count)")

    def setup(self, work: Path, seed: int, sizes: Sizes) -> None:
        write_config(work / "inputs" / "np-sweep.kv",
                     {"reps": sizes.reps, "delta_grid": ";".join(map(repr, NP_SWEEP_DELTAS))})

    def ops(self, seed: int, sizes: Sizes) -> list:
        args = ["experiment", "np-sweep", "--config", "inputs/np-sweep.kv", "--out-dir", "out/np-sweep",
                "--seed", str(seed), "--workers"]
        cells = len(NP_SWEEP_DELTAS) * 3  # three arms per delta

        def check(work: Path) -> list:
            out = work / "out/np-sweep"
            return (check_rows(out / "np-sweep_rows.csv", sizes.reps * cells)
                    + check_rows(out / "np-sweep_aggregates.csv", cells)
                    + check_svg(out / "np-sweep.svg"))

        return [Op("np_sweep", args + ["2"], 0, ["out/np-sweep"], check, inprocess_args=args + ["1"])]


class PhaseWorkload:
    """The phase-diagram study at grid_points per axis."""

    name = "phase"
    warm = "import indecide.cli"
    note = ""

    def setup(self, work: Path, seed: int, sizes: Sizes) -> None:
        write_config(work / "inputs" / "phase.kv", {"grid_points": sizes.grid_points})

    def ops(self, seed: int, sizes: Sizes) -> list:
        def check(work: Path) -> list:
            out = work / "out/phase"
            return [p for panel in ("lower", "upper")
                    for p in check_rows(out / f"phase_{panel}.csv", sizes.grid_points**2)
                    + check_svg(out / f"phase_{panel}.svg")]

        args = ["experiment", "phase", "--config", "inputs/phase.kv", "--out-dir", "out/phase"]
        return [Op("phase", args, 0, ["out/phase"], check)]


class HighprobWorkload:
    """calibrate_np with the high-probability type-I budget, in a child process."""

    name = "highprob"
    warm = "import indecide.calibration, scipy.stats"
    note = "highprob times the three calls inside the child; the child's import is not timed"

    def setup(self, work: Path, seed: int, sizes: Sizes) -> None:
        self.samples = {}
        for i, n in enumerate(sizes.highprob_n):
            x, labels = draw(seed, 10 + i, n)
            self.samples[n] = (oracle_eta(x), labels)
        arrays = {f"{kind}_{n}": a for n, pair in self.samples.items() for kind, a in zip(("scores", "labels"), pair)}
        np.savez(work / "inputs" / "highprob.npz", **arrays)

    def ops(self, seed: int, sizes: Sizes) -> list:
        def check(work: Path) -> list:
            try:
                results = json.loads((work / "out/highprob.json").read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                return [f"highprob.json: {exc}"]
            problems = []
            for n, (_, labels) in self.samples.items():
                r = results.get(str(n))
                if r is None:
                    problems.append(f"n={n}: no result")
                    continue
                n1 = int((labels == 1).sum())
                budget = type1_budget(n1, (1.0 - r["gamma_hat"]) * ALPHA)
                count = r["type1_count"]
                if count > budget:
                    problems.append(f"n={n}: {count} class-1 points decided as class 2, budget {budget}")
                if r["achieved"].get("type1_marginal") != count / n1:
                    problems.append(f"n={n}: reported type1_marginal {r['achieved'].get('type1_marginal')} "
                                    f"but rule.apply gives {count}/{n1}")
            return problems

        return [Op("highprob", ["inputs/highprob.npz", "out/highprob.json", "logs/highprob-timing.json"], 0,
                   ["out/highprob.json"], check, child=True)]


WORKLOADS = {w.name: w for w in (CliWorkload, NpSweepWorkload, PhaseWorkload, HighprobWorkload)}
