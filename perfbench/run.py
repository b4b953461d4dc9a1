#!/usr/bin/env python3
"""Benchmark of the indecide package: four seeded workloads, timed end to end,
checked for correctness, and traced layer by layer in a separate run.

Run from the repository root:

    python3 perfbench/run.py --workload cli-1m --seed 1 --seconds 15 --trace 0

--trace 0 times whole passes over the workload's operations as a user runs
them (one process per command) and prints the end-to-end metrics.  --trace 1
runs the same operations inside this process, untraced and then once with
the outside-in tracer, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is a JSON record of the run: commit,
versions, sizes, every sample, output hashes and any failure.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

import highprob_child
from tracer import LAYER_METRICS, Summary, Tracer, layer_metrics
from workloads import FULL, TOY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # set-ups per timed run; setup_s is their median
RUN_LIMIT_S = 170  # every child is killed once a run has taken this long
MB = 1 << 20
CLI_ENTRY = "import sys; from indecide.cli import main; sys.exit(main())"  # the indecide console script

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
# the per-operation names of the record, one per timed operation
OP_METRICS = (
    "calibrate_np_s",
    "calibrate_np_trace_s",
    "calibrate_accuracy_s",
    "calibrate_mlr_np_s",
    "apply_s",
    "np_sweep_s",
    "phase_s",
    "highprob_s",
)


@dataclass
class Sample:
    """One execution of an operation."""

    wall: float
    cpu: float
    rss_kib: int
    code: int
    output_bytes: int = 0
    problems: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("INDECIDE_WORKERS", None)  # the workloads pass --workers themselves
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Processes:
    """Starts, times and reaps child processes; none outlives the run."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.killed = False

    def run(self, cmd: list, log: str) -> Sample:
        (self.work / "logs").mkdir(exist_ok=True)
        with open(self.work / "logs" / f"{log}.out", "wb") as out, open(self.work / "logs" / f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=err, start_new_session=True)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), self._kill, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                self._kill(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)

    def _kill(self, pid: int) -> None:
        self.killed = True
        try:
            os.killpg(pid, signal.SIGKILL)  # the child leads its own group, workers included
        except ProcessLookupError:
            pass


def run_op_subprocess(procs: Processes, op) -> Sample:
    """An operation as a user runs it: one fresh process."""
    if not op.child:
        return procs.run([sys.executable, "-c", CLI_ENTRY, *op.args], op.name)
    sample = procs.run([sys.executable, str(HERE / "highprob_child.py"), *op.args], op.name)
    if sample.code == 0:  # the child reports the time of the calls alone
        timing = json.loads((procs.work / op.args[2]).read_text(encoding="utf-8"))
        sample.wall, sample.cpu = timing["seconds"], timing["cpu_seconds"]
    return sample


def run_op_inprocess(work: Path, op) -> Sample:
    """An operation inside this process, for the traced run and its baseline."""
    import indecide.cli

    previous = os.getcwd()
    os.chdir(work)
    problems = []
    try:
        start, cpu = time.perf_counter(), time.process_time()
        try:
            if op.child:
                highprob_child.run(Path(op.args[0]), Path(op.args[1]))
                code = 0
            else:
                code = indecide.cli.main(op.inprocess_args or op.args)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash of the program is a failed operation, not a failed run
            code, problems = 1, [f"raised {exc!r}"]
        return Sample(time.perf_counter() - start, time.process_time() - cpu, 0, code, problems=problems)
    finally:
        os.chdir(previous)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_files(work: Path, outputs: list) -> list:
    files = []
    for rel in outputs:
        path = work / rel
        if path.is_dir():
            files += sorted(p for p in path.rglob("*") if p.is_file())
        elif path.exists():
            files.append(path)
    return files


def stderr_tail(work: Path, op) -> str:
    try:
        return (work / "logs" / f"{op.name}.err").read_text(encoding="utf-8", errors="replace")[-300:].strip()
    except OSError:
        return ""


def run_passes(ops: list, execute, work: Path, seconds: float, hashes: dict, *, max_passes: int = 0) -> list:
    """Whole passes over ops until another would overrun `seconds`; at least one.

    Every output is checked, and hashed against the first pass that ran it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        samples = {}
        for op in ops:
            sample = execute(op)
            if sample.code != op.expect:
                sample.problems.append(f"exit code {sample.code}, expected {op.expect}: {stderr_tail(work, op)}")
            else:
                sample.problems += op.check(work)
            files = output_files(work, op.outputs)
            sample.output_bytes = sum(p.stat().st_size for p in files)
            digest = {str(p.relative_to(work)): sha256(p) for p in files}
            first = hashes.setdefault(op.name, digest)
            if digest != first:
                changed = sorted(k for k in first.keys() | digest.keys() if first.get(k) != digest.get(k))
                sample.problems.append(f"outputs differ from the first pass: {changed}")
            samples[op.name] = sample
        shutil.rmtree(work / "out", ignore_errors=True)
        passes.append(samples)
        elapsed = time.perf_counter() - start
        if max_passes and len(passes) >= max_passes or elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pass_total(samples: dict, key: str) -> float:
    return sum(getattr(s, key) for s in samples.values())


def failures(passes: list) -> list:
    return [f"pass {i} {name}: {p}" for i, samples in enumerate(passes) for name, s in samples.items() for p in s.problems]


def git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}  # never a repository above the checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    return {
        "commit": git_commit() or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def setup(workload, work: Path, seed: int, sizes, procs: Processes) -> float:
    """Generate the inputs and warm the imports; return the seconds it took."""
    start = time.perf_counter()
    (work / "inputs").mkdir(exist_ok=True)
    workload.setup(work, seed, sizes)
    warm = procs.run([sys.executable, "-c", workload.warm], "warm-up")
    if warm.code != 0:
        raise RuntimeError(f"cannot import the package: {(work / 'logs' / 'warm-up.err').read_text()[-500:]}")
    return time.perf_counter() - start


def load_package() -> None:
    """Import indecide from this checkout's src, for references and in-process runs."""
    sys.path.insert(0, str(SRC))
    import indecide

    if Path(indecide.__file__).resolve().parent != SRC / "indecide":
        raise RuntimeError(f"indecide imported from {indecide.__file__}, not from {SRC}")


def timed_run(workload, work: Path, args, sizes, procs: Processes) -> tuple[dict, dict]:
    setups = [setup(workload, work, args.seed, sizes, procs) for _ in range(SETUP_REPS)]
    load_package()
    ops = workload.ops(args.seed, sizes)
    hashes: dict = {}
    passes = run_passes(ops, lambda op: run_op_subprocess(procs, op), work, args.seconds, hashes)
    samples = [s for p in passes for s in p.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_total(p, "wall") for p in passes),
        "cpu_s": statistics.median(pass_total(p, "cpu") for p in passes),
        "peak_rss_mb": max(s.rss_kib for s in samples) / 1024,
        "output_mb": statistics.median(pass_total(p, "output_bytes") for p in passes) / MB,
    }
    per_op = {
        op.name: {
            "wall_s": [p[op.name].wall for p in passes],
            "cpu_s": [p[op.name].cpu for p in passes],
            "peak_rss_mb": max(p[op.name].rss_kib for p in passes) / 1024,
            "output_bytes": passes[0][op.name].output_bytes,
            "sha256": hashes[op.name],
        }
        for op in ops
    }
    attempted = len(samples)
    failed = sum(1 for s in samples if s.problems)
    named = {name: {"value": None, "unit": "s"} for name in OP_METRICS}
    for name, op in per_op.items():
        named[f"{name}_s"]["value"] = statistics.median(op["wall_s"])
    named.update(
        setup_s={"value": metrics["setup_s"], "unit": "s"},
        peak_rss_mb={"value": metrics["peak_rss_mb"], "unit": "MB"},
        output_mb={"value": metrics["output_mb"], "unit": "MB"},
        ops_failed={"value": failed / attempted, "unit": "ratio"},
    )
    record = {
        "setup_samples_s": setups,
        "passes": len(passes),
        "operations": per_op,
        "named_metrics": named,
        "failures": failures(passes),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }
    return result, record


def traced_run(workload, work: Path, args, sizes, procs: Processes) -> tuple[dict, dict]:
    setup_s = setup(workload, work, args.seed, sizes, procs)
    imports = [procs.run([sys.executable, "-c", "import indecide.cli"], "import").wall for _ in range(3)]
    load_package()
    exec(workload.warm, {})  # imports are paid before timing, as in the warm-up of set-up
    ops = workload.ops(args.seed, sizes)
    hashes: dict = {}
    untraced = run_passes(ops, lambda op: run_op_inprocess(work, op), work, args.seconds, hashes)
    tracer = Tracer()

    def traced_op(op) -> Sample:
        idx = tracer.open(f"op.{op.name}")
        try:
            return run_op_inprocess(work, op)
        finally:
            tracer.close(idx)

    tracer.install()
    try:
        traced = run_passes(ops, traced_op, work, 0, hashes, max_passes=1)
    finally:
        tracer.uninstall()

    values, absent = layer_metrics(tracer)
    summary = Summary(tracer.spans)
    roots = [i for i, span in enumerate(tracer.spans) if span[3] < 0]
    traced_total = sum(summary.duration[i] for i in roots)
    untraced_median = statistics.median(pass_total(p, "wall") for p in untraced)
    overhead = traced_total - untraced_median
    unattributed = sum(summary.self_time[i] for i in roots)
    values.update({
        "cli.import_s": statistics.median(imports),
        "trace.overhead_s": overhead,
        "trace.unattributed_s": unattributed,
    })
    passes = untraced + traced
    samples = [s for p in passes for s in p.values()]
    failed = sum(1 for s in samples if s.problems)
    by_layer = summary.self_by_layer()
    record = {
        "setup_s": setup_s,
        "untraced_pass_s": [pass_total(p, "wall") for p in untraced],
        "traced_total_s": traced_total,
        "self_time_by_layer_s": by_layer,
        "self_times_add_up": {
            "layers_s": sum(v for k, v in by_layer.items() if k != "op"),
            "traced_total_s": traced_total,
            "unattributed_s": unattributed,
            "within_overhead": abs(unattributed) <= abs(overhead),
        },
        "absent": absent,
        "targets_not_found": tracer.not_found,
        "operations": {name: {"sha256": digest} for name, digest in hashes.items()},
        "failures": failures(passes),
    }
    units = {name: unit for name, (unit, *_rest) in LAYER_METRICS.items()}
    units.update({"cli.import_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s"})
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure whole passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full", help="toy: tiny inputs for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills its children and deletes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "indecide" / "cli.py").is_file():
        print(f"error: no indecide package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    sizes = TOY if args.size == "toy" else FULL
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    procs = Processes(work, time.monotonic() + RUN_LIMIT_S)
    try:
        result, record = (traced_run if args.trace else timed_run)(workload, work, args, sizes, procs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    if procs.killed:
        result["correct"] = False
        record["failures"].append(f"an operation ran past the {RUN_LIMIT_S} s limit and was killed")
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        sizes=asdict(sizes),
        environment=environment(),
        notes=[workload.note] if workload.note else [],
    )
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
