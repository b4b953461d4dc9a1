"""Every output of a fixed command set keeps its sha256, as tests/data/output_ledger.kv records it.

The commands run in one directory with relative paths, so the manifests,
which record the paths they were given, are pinned whole.  The ledger maps
each file the commands write, by its path in that directory, to its sha256;
oracle's standard output is written to a file for it.  A change that moves
a hash names each such file, and why, in CHANGES.md.  The goldens in
tests/data stay: they show a diff where the ledger shows only that
something moved.

Rebuild the ledger (after checking that every move is meant) with
    PYTHONPATH=src python tests/test_output_ledger.py > tests/data/output_ledger.kv
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from indecide.cli import EXIT_INFEASIBLE, EXIT_OK, main
from indecide.kvdoc import dump_kv, load_kv

LEDGER = Path(__file__).parent / "data" / "output_ledger.kv"

INPUTS = {
    "score.csv": "score,label\n0.9,1\n0.7,1\n0.6,2\n0.4,1\n0.2,2\n0.1,2\n",
    "x.csv": "x,label\n-2,1\n-1,1\n-0.5,2\n0.5,1\n1,2\n2,2\n",
    "s.csv": "s_1,s_2,label\n0.9,0.1,1\n0.7,0.3,1\n0.6,0.4,2\n0.4,0.6,1\n0.2,0.8,2\n0.1,0.9,2\n",
    "reps3.kv": "format_version = 1\nreps = 3\n",
    "reps9.kv": "format_version = 1\nreps = 9\n",
    "phase.kv": "format_version = 1\ngrid_points = 40\n",
}

# the rows of the CI step "Every calibrate mode writes a trace": out dir, input, flags
CALIBRATE = [
    ("accuracy", "score.csv", "--mode accuracy --alpha 0.3"),
    ("accuracy-gamma", "score.csv", "--mode accuracy --gamma 0.3"),
    ("mlr-accuracy", "x.csv", "--mode mlr-accuracy --alpha 0.3"),
    ("np", "score.csv", "--mode np --alpha1 0.4 --alpha2 0.4"),
    ("mlr-np", "x.csv", "--mode mlr-np --alpha1 0.4 --alpha2 0.4"),
    ("multiclass", "s.csv", "--mode multiclass --gamma 0.3"),
]
STUDIES = ["accuracy-sweep", "np-sweep", "intro-tradeoff", "consistency-trend"]


def commands():
    """(argv, the exit codes it may give, the file its standard output goes to or None), in run order."""
    for name, path, flags in CALIBRATE:
        argv = ["calibrate", "--input", path, *flags.split(), "--out-dir", name, "--trace"]
        yield argv, {EXIT_OK, EXIT_INFEASIBLE}, None  # exit 2 (targets not met) still writes every file
    for name, path, _ in CALIBRATE:
        argv = ["apply", "--rule", f"{name}/rule.kv", "--input", path, "--output", f"{name}/decisions.csv"]
        yield argv, {EXIT_OK}, None
    for flag, value in (("--gamma", "0.3"), ("--t", "0.5"), ("--target-risk", "0.05")):
        yield ["oracle", "--delta", "1", flag, value], {EXIT_OK}, f"oracle{flag}.stdout"
    for study in STUDIES:
        for workers in ("1", "2"):
            argv = ["experiment", study, "--config", "reps3.kv", "--seed", "5", "--workers", workers]
            yield [*argv, "--out-dir", f"{study}-{workers}"], {EXIT_OK}, None
    # the CI step "Study bytes at one and two workers": np-sweep's 9 replications at the default sizes are
    # two blocks of stacked replications, the second partial
    for workers in ("1", "2"):
        argv = ["experiment", "np-sweep", "--config", "reps9.kv", "--seed", "5", "--workers", workers]
        yield [*argv, "--out-dir", f"np-sweep-reps9-{workers}"], {EXIT_OK}, None
    yield ["experiment", "phase", "--config", "phase.kv", "--out-dir", "phase"], {EXIT_OK}, None


def output_hashes(directory: Path) -> dict:
    """Run the command set in directory, which must be the working directory; returns
    each file it wrote, by its path relative to directory, mapped to its sha256."""
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8", newline="")
    for argv, codes, stdout in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code in codes, (argv, code)
        if stdout is not None:
            (directory / stdout).write_text(out.getvalue(), encoding="utf-8", newline="")
    files = {p.relative_to(directory).as_posix(): p for p in directory.rglob("*") if p.is_file()}
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in sorted(files.items()) if name not in INPUTS}


def test_every_output_keeps_its_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = output_hashes(tmp_path)
    want = load_kv(LEDGER.read_text(encoding="utf-8"))
    del want["format_version"]
    moved = sorted(path for path in want.keys() & got.keys() if got[path] != want[path])
    missing, new = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (moved or missing or new), f"hash moved: {moved}; not written: {missing}; not in the ledger: {new}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        sys.stdout.write(dump_kv(output_hashes(Path(scratch))))
