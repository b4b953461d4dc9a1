"""The CLI's CSV readers against the per-row parser they replace.

The vectorized readers must return exactly what the per-row parser returns,
or raise the same error with the same message, on any input text.
"""

import csv
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from indecide import cli
from indecide.calibration import (
    CalibrationSample,
    MaxScoreRule,
    MlrSymmetricRule,
    NpRule,
)
from indecide.cli import EXIT_USAGE, SchemaError, main

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# reference: the per-row parser, kept here as the oracle


def reference_read_table(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, header row required") from None
            rows = list(reader)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    return header, rows


def reference_float(value, path, lineno, column):
    try:
        return float(value)
    except ValueError:
        raise SchemaError(f"{path}: line {lineno}: column {column!r} is not a number: {value!r}") from None


def reference_label(value, path, lineno):
    # the one addition to the parser: labels must be integers
    number = reference_float(value, path, lineno, "label")
    if not (number.is_integer() and abs(number) < 2.0**53):
        raise SchemaError(f"{path}: line {lineno}: column 'label' is not an integer class index: {value!r}")
    return int(number)


def reference_load_sample(path, mode):
    header, rows = reference_read_table(path)
    if mode in ("accuracy", "np"):
        if header[:2] != ["score", "label"]:
            raise SchemaError(f"{path}: expected header score,label, got {header!r}")
        scores, labels = [], []
        for lineno, row in enumerate(rows, start=2):
            if len(row) < 2:
                raise SchemaError(f"{path}: line {lineno}: expected 2 columns")
            scores.append(reference_float(row[0], path, lineno, "score"))
            labels.append(reference_label(row[1], path, lineno))
        return CalibrationSample(scores=np.array(scores), labels=np.array(labels))
    if mode == "multiclass":
        score_cols = [h for h in header if h.startswith("s_")]
        if not score_cols or header != score_cols + ["label"]:
            raise SchemaError(f"{path}: expected header s_1,...,s_K,label, got {header!r}")
        vecs, labels = [], []
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path}: line {lineno}: expected {len(header)} columns")
            vecs.append([reference_float(v, path, lineno, c) for v, c in zip(row, score_cols)])
            labels.append(reference_label(row[-1], path, lineno))
        return CalibrationSample(score_vectors=np.array(vecs), labels=np.array(labels))
    if header[:2] != ["x", "label"]:
        raise SchemaError(f"{path}: expected header x,label, got {header!r}")
    xs, labels = [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) < 2:
            raise SchemaError(f"{path}: line {lineno}: expected 2 columns")
        xs.append(reference_float(row[0], path, lineno, "x"))
        labels.append(reference_label(row[1], path, lineno))
    return CalibrationSample(xs=np.array(xs), labels=np.array(labels))


def read_rule_input(path, rule):
    """What cmd_apply hands rule.apply from the input CSV."""
    return cli._values(cli._read_table(path, rule.column)[1], rule.column)


def reference_rule_input(path, expected):
    header, rows = reference_read_table(path)
    if not header or header[0] != expected:
        raise SchemaError(f"{path}: expected header {'s_1,...,s_K' if expected == 's_1' else expected}, got {header!r}")
    # score vectors: the leading s_1, s_2, ... in order
    width = next((k for k, h in enumerate(header) if h != f"s_{k + 1}"), len(header)) if expected == "s_1" else 1
    values = []
    for lineno, row in enumerate(rows, start=2):
        # the other addition: a short row is a schema error, not an IndexError
        if len(row) < width:
            raise SchemaError(f"{path}: line {lineno}: expected {width} column{'s' * (width != 1)}")
        values.append([reference_float(row[i], path, lineno, header[i]) for i in range(width)])
    table = np.array(values).reshape(len(values), width)
    return table if expected == "s_1" else table[:, 0]


# ---------------------------------------------------------------------------
# generated CSV texts

# cells the per-row parser accepts (repeated so most rows parse) and odd ones
SCORE = ["0", "1", "0.5", "0.25", "0.75", "0.9", " 0.5", "0.5 ", "\t0.25", "5e-1", ".5", "+0.5", "-0.0",
         "0.1\xa0"] * 3 + ["0_5", "nan", "inf", "-inf", "1.5", "", "abc", '"0.5"', "0x1", "1e400"]
X = ["-1.5", "0", "2", "0.5", " 3", "1e3", "-2.25 ", "1_000"] * 3 + ["Infinity", "nan", "", "x", '"1"']
LABEL = ["1", "2", "1.0", "2.0", " 1", "2 ", "1e0", "+2"] * 3 + [
    "3", "0", "-1", "1.7", "nan", "inf", "", "one", '"1"', "1_0", "9007199254740993", "1e300"]
VECTOR = ["0.5,0.5", "0.25,0.75", "1,0", " 0.75,0.25 ", "0,1"] * 3 + ["0.5,nan", ",0.5", "x,0.5", '"0.5",0.5', "0.6,0.6"]
# the last two quote a line break, the last one before a line that reads as a row
EXTRA = ["", "note", "1", '"a,b"', "#", " ", '"two\nlines"', '"q\n0.5,1,"']
ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def csv_text(draw, header_choices, cell_pools):
    """A CSV text: a header from header_choices (the first one seven times as
    often), then rows whose cells come from cell_pools (one pool per column)
    with ragged, blank, comment, extra-column and repeated lines mixed in."""
    lines = [draw(st.sampled_from(header_choices[:1] * 6 + header_choices))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "space", "comment", "short", "extra", "repeat"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append("  ")
        elif kind == "comment":
            lines.append("# " + draw(st.sampled_from(cell_pools[0])))
        elif kind == "repeat":  # ties
            lines.append(lines[-1])
        else:
            cells = ",".join(draw(st.sampled_from(pool)) for pool in cell_pools).split(",")
            if kind == "short":
                cells = cells[: draw(st.integers(0, len(cells) - 1))]
            elif kind == "extra":
                cells += draw(st.lists(st.sampled_from(EXTRA), min_size=1, max_size=2))
            lines.append(",".join(cells))
    endings = [draw(ENDINGS) for _ in lines]
    if not draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:  # SchemaError included
        return "error", (type(exc), str(exc))


def assert_same_array(got, want):
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "input.csv"


def write(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


SAMPLE_CASES = {
    "accuracy": (["score,label", "score,label,note", "score,label,", "label,score", "score", ""], [SCORE, LABEL]),
    "mlr-np": (["x,label", "x,label,extra", "x", "x,y", ""], [X, LABEL]),
    "multiclass": (["s_1,s_2,label", "s_1,s_2", "s_1,s_2,label,z", ""], [VECTOR, LABEL]),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("mode", sorted(SAMPLE_CASES))
def test_load_sample_matches_per_row_parser(scratch, mode, data):
    headers, pools = SAMPLE_CASES[mode]
    assert_load_sample_matches(write(scratch, data.draw(csv_text(headers, pools))), mode)


def assert_load_sample_matches(path, mode):
    got, want = outcome(lambda: cli._load_sample(path, mode)[1]), outcome(reference_load_sample, path, mode)
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
        return
    for field in ("scores", "xs", "score_vectors", "labels"):
        assert_same_array(getattr(got[1], field), getattr(want[1], field))


RULE_CASES = {
    "score": (NpRule(tau1=0.2, tau2=0.6), ["score", "score,label", "x", "label,score", ""], [SCORE]),
    "x": (MlrSymmetricRule(tau=0.5), ["x", "x,label", "score", ""], [X]),
    "s_1": (MaxScoreRule(tau=0.5), ["s_1,s_2", "s_1,s_2,label", "s_1,note,s_2", "s_2,s_1", ""], [VECTOR]),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("expected", sorted(RULE_CASES))
def test_apply_reader_matches_per_row_parser(scratch, expected, data):
    rule, headers, pools = RULE_CASES[expected]
    path = write(scratch, data.draw(csv_text(headers, pools)))
    got, want = outcome(read_rule_input, path, rule), outcome(reference_rule_input, path, expected)
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_array(got[1], want[1])


# ---------------------------------------------------------------------------
# the per-row parser runs only when the fast path refuses


def refuse_per_row(monkeypatch):
    def per_row(*args, **kwargs):
        raise AssertionError("the per-row parser ran on input the fast path reads")

    monkeypatch.setattr(cli, "_read_rows", per_row)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_clean_input_takes_fast_path(tmp_path, monkeypatch, ending):
    rng = np.random.default_rng(5)
    scores = np.round(rng.random(200), 3)  # rounding makes ties
    labels = rng.integers(1, 3, 200)
    lines = ["score,label,note"] + [f"{s!r},{y},n" for s, y in zip(scores.tolist(), labels.tolist())]
    path = write(tmp_path / "cal.csv", ending.join(lines) + ending)
    refuse_per_row(monkeypatch)
    _, sample = cli._load_sample(path, "np")
    assert sample.scores.tolist() == scores.tolist()
    assert sample.labels.tolist() == labels.tolist()
    values = read_rule_input(path, NpRule(tau1=0.2, tau2=0.6))
    assert values.tolist() == scores.tolist()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_input_is_read_once(tmp_path, monkeypatch):
    fifo = tmp_path / "cal.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("score,label\n0.9,1\n0.2,2\n",), daemon=True)
    writer.start()
    refuse_per_row(monkeypatch)
    _, sample = cli._load_sample(str(fifo), "np")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert sample.scores.tolist() == [0.9, 0.2]
    assert sample.labels.tolist() == [1, 2]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_compression_suffix_does_not_change_reading(tmp_path, monkeypatch, suffix):
    # the file is plain text whatever its name says
    path = write(tmp_path / f"cal.csv{suffix}", "score,label\n0.9,1\n0.2,2\n")
    refuse_per_row(monkeypatch)
    _, sample = cli._load_sample(path, "np")
    assert sample.scores.tolist() == [0.9, 0.2]
    assert sample.labels.tolist() == [1, 2]
    assert read_rule_input(path, NpRule(tau1=0.2, tau2=0.6)).tolist() == [0.9, 0.2]


def test_bad_label_reaches_per_row_parser(tmp_path, monkeypatch):
    path = write(tmp_path / "cal.csv", "score,label\n0.9,1\n0.2,1.7\n")
    refuse_per_row(monkeypatch)
    with pytest.raises(AssertionError, match="per-row parser ran"):
        cli._load_sample(path, "np")


# ---------------------------------------------------------------------------
# bad input fails loudly


def calibrate(path, tmp_path):
    return main(["calibrate", "--mode", "np", "--input", path, "--alpha1", "0.1", "--alpha2", "0.1",
                 "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("label", ["1.7", "nan", "inf", "1e300"])
def test_non_integer_label_rejected_with_line(tmp_path, capsys, label):
    path = write(tmp_path / "cal.csv", f"score,label\n0.9,1\n0.2,{label}\n0.1,2\n")
    assert calibrate(path, tmp_path) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"line 3: column 'label' is not an integer class index: {label!r}" in err
    assert not (tmp_path / "out" / "rule.kv").exists()


@pytest.mark.parametrize("score", ["nan", "inf"])
def test_non_finite_score_rejected(tmp_path, capsys, score):
    path = write(tmp_path / "cal.csv", f"score,label\n0.9,1\n{score},2\n0.1,2\n")
    assert calibrate(path, tmp_path) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


def test_label_outside_binary_rejected(tmp_path, capsys):
    path = write(tmp_path / "cal.csv", "score,label\n0.9,1\n0.2,3\n0.1,2\n")
    assert calibrate(path, tmp_path) == EXIT_USAGE
    assert "labels in {1, 2}" in capsys.readouterr().err


def test_blank_line_in_apply_input_reports_line(tmp_path, capsys):
    from indecide.kvdoc import write_kv

    rule = tmp_path / "rule.kv"
    write_kv({"rule_type": "np", "tau1": 0.2, "tau2": 0.6}, rule)
    path = write(tmp_path / "scores.csv", "score\n0.1\n\n0.9\n")
    code = main(["apply", "--rule", str(rule), "--input", path, "--output", str(tmp_path / "d.csv")])
    assert code == EXIT_USAGE
    assert "line 3: expected 1 column" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the body parsed in two halves, the second in a forked child (the forced_splits fixture)


def second_half_case(case: str, header: str, rows: list[str]) -> str:
    """header and rows as a CSV text, with case's fault in the second half or case's line ends."""
    rows = list(rows)
    fault = {"bad-cell": "abc,1", "label": "0.5,1.7", "quote": '"0.5",1', "ragged": "0.5"}.get(case)
    if fault is not None:
        rows[-5] = fault if header == "score,label" else fault.split(",")[0]
    if case == "blank-line":
        rows.insert(len(rows) - 5, "")
    if case == "no-last-end":
        return "\n".join([header, *rows])
    ending = {"cr": "\r", "crlf": "\r\n", "crlf-middle": "\r\n"}.get(case, "\n")
    text = ending.join([header, *rows]) + ending
    if case == "crlf-middle":  # pad the first row until the middle of the raw text falls inside a CRLF
        while text[len(text) // 2 - 1 : len(text) // 2 + 1] != "\r\n":
            rows[0] = " " + rows[0]
            text = ending.join([header, *rows]) + ending
    return text


READ_CASES = ["clean", "no-last-end", "cr", "crlf", "crlf-middle", "quote"]  # a quoted number reads as the number
FAULT_CASES = ["bad-cell", "blank-line", "label", "ragged"]


@pytest.mark.parametrize("case", READ_CASES + FAULT_CASES)
def test_split_reader_matches_per_row_parser(tmp_path, forced_splits, case):
    rng = np.random.default_rng(8)
    scores, labels = np.round(rng.random(40), 2).tolist(), rng.integers(1, 3, 40).tolist()
    rows = [f"{s!r},{y}" for s, y in zip(scores, labels)]
    cal = write(tmp_path / "cal.csv", second_half_case(case, "score,label", rows))
    assert (outcome(reference_load_sample, cal, "np")[0] == "ok") == (case in READ_CASES)
    assert_load_sample_matches(cal, "np")
    new = write(tmp_path / "new.csv", second_half_case(case, "score", [repr(s) for s in scores]))
    got, want = outcome(read_rule_input, new, NpRule(tau1=0.2, tau2=0.6)), outcome(reference_rule_input, new, "score")
    assert got[0] == want[0]
    if want[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_array(got[1], want[1])
    assert len(forced_splits) == (0 if case == "quote" else 2)  # a quote goes to the per-row parser at once


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("mode", sorted(SAMPLE_CASES))
def test_split_load_sample_matches_per_row_parser(scratch, forced_splits, mode, data):
    headers, pools = SAMPLE_CASES[mode]
    assert_load_sample_matches(write(scratch, data.draw(csv_text(headers, pools))), mode)


def in_child_only(fn, failure):
    """fn, except that in a forked child it fails as failure says."""
    parent = os.getpid()

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "dies":
                os.kill(os.getpid(), signal.SIGKILL)
            raise {"raises": RuntimeError, "raises-ValueError": ValueError}[failure]("in the child")
        return fn(*args, **kwargs)

    return wrapped


def calibrate_traced(tmp_path, rows: int = 40):
    rng = np.random.default_rng(9)
    lines = [f"{s!r},{y}" for s, y in zip(rng.random(rows).tolist(), rng.integers(1, 3, rows).tolist())]
    path = write(tmp_path / "cal.csv", "\n".join(["score,label", *lines]) + "\n")
    return main(["calibrate", "--mode", "np", "--input", path, "--alpha1", "0.3", "--alpha2", "0.3",
                 "--out-dir", str(tmp_path / "out"), "--trace"])


@pytest.mark.parametrize(
    "where, failure, code",
    [
        ("read", "dies", EXIT_USAGE),
        ("read", "raises", EXIT_USAGE),
        ("read", "raises-ValueError", 0),  # the per-row parser reads the file instead
        ("trace", "dies", EXIT_USAGE),
        ("trace", "raises", EXIT_USAGE),
        ("trace", "raises-ValueError", EXIT_USAGE),
    ],
)
def test_a_failing_child_fails_the_command_and_is_reaped(
    tmp_path, forced_splits, monkeypatch, capsys, assert_no_child_left, where, failure, code
):
    from indecide import kvdoc

    if where == "read":
        monkeypatch.setattr(cli, "_parse_lines", in_child_only(cli._parse_lines, failure))
    else:
        monkeypatch.setattr(kvdoc, "_write_rows", in_child_only(kvdoc._write_rows, failure))
    assert calibrate_traced(tmp_path) == code
    assert forced_splits
    if code == EXIT_USAGE:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("in the child" in err) == (failure == "raises-ValueError")
    assert_no_child_left()  # every child was reaped


# the indecide console script with os.fork counted: the count goes to stderr
COUNTED_CLI = """
import os, sys
from indecide.cli import main
real_fork, forks = os.fork, []
def fork():
    forks.append(real_fork())
    return forks[-1]
os.fork = fork
code = main(sys.argv[1:])
print(len(forks), file=sys.stderr)
sys.exit(code)
"""

# a small launcher: runs argv[2:] on one CPU ("one") or on all of its own ("all"), both through a
# preexec_fn, and prints the exit code and wait4's peak RSS in KiB, which covers the command's children
LAUNCHER = """
import os, subprocess, sys
cpus = {min(os.sched_getaffinity(0))} if sys.argv[1] == "one" else os.sched_getaffinity(0)
proc = subprocess.Popen(sys.argv[2:], preexec_fn=lambda: os.sched_setaffinity(0, cpus))
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_writes_the_same_bytes(tmp_path):
    # a body past _SPLIT_READ_CHARS and a trace past _SPLIT_WRITE_ROWS
    from indecide import kvdoc

    rows = 300_000
    rng = np.random.default_rng(10)
    lines = [f"{s!r},{y}" for s, y in zip(rng.random(rows).tolist(), rng.integers(1, 3, rows).tolist())]
    path = write(tmp_path / "cal.csv", "\n".join(["score,label", *lines]) + "\n")
    assert os.path.getsize(path) > 1.2 * cli._SPLIT_READ_CHARS and rows + 1 >= kvdoc._SPLIT_WRITE_ROWS
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    runs = {}
    for cpus in ("one", "all"):
        out = tmp_path / cpus
        argv = ["calibrate", "--mode", "np", "--input", path, "--alpha1", "0.1", "--alpha2", "0.1",
                "--out-dir", str(out), "--trace"]
        proc = subprocess.run([sys.executable, "-c", LAUNCHER, cpus, sys.executable, "-c", COUNTED_CLI, *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        code, peak = map(int, proc.stdout.split())
        assert code in (0, 2), proc.stderr  # feasible or not, the outputs are written
        files = {name: (out / name).read_bytes() for name in ("rule.kv", "report.kv", "trace.csv")}
        runs[cpus] = ((code, files), peak, int(proc.stderr.split()[-1]))
    assert runs["one"][0] == runs["all"][0]
    assert runs["one"][2] == 0
    if len(os.sched_getaffinity(0)) > 1 and sys.platform == "linux":
        assert runs["all"][2] == 2  # the parse and the trace
    assert runs["all"][1] <= 1.05 * runs["one"][1]  # wait4's peak: the largest of the command and its child
