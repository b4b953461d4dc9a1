"""Command-line surface: calibrate rules from CSV, apply them, run studies.

Exit codes: 0 success (calibration feasible), 2 calibration ran but the
targets are unattainable on the data, 1 usage or schema errors, or a worker
process that died.  Every command but oracle writes a manifest of its input
hashes so runs can be audited and reproduced.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import sys
import warnings
from concurrent.futures import BrokenExecutor
from dataclasses import fields
from functools import partial
from pathlib import Path

# the package's linear algebra is 1x1 and 2x2: one OpenBLAS thread, unless the
# caller chose otherwise, saves the idle threads' spin at every start
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, gmm
from .calibration import (
    _COLUMNS,
    CalibrationSample,
    MaxScoreRule,
    MlrNpRule,
    MlrSymmetricRule,
    NpRule,
    Rule,
    SelectiveBinaryRule,
    calibrate_accuracy,
    calibrate_accuracy_fixed_gamma,
    calibrate_accuracy_mlr,
    calibrate_multiclass_fixed_gamma,
    calibrate_np,
    calibrate_np_mlr,
)
from .experiments import (
    SimConfig,
    _parallel_map,
    run_accuracy_sweep,
    run_consistency_trend,
    run_intro_tradeoff,
    run_np_sweep,
    sim_result_to_csv,
    sim_result_to_svg,
)
from .kvdoc import _in_two, _usable_cpus, load_kv, write_columns, write_kv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


# experiment -> (the name of its runner in this module, None for phase; its --config keys, the ones it reads,
# with their defaults; what --full sets; its chart metric); --seed is the only seed
_DEFAULTS = {f.name: f.default for f in fields(SimConfig)}  # SimConfig's
_SWEEP_KEYS = ("reps", "n_train", "n_cal", "n_test", "delta_grid", "scorer")  # what both sweeps read
_EXPERIMENTS = {
    "phase": (None, {"grid_points": 200}, {"grid_points": 1000}, None),
    "accuracy-sweep": (
        "run_accuracy_sweep", {k: _DEFAULTS[k] for k in (*_SWEEP_KEYS, "alpha")}, {"reps": 1000}, "conditional_error"
    ),
    "np-sweep": (
        "run_np_sweep", {k: _DEFAULTS[k] for k in (*_SWEEP_KEYS, "alpha1", "alpha2")}, {"reps": 1000}, "type2"
    ),
    "intro-tradeoff": (
        "run_intro_tradeoff", {k: _DEFAULTS[k] for k in ("reps", "n_test", "delta_grid")}, {"reps": 1000}, "gamma_star"
    ),
    "consistency-trend": ("run_consistency_trend", {"reps": 100}, {"reps": 1000}, "risk_gap"),
}

# --mode -> (rule class, whose column the input holds; its calibrator's name; its target flags in argument order,
# all required and no others allowed), "accuracy --gamma" being accuracy with --gamma set.  Calibrators and runners
# are module globals looked up by name per call, so a wrapper set on this module's name sees the call
_MODES = {
    "accuracy": (SelectiveBinaryRule, "calibrate_accuracy", ("alpha",)),
    "np": (NpRule, "calibrate_np", ("alpha1", "alpha2")),
    "multiclass": (MaxScoreRule, "calibrate_multiclass_fixed_gamma", ("gamma",)),
    "mlr-np": (MlrNpRule, "calibrate_np_mlr", ("alpha1", "alpha2")),
    "mlr-accuracy": (MlrSymmetricRule, "calibrate_accuracy_mlr", ("alpha",)),
    "accuracy --gamma": (SelectiveBinaryRule, "calibrate_accuracy_fixed_gamma", ("gamma",)),
}


class SchemaError(ValueError):
    """Input file does not match the documented schema."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenExecutor as exc:  # a worker was killed or crashed
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indecide",
        description="Calibrated classification with an abstention option.",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    cal = sub.add_parser("calibrate", help="fit an abstention rule from a labeled CSV")
    cal.add_argument("--mode", required=True, choices=[m for m in _MODES if " " not in m])
    cal.add_argument("--input", required=True, help="CSV with header: score,label | s_1..s_K,label | x,label")
    cal.add_argument("--alpha", type=float, help="target conditional error (accuracy modes)")
    cal.add_argument("--alpha1", type=float, help="target type I error (np modes)")
    cal.add_argument("--alpha2", type=float, help="target type II error (np modes)")
    cal.add_argument("--gamma", type=float, help="fixed abstention mass (fixed-gamma modes)")
    cal.add_argument("--out-dir", required=True)
    cal.add_argument("--trace", action="store_true", help="also write the per-candidate trace CSV")
    cal.set_defaults(handler=cmd_calibrate)

    app = sub.add_parser("apply", help="apply a saved rule to a scores CSV")
    app.add_argument("--rule", required=True, help="rule key-value file from calibrate")
    app.add_argument("--input", required=True)
    app.add_argument("--output", required=True, help="decisions CSV path")
    app.set_defaults(handler=cmd_apply)

    exp = sub.add_parser("experiment", help="run a seeded simulation study")
    exp.add_argument("name", choices=list(_EXPERIMENTS))
    exp.add_argument("--config", help="key-value file overriding study parameters")
    exp.add_argument("--out-dir", required=True)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--full", action="store_true", help="full-scale grids and replication counts")
    exp.add_argument("--workers", type=int, default=1)
    exp.set_defaults(handler=cmd_experiment)

    orc = sub.add_parser("oracle", help="closed-form mixture oracle queries")
    orc.add_argument("--delta", type=float, required=True, help="half-separation of the mixture centers")
    group = orc.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=float, help="abstention mass to invert")
    group.add_argument("--t", type=float, help="decision threshold to evaluate")
    group.add_argument("--target-risk", type=float, help="conditional risk to reach")
    orc.set_defaults(handler=cmd_oracle)
    return parser


# ---------------------------------------------------------------------------
# input files: CSV ingestion, and the manifest of what was read


def _read_input(path: str) -> tuple[str, str]:
    """The file's UTF-8 text, line ends as written, and the sha256 of the bytes that one read returned."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8"), _sha256(data)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_table(path: str, column: str, *, labelled: bool = False) -> tuple[str, np.ndarray]:
    """The file's sha256 and its body's leading columns as n x m floats: a rule's input column, then labels.

    The file is read once, by _read_input, and np.loadtxt parses the body of that text: in one call,
    or, from _SPLIT_READ_CHARS characters on, in two calls on the halves either side of the middle
    line end, the second in a forked helper (kvdoc._in_two).  Input where loadtxt could disagree with
    the per-row parser (quotes, blank lines, a cell loadtxt rejects, a non-integer label) goes to
    _read_rows instead, which returns the same table or raises the line-numbered SchemaError.
    """
    try:
        raw, digest = _read_input(path)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    if '"' in raw:  # a quoted field may hold a delimiter or a line break
        return digest, _read_rows(path, raw, column, labelled)
    if not raw:
        raise SchemaError(f"{path}: empty file, header row required")
    # line ends as the csv module sees them
    text = raw.replace("\r\n", "\n").replace("\r", "\n") if "\r" in raw else raw
    body = text.find("\n") + 1  # where the body starts, or 0 for a header alone
    header = next(csv.reader([text[: body - 1] if body else text]))
    names, exact = _header_names(path, header, column, labelled)
    if not body or body == len(text):
        return digest, np.empty((0, len(names)))
    parse = partial(_parse_lines, width=len(names), exact=exact, labelled=labelled)
    # the second half starts after the first line end from the middle of the body on, if there is one
    mid = text.find("\n", (body + len(text)) // 2) + 1 if len(text) - body >= _SPLIT_READ_CHARS else 0
    try:
        if not 0 < mid < len(text):
            return digest, parse(text[body:])
        second = io.BytesIO()  # the second half's table, as bytes
        first = _in_two(lambda: parse(text[body:mid]), lambda out: out.write(parse(text[mid:])), second)
        return digest, np.concatenate([first, np.frombuffer(second.getbuffer()).reshape(-1, len(names))])
    except ValueError:
        return digest, _read_rows(path, raw, column, labelled)


# body text from this many characters on is parsed in two halves, in two processes: over twice the
# break-even (about 850 000 characters, 40 000 score,label rows)
_SPLIT_READ_CHARS = 1 << 21


def _parse_lines(text: str, width: int, exact: bool, labelled: bool) -> np.ndarray:
    """Lines of text, each ended by a line end but the last maybe not, as len x width floats
    by one np.loadtxt call; ValueError where the per-row parser could read them otherwise."""
    lines = text.split("\n")
    if lines[-1] == "":  # the last line's end
        lines.pop()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an all-blank text reads as no data
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, usecols=None if exact else range(width))
    # loadtxt skips blank lines, which the per-row parser rejects
    if table.shape != (len(lines), width) or (labelled and not _is_label(table[:, -1]).all()):
        raise ValueError("the fast path cannot read these lines as the per-row parser does")
    return table


def _read_rows(path: str, raw: str, column: str, labelled: bool) -> np.ndarray:
    """_read_table's table from the file's text by csv.reader and float() per cell,
    with line-numbered errors."""
    reader = csv.reader(io.StringIO(raw, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, header row required") from None
    rows = list(reader)
    names, exact = _header_names(path, header, column, labelled)
    width = len(names)
    table = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        lineno = i + 2
        if len(row) < width or (exact and len(row) > width):
            raise SchemaError(f"{path}: line {lineno}: expected {width} column{'s' * (width != 1)}")
        for j, name in enumerate(names):
            value = _parse_float(row[j], path, lineno, name)
            if labelled and j == width - 1 and not (value.is_integer() and abs(value) < _LABEL_LIMIT):
                raise SchemaError(f"{path}: line {lineno}: column {name!r} is not an integer class index: {row[j]!r}")
            table[i, j] = value
    return table


def _header_names(path: str, header: list[str], column: str, labelled: bool) -> tuple[list[str], bool]:
    """The header names to read for a rule's input column (s_1, ..., s_K in order for score
    vectors), then label when labelled.  Later columns are ignored, except that a labelled
    score-vector header must end at its label: exact tells that each row has no more fields."""
    if column == "s_1":
        width = next((k for k, name in enumerate(header) if name != f"s_{k + 1}"), len(header))
    else:
        width = int(header[:1] == [column])
    names = header[:width] + ["label"] * labelled
    exact = labelled and column == "s_1"
    if not width or header[: len(names)] != names or (exact and header != names):
        spec = "s_1,...,s_K" if column == "s_1" else column
        raise SchemaError(f"{path}: expected header {spec}{',label' * labelled}, got {header!r}")
    return names, exact


def _parse_float(value: str, path: str, lineno: int, column: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise SchemaError(f"{path}: line {lineno}: column {column!r} is not a number: {value!r}") from None


# beyond 2**53 a parsed float no longer tells which integer the file wrote
_LABEL_LIMIT = 2.0**53


def _is_label(values: np.ndarray) -> np.ndarray:
    """Elementwise: is the parsed label an integer below _LABEL_LIMIT."""
    return (np.abs(values) < _LABEL_LIMIT) & (np.floor(values) == values)


def _values(table: np.ndarray, column: str) -> np.ndarray:
    """What a rule on column takes from the value columns: n x K score vectors, or one column."""
    return table if column == "s_1" else table[:, 0].copy()


def _load_sample(path: str, mode: str) -> tuple[str, CalibrationSample]:
    column = _MODES[mode][0].column
    digest, table = _read_table(path, column, labelled=True)
    sample = CalibrationSample(**{_COLUMNS[column][0]: _values(table[:, :-1], column)}, labels=table[:, -1].astype(int))
    return digest, sample


def _write_manifest(manifest: Path, subcommand: str, digests: dict[str, str], outputs: list[str], extra: dict) -> None:
    entries = {
        "subcommand": subcommand,
        "toolkit_version": __version__,
        "inputs": ";".join(digests),  # digests: each input path -> the sha256 of the bytes its reader parsed
        "outputs": ";".join(sorted([*outputs, manifest.name])),
    }
    names = [Path(path).name for path in digests]  # each input's key, or its path as given where two share a name
    for path, name, digest in zip(digests, names, digests.values()):
        key = name if names.count(name) == 1 else path  # with % and =, which a key cannot hold, as %25 and %3D
        entries[f"sha256_{key.replace('%', '%25').replace('=', '%3D')}"] = digest
    entries.update(extra)
    write_kv(entries, manifest)


# ---------------------------------------------------------------------------
# subcommands


def cmd_calibrate(args) -> int:
    mode = args.mode
    key = f"{mode} --gamma" if mode == "accuracy" and args.gamma is not None else mode
    _, calibrator, flags = _MODES[key]
    for flag in ("alpha", "alpha1", "alpha2", "gamma"):  # before the input is read, so a bad flag fails at once
        if (getattr(args, flag) is None) == (flag in flags):
            raise SchemaError(f"mode {key} {'requires' if flag in flags else 'does not read'} --{flag}")
    digest, sample = _load_sample(args.input, mode)
    report = globals()[calibrator](sample, *(getattr(args, flag) for flag in flags), want_trace=args.trace)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rule_entries = report.rule.to_kv()
    write_kv(rule_entries, out_dir / "rule.kv")
    achieved = {f"achieved_{key}": value for key, value in report.achieved.items()}
    report_entries = {**rule_entries, "gamma_hat": report.gamma_hat, "feasible": report.feasible, **achieved}
    write_kv(report_entries, out_dir / "report.kv")
    outputs = ["rule.kv", "report.kv"]
    if report.trace:
        write_columns(out_dir / "trace.csv", [report.trace])
        outputs.append("trace.csv")
    _write_manifest(out_dir / "manifest.kv", f"calibrate-{mode}", {args.input: digest}, outputs, {})
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_apply(args) -> int:
    rule_text, rule_digest = _read_input(args.rule)
    rule = Rule.from_kv(load_kv(rule_text))
    digest, table = _read_table(args.input, rule.column)
    decisions = rule.apply(_values(table, rule.column))
    # decision d is written as words[d]: "abstain" for 0, else the class index
    words = np.array(["abstain", *map(str, range(1, int(decisions.max(initial=0)) + 1))])
    abstained = int((decisions == 0).sum())
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(["decision", *words[decisions].tolist()]) + "\n")
        fraction = abstained / len(decisions) if len(decisions) else 0.0
        fh.write(f"# abstention_fraction = {fraction:.17g}; rows = {len(decisions)}\n")
    # beside the file the decisions went to (/dev/stdout resolved), not in manifest.kv, which calibrate
    # may have written to the same directory; a pipe or terminal gets none
    output = Path(os.path.realpath(args.output))
    if output.is_file():
        manifest = output.with_name(f"{output.name}.manifest.kv")
        extra = {"rule_type": rule.rule_type, "rows": len(decisions), "abstained": abstained}
        _write_manifest(manifest, "apply", {args.rule: rule_digest, args.input: digest}, [output.name], extra)
    return EXIT_OK


def _read_config(overrides: dict, defaults: dict) -> dict:
    """defaults with the --config overrides, each read as its default's type: floats split at ";"
    for a tuple, text for a str, else a number, not a bool, and for an int an integral one of
    magnitude at most sys.maxsize.  A key without a default, other than format_version, is an error."""
    out = dict(defaults)
    for key, value in overrides.items():
        if key == "format_version":
            continue
        if key not in defaults:
            raise SchemaError(f"unknown config key {key!r}")
        kind = type(defaults[key])
        if kind is tuple:
            try:
                out[key] = tuple(float(v) for v in str(value).split(";"))
            except ValueError:
                raise SchemaError(f"config key {key!r} must be numbers separated by ';': {value!r}") from None
        elif kind is str:
            out[key] = str(value)
        else:
            try:
                # value % 1 is nonzero, or NaN, for a float with a fraction and for +-inf and NaN
                if isinstance(value, bool) or not isinstance(value, (int, float)) or (kind is int and value % 1):
                    raise TypeError
                out[key] = kind(value)  # OverflowError: an int beyond the largest float
            except (TypeError, OverflowError):
                message = f"config key {key!r} must be {'an integer' if kind is int else 'a number'}: {value!r}"
                raise SchemaError(message) from None
            if kind is int and abs(out[key]) > sys.maxsize:  # a count or size must fit an index
                raise SchemaError(f"config key {key!r} must be at most {sys.maxsize} in magnitude: {value!r}")
    return out


def _phase_configs(points: int) -> list[tuple[str, gmm.PhaseGridConfig]]:
    m_grid = tuple(np.linspace(0.005, 0.995, points))
    return [
        (name, gmm.PhaseGridConfig(delta_target=target, c_grid=tuple(np.linspace(c_lo, c_hi, points)), m_grid=m_grid))
        for name, target, c_lo, c_hi in (("lower", 1e-7, 0.05, 0.45), ("upper", 1e-15, 0.55, 0.95))
    ]


def _write_phase_panel(out_dir: Path, panel_config: tuple[str, gmm.PhaseGridConfig]) -> list[str]:
    """Write one (name, config) phase panel's CSV and SVG by gmm.write_phase_panel; returns the file names."""
    names = [f"phase_{panel_config[0]}.{ext}" for ext in ("csv", "svg")]
    gmm.write_phase_panel(panel_config[1], out_dir / names[0], out_dir / names[1])
    return names


def cmd_experiment(args) -> int:
    if args.workers < 1:
        raise SchemaError(f"--workers must be at least 1, got {args.workers}")
    runner, defaults, full, metric = _EXPERIMENTS[args.name]
    config = _read_input(args.config) if args.config else None  # (text, sha256)
    settings = _read_config(load_kv(config[0]) if config else {}, {**defaults, **(full if args.full else {})})
    out_dir = Path(args.out_dir)
    # out_dir is made once the config is checked (and a study has run), so a rejected config leaves none
    if args.name == "phase":
        panels = _phase_configs(settings["grid_points"])
        out_dir.mkdir(parents=True, exist_ok=True)
        # one process per panel, up to the usable CPUs
        written = _parallel_map(partial(_write_phase_panel, out_dir), panels, _usable_cpus())
        outputs = [name for names in written for name in names]
    else:
        result = globals()[runner](SimConfig(**settings, seed=args.seed), workers=args.workers)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = [f"{args.name}_rows.csv", f"{args.name}_aggregates.csv", f"{args.name}.svg"]
        sim_result_to_csv(result, out_dir / outputs[0], out_dir / outputs[1])
        sim_result_to_svg(result, metric, out_dir / outputs[2], title=args.name)
    inputs = {args.config: config[1]} if config else {}
    extra = {"seed": args.seed, "full": bool(args.full), "workers_requested": args.workers}
    _write_manifest(out_dir / "manifest.kv", f"experiment-{args.name}", inputs, outputs, extra)
    return EXIT_OK


def cmd_oracle(args) -> int:
    spec = gmm.GmmSpec(args.delta)
    if args.t is not None:
        point = gmm.operating_point_at_t(spec, args.t)
    elif args.gamma is not None:
        point = gmm.threshold_for_gamma(spec, args.gamma)
    else:
        try:
            point = gmm.gamma_for_target_risk(spec, args.target_risk)
        except gmm.InfeasibleTargetError as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
    for key, value in (
        ("delta", args.delta),
        ("t", point.t),
        ("gamma", point.gamma),
        ("gamma_complement", point.gamma_complement),
        ("risk", point.risk),
    ):
        print(f"{key} = {value:.17g}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
