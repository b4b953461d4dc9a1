"""Outside-in tracer for the indecide package.

Spans are recorded by replacing functions at the names where their callers
look them up (for example ``indecide.cli.calibrate_np``), so spans nest
without any change to the package.  Spans are kept in memory as
(name, start, end, parent, attrs) and summarised after the traced pass.

A target that no longer exists is skipped and every metric that needs it
is reported as absent, with the reason, instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module`` + dotted ``attr`` recorded as span ``span``.

    ``tag(args, kwargs, result)`` returns numbers stored on the span.  A
    ``count_only`` target records no span and only sums its tags, for
    functions called too often or too deep for a span to be useful.
    """

    module: str
    attr: str
    span: str
    tag: Optional[Callable] = None
    count_only: bool = False


def _rows(args, kwargs, result):
    return {"rows": len(result[1])}


def _trace_rows(args, kwargs, result):
    trace = result.trace  # a tuple of row dicts, or a dict of equal-length columns
    rows = len(next(iter(trace.values()))) if isinstance(trace, dict) and trace else len(trace)
    return {"trace": int(bool(kwargs.get("want_trace"))), "trace_rows": rows}


def _cmd_trace(args, kwargs, result):
    return {"trace": int(bool(args[0].trace))}


def _cells(args, kwargs, result):
    return {"cells": len(result)}


def _solved(args, kwargs, result):
    return {"solved": int(args[0].size)}


def _rects(args, kwargs, result):
    return {"rects": result.count("<rect")}


def _tail_evals(args, kwargs, result):
    return {"evals": int(getattr(args[0], "size", 1))}


_CALIBRATORS = (
    "calibrate_np",
    "calibrate_accuracy",
    "calibrate_np_mlr",
    "calibrate_accuracy_mlr",
    "calibrate_accuracy_fixed_gamma",
    "calibrate_multiclass_fixed_gamma",
)
_RULES = ("SelectiveBinaryRule", "NpRule", "MlrNpRule", "MlrSymmetricRule", "MaxScoreRule")

TARGETS = (
    [
        Target("indecide.cli", "main", "cli.main"),
        Target("indecide.cli", "cmd_calibrate", "cli.cmd_calibrate", _cmd_trace),
        Target("indecide.cli", "cmd_apply", "cli.cmd_apply"),
        Target("indecide.cli", "cmd_experiment", "cli.cmd_experiment"),
        Target("indecide.cli", "_read_table", "cli._read_table", _rows),
        Target("indecide.cli", "_load_sample", "cli._load_sample"),
        Target("indecide.cli", "_sha256", "cli._sha256"),
        Target("indecide.cli", "CalibrationSample", "calibration.CalibrationSample"),
        Target("indecide.experiments", "CalibrationSample", "calibration.CalibrationSample"),
        Target("indecide.calibration", "CalibrationSample", "calibration.CalibrationSample"),
    ]
    + [Target("indecide.cli", c, f"calibration.{c}", _trace_rows) for c in _CALIBRATORS]
    + [
        Target("indecide.experiments", "calibrate_np", "calibration.calibrate_np", _trace_rows),
        Target("indecide.experiments", "calibrate_accuracy", "calibration.calibrate_accuracy", _trace_rows),
        Target("indecide.calibration", "calibrate_np", "calibration.calibrate_np", _trace_rows),
        Target("indecide.calibration", "_np_grid_select", "calibration._np_grid_select"),
        Target("indecide.calibration", "_type1_count_budget", "calibration._type1_count_budget"),
    ]
    + [Target("indecide.calibration", f"{r}.apply", "calibration.rule_apply") for r in _RULES]
    + [
        Target("indecide.cli", "run_np_sweep", "experiments.run_np_sweep"),
        Target("indecide.cli", "sim_result_to_csv", "experiments.write"),
        Target("indecide.cli", "sim_result_to_svg", "experiments.write"),
        Target("indecide.experiments", "_np_rep", "experiments._np_rep"),
        Target("indecide.experiments", "_draw_mixture", "experiments._draw_mixture"),
        Target("indecide.experiments", "_percentile", "experiments._percentile"),
        Target("indecide.experiments", "_selective_errors", "experiments._selective_errors"),
        Target("indecide.experiments", "_aggregate", "experiments._aggregate"),
        Target("indecide.experiments", "fit_lda", "models.fit"),
        Target("indecide.experiments", "fit_logistic", "models.fit"),
        Target("indecide.experiments", "predict_eta", "models.predict_eta"),
        Target("indecide.gmm", "phase_grid", "gmm.phase_grid", _cells),
        Target("indecide.gmm", "_solve_t_grid", "gmm._solve_t_grid", _solved),
        Target("indecide.gmm", "phase_grid_to_csv", "gmm.phase_grid_to_csv"),
        Target("indecide.gmm", "phase_grid_to_svg", "gmm.phase_grid_to_svg"),
        Target("indecide.gmm", "heatmap_svg", "svgchart.heatmap_svg", _rects),
        Target("indecide.gmm", "normal_tail_vec", "numerics.normal_tail_vec", _tail_evals, count_only=True),
    ]
)


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.counts: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.missing: dict[str, str] = {}  # span name -> why none of its targets exist
        self.not_found: list[str] = []  # every target that could not be wrapped
        self.tag_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _tag(self, target: Target, args, kwargs, result) -> dict:
        try:
            return target.tag(args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            self.tag_errors[target.span] = f"{target.module}.{target.attr}: cannot read {exc!r}"
            return {}

    # -- wrapping ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            where = f"{target.module}.{target.attr}"
            try:
                owner = importlib.import_module(target.module)
            except ImportError as exc:
                self.not_found.append(where)
                self.missing.setdefault(target.span, f"{where}: {exc}")
                continue
            *parents, attr = target.attr.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.not_found.append(where)
                self.missing.setdefault(target.span, f"{where} no longer exists")
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self._wrap(original, target))
            self._restore.append((owner, attr, original, own))
            self.installed.add(target.span)
        for span in self.installed:
            self.missing.pop(span, None)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, original, target: Target):
        tracer = self

        if target.count_only:

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                for key, value in tracer._tag(target, args, kwargs, result).items():
                    tracer.counts[f"{target.span}.{key}"] += value
                return result

        else:

            def wrapper(*args, **kwargs):
                idx = tracer.open(target.span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if target.tag is not None:
                    tracer.spans[idx][4] = tracer._tag(target, args, kwargs, result)
                return result

        # functions keep their name so pickling by reference still works;
        # classes (CalibrationSample) are replaced by a plain factory
        return functools.wraps(original)(wrapper) if inspect.isfunction(original) else wrapper


class Summary:
    """Durations and self times of a finished span list."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.duration = [end - start for _, start, end, _, _ in spans]
        covered = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                covered[span[3]] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, covered)]

    def _match(self, name: str, attrs: dict, parent: Optional[str]):
        for i, (span_name, _, _, p, tags) in enumerate(self.spans):
            if span_name != name or any(tags.get(k) != v for k, v in attrs.items()):
                continue
            if parent is not None and (p < 0 or self.spans[p][0] != parent):
                continue
            yield i

    def total(self, name: str, **attrs) -> float:
        return sum(self.duration[i] for i in self._match(name, attrs, None))

    def self_of(self, name: str, **attrs) -> float:
        return sum(self.self_time[i] for i in self._match(name, attrs, None))

    def count(self, name: str, parent: Optional[str] = None) -> int:
        return sum(1 for _ in self._match(name, {}, parent))

    def attr(self, name: str, key: str) -> float:
        return sum(self.spans[i][4].get(key, 0) for i in self._match(name, {}, None))

    def median(self, name: str) -> float:
        values = [self.duration[i] for i in self._match(name, {}, None)]
        return statistics.median(values) if values else 0.0

    def self_by_layer(self) -> dict:
        """Self time per layer (the span-name prefix); sums to the root spans."""
        out: dict = defaultdict(float)
        for (name, *_), value in zip(self.spans, self.self_time):
            out[name.split(".", 1)[0]] += value
        return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calibrator_attr(s: Summary, key: str) -> float:
    return sum(s.attr(f"calibration.{c}", key) for c in _CALIBRATORS)


# name -> (unit, better, span names it needs, value from a Summary and counters)
LAYER_METRICS = {
    "cli.read_table_s": ("s", "lower", ["cli._read_table"], lambda s, c: s.self_of("cli._read_table")),
    "cli.load_sample_s": ("s", "lower", ["cli._load_sample"], lambda s, c: s.self_of("cli._load_sample")),
    "cli.trace_write_s": ("s", "lower", ["cli.cmd_calibrate"], lambda s, c: s.self_of("cli.cmd_calibrate", trace=1)),
    "cli.apply_self_s": ("s", "lower", ["cli.cmd_apply"], lambda s, c: s.self_of("cli.cmd_apply")),
    "cli.manifest_s": ("s", "lower", ["cli._sha256"], lambda s, c: s.total("cli._sha256")),
    "cli.rows_parsed": ("count", "lower", ["cli._read_table"], lambda s, c: s.attr("cli._read_table", "rows")),
    "calibration.sample_s": (
        "s", "lower", ["calibration.CalibrationSample"], lambda s, c: s.total("calibration.CalibrationSample")
    ),
    "calibration.calibrate_np_s": (
        "s", "lower", ["calibration.calibrate_np"], lambda s, c: s.total("calibration.calibrate_np", trace=0)
    ),
    "calibration.calibrate_np_trace_s": (
        "s", "lower", ["calibration.calibrate_np"], lambda s, c: s.total("calibration.calibrate_np", trace=1)
    ),
    "calibration.calibrate_accuracy_s": (
        "s", "lower", ["calibration.calibrate_accuracy"], lambda s, c: s.total("calibration.calibrate_accuracy")
    ),
    "calibration.calibrate_np_mlr_s": (
        "s", "lower", ["calibration.calibrate_np_mlr"], lambda s, c: s.total("calibration.calibrate_np_mlr")
    ),
    "calibration.grid_selects_per_call": (
        "count",
        "lower",
        ["calibration.calibrate_np_mlr", "calibration._np_grid_select"],
        lambda s, c: _ratio(
            s.count("calibration._np_grid_select", parent="calibration.calibrate_np_mlr"),
            s.count("calibration.calibrate_np_mlr"),
        ),
    ),
    "calibration.rule_apply_s": (
        "s", "lower", ["calibration.rule_apply"], lambda s, c: s.total("calibration.rule_apply")
    ),
    "calibration.trace_rows": (
        "count", "lower", ["calibration.calibrate_np"], lambda s, c: _calibrator_attr(s, "trace_rows")
    ),
    "calibration.calls": (
        "count",
        "lower",
        ["calibration.calibrate_np"],
        lambda s, c: sum(s.count(f"calibration.{name}") for name in _CALIBRATORS),
    ),
    "calibration.type1_budget_s": (
        "s", "lower", ["calibration._type1_count_budget"], lambda s, c: s.total("calibration._type1_count_budget")
    ),
    "experiments.draw_s": (
        "s", "lower", ["experiments._draw_mixture"], lambda s, c: s.total("experiments._draw_mixture")
    ),
    "experiments.percentile_s": (
        "s", "lower", ["experiments._percentile"], lambda s, c: s.total("experiments._percentile")
    ),
    "experiments.evaluate_s": (
        "s", "lower", ["experiments._selective_errors"], lambda s, c: s.total("experiments._selective_errors")
    ),
    "experiments.aggregate_s": (
        "s", "lower", ["experiments._aggregate"], lambda s, c: s.total("experiments._aggregate")
    ),
    "experiments.write_s": ("s", "lower", ["experiments.write"], lambda s, c: s.total("experiments.write")),
    "experiments.rep_s": ("s", "lower", ["experiments._np_rep"], lambda s, c: s.median("experiments._np_rep")),
    "models.fit_s": ("s", "lower", ["models.fit"], lambda s, c: s.total("models.fit")),
    "models.predict_s": ("s", "lower", ["models.predict_eta"], lambda s, c: s.total("models.predict_eta")),
    "gmm.solve_s": ("s", "lower", ["gmm._solve_t_grid"], lambda s, c: s.total("gmm._solve_t_grid")),
    "gmm.cell_build_s": ("s", "lower", ["gmm.phase_grid"], lambda s, c: s.self_of("gmm.phase_grid")),
    "gmm.csv_s": ("s", "lower", ["gmm.phase_grid_to_csv"], lambda s, c: s.total("gmm.phase_grid_to_csv")),
    "gmm.svg_prep_s": ("s", "lower", ["gmm.phase_grid_to_svg"], lambda s, c: s.self_of("gmm.phase_grid_to_svg")),
    "gmm.solve_useful_ratio": (
        "ratio",
        "higher",
        ["gmm.phase_grid", "gmm._solve_t_grid"],
        lambda s, c: _ratio(s.attr("gmm.phase_grid", "cells"), s.attr("gmm._solve_t_grid", "solved")),
    ),
    "svgchart.heatmap_s": ("s", "lower", ["svgchart.heatmap_svg"], lambda s, c: s.total("svgchart.heatmap_svg")),
    "svgchart.rects": ("count", "lower", ["svgchart.heatmap_svg"], lambda s, c: s.attr("svgchart.heatmap_svg", "rects")),
    "numerics.tail_evals": (
        "count", "lower", ["numerics.normal_tail_vec"], lambda s, c: c.get("numerics.normal_tail_vec.evals", 0)
    ),
}

def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(values, absent reasons) for every metric in LAYER_METRICS."""
    summary = Summary(tracer.spans)
    values, absent = {}, {}
    for name, (_, _, needs, fn) in LAYER_METRICS.items():
        reasons = [tracer.missing[n] for n in needs if n in tracer.missing]
        reasons += [tracer.tag_errors[n] for n in needs if n in tracer.tag_errors]
        if reasons:
            absent[name] = "; ".join(reasons)
            values[name] = 0.0
        else:
            values[name] = float(fn(summary, tracer.counts))
    return values, absent
