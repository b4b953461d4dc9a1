"""The benchmark's outside-in tracer still finds every name it wraps.

perfbench/tracer.py marks a metric absent, without failing, when a wrapped
name disappears from the package, so a rename would silently empty a
layer metric.  A traced calibrate run checks that the CLI calls the
wrapped names rather than copies of them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def lookup(target):
    """(owner, attribute name, what the owner holds there, whether it owns it)."""
    owner = importlib.import_module(target.module)
    *parents, attr = target.attr.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr), attr in vars(owner)


def test_every_target_is_found_and_restored():
    tracer_module = load_tracer()
    before = [lookup(target) for target in tracer_module.TARGETS]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.not_found == []
        assert tracer.missing == {}
    finally:
        tracer.uninstall()
    after = [lookup(target) for target in tracer_module.TARGETS]
    for (owner, attr, original, own), (_, _, restored, own_now) in zip(before, after):
        assert restored is original, f"{owner.__name__}.{attr} was not restored"
        assert own_now == own, f"{owner.__name__}.{attr} ownership changed"


def test_calibrate_reports_its_layers(tmp_path):
    # the tracer wraps cli's globals: a calibrator held elsewhere (a stored
    # function object) would run unwrapped and leave its metrics at 0
    from indecide.cli import main

    path = tmp_path / "cal.csv"
    path.write_text("score,label\n0.9,1\n0.8,1\n0.3,2\n0.1,2\n")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        argv = ["calibrate", "--mode", "np", "--input", str(path), "--alpha1", "0.5", "--alpha2", "0.5"]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    spans = {span[0] for span in tracer.spans}
    assert {"cli._load_sample", "calibration.CalibrationSample", "calibration.calibrate_np"} <= spans
    # a tag that raises is only logged, and cli.rows_parsed reads this one's rows
    assert tracer.tag_errors == {}
    assert [span[4].get("rows") for span in tracer.spans if span[0] == "cli._read_table"] == [4]
