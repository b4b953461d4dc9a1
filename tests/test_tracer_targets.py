"""The benchmark's outside-in tracer still finds every name it wraps.

perfbench/tracer.py marks a metric absent, without failing, when a wrapped
name disappears from the package, so a rename would silently empty a
layer metric.  This test only reads perfbench/.
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
