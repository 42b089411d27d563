"""Every function the benchmark's tracer wraps still exists under its name.

The tracer skips a target the package no longer has, so a rename would
otherwise only show up as a per-layer metric reading 0 in a traced
benchmark run.  ``perfbench/layers.py`` is loaded from its file and only
read."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_traced_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets()
    assert targets
    # looked up as the tracer does: defined on the owner itself
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if not callable(vars(owner).get(attr))]
    assert missing == []
