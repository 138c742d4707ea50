"""The benchmark's tracer still finds every name it wraps.

`perfbench/spans.py` wraps package functions and `Engine` methods by name
and tags each `build_level` span with its `level`, read from the keyword or
the fifth positional argument.  A rename or a changed call there breaks
`perfbench/run.py --trace 1`; this test makes it fail here first.  The
tracer's source is executed in place, so nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

from patcoh.catalog import build
from patcoh.invariants import analyze
from patcoh.orbits import Engine

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_wraps_every_name_and_tags_each_level():
    spans = _spans_module()
    missing = [f"{module}.{attr}" for _, module, attr, _, _ in spans.FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    missing += [f"Engine.{attr}" for _, attr, _, _ in spans.ENGINE_METHODS
                if attr not in Engine.__dict__]
    assert missing == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_input("danzer")
        rep = analyze(build("danzer").data)
    finally:
        tracer.uninstall()
    assert rep.H == build("danzer").expected["H"]
    assert all(not hasattr(Engine.__dict__[attr], "__wrapped__")
               for _, attr, _, _ in spans.ENGINE_METHODS)
    build_idx = tracer.name_of["orbits.build_level"]
    tags = {tag for idx, tag in zip(tracer.name_idx, tracer.tag) if idx == build_idx}
    assert tags == {0, 1}  # the hyperplane classes are read off their tables
    summary, _ = tracer.summary()
    assert summary["orbits.classify_pair"]["calls"] == 19
    assert summary["orbits.level0"]["total_s"] > 0
