"""The benchmark's inputs still build, parse and give their pinned answers.

`perfbench/inputs.py` writes every input as a file, the catalog's through
the field views of `ProjectionData` (`from_catalog` reads `gens` and
`planes`), and `perfbench/run.py` runs each through the CLI and checks its
answer against `perfbench/pinned.json`.  A change that breaks either fails
here first.  Both are executed in place, so nothing is written next to
them.
"""

import json
import sys
import types
from pathlib import Path

import patcoh.cli
import patcoh.report
from patcoh.field import FElem
from patcoh.model import parse_projection_data
from test_tracing import _spans_module

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name, monkeypatch):
    """perfbench/<name>.py executed as the module `name`, which stays in
    sys.modules until the test ends."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _bench(monkeypatch):
    """(inputs, run): the benchmark's generators and harness."""
    inputs = _module("inputs", monkeypatch)
    monkeypatch.setitem(sys.modules, "spans", _spans_module())
    return inputs, _module("run", monkeypatch)


def test_every_base_gives_its_pinned_answer(tmp_path, monkeypatch):
    # each base input in its own presentation, through the harness's own
    # CLI call and answer digest, with the cap inputs' class cap
    inputs, run = _bench(monkeypatch)
    pinned = json.loads(run.PINNED.read_text())
    bases = inputs.base_inputs()
    assert sorted(inp.id for inp in bases) == sorted(pinned)
    path = tmp_path / "input.json"
    for inp in bases:
        path.write_text(inp.text)
        code, doc, err = run.run_cli(patcoh, path, inp.max_classes)
        assert err is None, (inp.id, err)
        assert (code, run.answer_digest(doc)) == (pinned[inp.id]["exit"],
                                                  pinned[inp.id]["answer"]), inp.id


def test_workload_inputs_build_no_field_element(tmp_path, monkeypatch):
    # every input of every workload at one seed parses, and the CLI builds
    # no field element on any of them: the integer form is read from the
    # file, and the catalog is not built
    inputs, run = _bench(monkeypatch)
    made = {workload: inputs.make_inputs(workload, 1) for workload in inputs.WORKLOADS}
    assert all(made.values())
    elems = []
    real = FElem.__init__
    monkeypatch.setattr(FElem, "__init__",
                        lambda self, *args: elems.append(args) or real(self, *args))
    path = tmp_path / "input.json"
    codes = set()
    for workload, items in made.items():
        for inp in items:
            assert parse_projection_data(inp.text).name == inp.base
            path.write_text(inp.text)
            code, doc, err = run.run_cli(patcoh, path, inp.max_classes)
            assert err is None and doc["name"], (workload, inp.id, err)
            codes.add(code)
    assert elems == [] and codes == {0, 2, 3, 5}
    assert FElem(1, 0, None) and len(elems) == 1  # the spy sees a field element

