"""Spans around the public functions of each `patcoh` layer, from outside.

`Tracer.install()` replaces each traced function by a wrapper at every module
attribute that refers to it (so `from .linalg import snf` sites are covered)
and each traced `Engine` method on the class; `uninstall()` puts the
originals back.  A span records its name, parent span, input index, start,
end, a small result count and a tag; spans live in flat arrays until
`write()` dumps them.  `summary()` derives self times, counts and ratios.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path

MODULES = ("patcoh", "patcoh.model", "patcoh.orbits", "patcoh.invariants",
           "patcoh.linalg", "patcoh.report", "patcoh.cli", "patcoh.catalog")


def _len_of(result):
    return len(result)


def _classify_count(result):
    return len(result[1])


def _hit(result):
    return int(result is True)


def _level_tag(args, kwargs):
    """`level` of Engine.build_level(self, parents, hclasses, group, level)."""
    return kwargs.get("level", args[4] if len(args) > 4 else -1)


# (span name, module, attribute, result count, tag from args)
FUNCTIONS = (
    ("model.parse", "patcoh.model", "parse_projection_data", None, None),
    ("model.validate", "patcoh.model", "validate", None, None),
    ("linalg.rref", "patcoh.linalg", "rref", None, None),
    ("linalg.rat_rank", "patcoh.linalg", "rat_rank", None, None),
    ("linalg.left_annihilator", "patcoh.linalg", "left_annihilator", None, None),
    ("linalg.hnf", "patcoh.linalg", "hnf", None, None),
    ("linalg.snf", "patcoh.linalg", "snf", None, None),
    ("linalg.integer_kernel", "patcoh.linalg", "integer_kernel", None, None),
    ("linalg.coset_reps", "patcoh.linalg", "coset_reps", _len_of, None),
    ("invariants.wedge", "patcoh.linalg", "wedge_span_rank", None, None),
    ("invariants.analyze", "patcoh.invariants", "analyze", None, None),
    ("invariants.euler", "patcoh.invariants", "euler_characteristic", None, None),
    ("invariants.formulas", "patcoh.invariants", "rank_formulas", None, None),
    ("report.compute_report", "patcoh.report", "compute_report", None, None),
    ("report.canonical_digest", "patcoh.report", "canonical_digest", None, None),
)

# (span name, Engine method, result count, tag from args)
ENGINE_METHODS = (
    ("orbits.enumerate_arrangement", "enumerate_arrangement", None, None),
    ("orbits.hyperplane_classes", "hyperplane_classes", None, None),
    ("orbits.build_level", "build_level", _len_of, _level_tag),
    ("orbits.classify_pair", "classify_pair", _classify_count, None),
    ("orbits.same_orbit", "same_orbit", _hit, None),
    ("orbits.relative_levels", "relative_levels", None, None),
    ("orbits.stabilizer", "stabilizer", None, None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.inputs: list[str] = []
        self.input = -1
        self.name_idx = array("i")
        self.parent = array("q")
        self.input_idx = array("i")
        self.value = array("q")
        self.tag = array("i")
        self.outer = array("b")     # 1 when no enclosing span has the same name
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self._depth: list[int] = []
        self._saved: list = []

    def begin_input(self, input_id: str) -> None:
        self.inputs.append(input_id)
        self.input = len(self.inputs) - 1

    def _wrap(self, name, fn, count, tag):
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        idx = self.name_of[name]
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        name_idx, parent, input_idx = self.name_idx, self.parent, self.input_idx
        value, tags, outer, t0s, t1s = self.value, self.tag, self.outer, self.t0, self.t1

        def traced(*args, **kwargs):
            sid = len(t0s)
            name_idx.append(idx)
            parent.append(stack[-1])
            input_idx.append(self.input)
            tags.append(tag(args, kwargs) if tag else -1)
            outer.append(depth[idx] == 0)
            value.append(0)
            t1s.append(0.0)
            stack.append(sid)
            depth[idx] += 1
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                depth[idx] -= 1
                stack.pop()
            if count:
                value[sid] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, module, attr, count, tag in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, count, tag)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        from patcoh.orbits import Engine
        for name, attr, count, tag in ENGINE_METHODS:
            original = Engine.__dict__[attr]
            self._saved.append((Engine, attr, original))
            setattr(Engine, attr, self._wrap(name, original, count, tag))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.t0)

    def write(self, stem: Path) -> None:
        """`<stem>.json` holds the names, inputs and the array layout;
        `<stem>.bin` the arrays, back to back, in native byte order."""
        arrays = ("name_idx", "parent", "input_idx", "value", "tag", "outer", "t0", "t1")
        header = {"spans": len(self), "names": self.names, "inputs": self.inputs,
                  "arrays": [[a, getattr(self, a).typecode] for a in arrays]}
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1))
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for a in arrays:
                getattr(self, a).tofile(fh)

    def summary(self) -> tuple[dict[str, dict], dict[str, dict[str, float]]]:
        """Per span name: calls, total (outermost spans only), self time and
        the summed result counts; plus global level 0 (build_level at level
        0 directly under enumerate_arrangement).  Second, self time per
        input id and span name."""
        n = len(self)
        child = [0.0] * n
        t0, t1, parent = self.t0, self.t1, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        out = {nm: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
               for nm in self.names}
        by_input: dict[str, dict[str, float]] = {}
        level0 = 0.0
        enum_idx = self.name_of.get("orbits.enumerate_arrangement", -2)
        build_idx = self.name_of.get("orbits.build_level", -2)
        for i in range(n):
            rec = out[self.names[self.name_idx[i]]]
            dur = t1[i] - t0[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            per = by_input.setdefault(self.inputs[self.input_idx[i]], {})
            per[self.names[self.name_idx[i]]] = (
                per.get(self.names[self.name_idx[i]], 0.0) + dur - child[i])
            rec["count"] += self.value[i]
            if self.outer[i]:
                rec["total_s"] += dur
            if (self.name_idx[i] == build_idx and self.tag[i] == 0
                    and parent[i] >= 0 and self.name_idx[parent[i]] == enum_idx):
                level0 += dur
        out["orbits.level0"] = {"calls": 0, "total_s": level0, "self_s": 0.0, "count": 0}
        return out, by_input
