"""Rules on the package source itself."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import patcoh
import patcoh.field
import patcoh.invariants
import patcoh.model
import patcoh.orbits
import patcoh.report
from patcoh.catalog import build
from test_tracing import _spans_module


def test_no_assert_statements_in_package():
    # assert vanishes under `python -O`; control flow raises real errors
    files = sorted(Path(patcoh.__file__).parent.rglob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def _uses(tree) -> Counter:
    """How often each name is read or taken as an attribute in a syntax tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(trees, methods_of=()):
    """(defs, top): each module-level function and class of the syntax trees
    with the names it uses, each method of the classes `methods_of` other
    than dunders as its own `Class.method` entry, and the names used at
    module level outside every definition."""
    defs, top = {}, Counter()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top += _uses(node)
                continue
            defs[node.name] = _uses(node)
            if node.name in methods_of:
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("__"):
                        defs[f"{node.name}.{meth.name}"] = _uses(meth)
                        defs[node.name] -= _uses(meth)
    return defs, top


def _reached(defs, roots) -> set:
    """The definitions reached from the names `roots`: one is reached when
    its name, a method's without its class, is a root or is used by a
    reached definition."""
    reached, names = set(), set(roots)
    while new := {key for key in defs if key not in reached and key.split(".")[-1] in names}:
        reached |= new
        names.update(*(defs[key] for key in new))
    return reached


def _spans_wrapped() -> set:
    """The package functions and Engine methods the benchmark's tracer wraps."""
    spans = _spans_module()
    return ({attr for _, _, attr, _, _ in spans.FUNCTIONS}
            | {attr for _, attr, _, _ in spans.ENGINE_METHODS})


def test_every_package_name_has_a_caller():
    # each module-level function or class and each Engine method is reached
    # from what the package exports or runs at module level, through the
    # names each reached one uses; the only others are the names the
    # benchmark's tracer wraps and those that only they reach
    defs, top = _definitions([tree for _, tree in _package_trees()], methods_of={"Engine"})
    traced = _reached(defs, set(top) | set(patcoh.__all__) | _spans_wrapped())
    assert set(defs) - traced == set()


def test_every_reference_helper_has_a_test_caller():
    # the slower references live in tests/reference.py; each is reached
    # from the test modules, directly or through another reference
    tests = Path(__file__).resolve().parent
    defs, _ = _definitions([ast.parse((tests / "reference.py").read_text())])
    roots = sum((_uses(ast.parse(path.read_text())) for path in sorted(tests.glob("test_*.py"))),
                Counter())
    assert set(defs) - _reached(defs, roots) == set()


def test_no_test_reads_a_frame():
    # a test that reads a local variable off a package function's frame
    # breaks when that local is renamed or the loop around it changes, so
    # the tests spy on calls and read results, never a frame
    tests = Path(__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(tests.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Name, ast.Attribute))
             and (node.id if isinstance(node, ast.Name) else node.attr)
             in {"_getframe", "currentframe", "f_locals", "f_back"}]
    assert found == []


@pytest.mark.parametrize("callee", ["snf", "left_annihilator"])
def test_no_package_function_calls(callee):
    # the engine reads labels, stabilizers and kernels off Hermite forms;
    # the Smith form and the rational annihilator serve the tests' mixed
    # solver, so the two share no normal form and no elimination
    callers = set()
    for path in sorted(Path(patcoh.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and callee in [
                    c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
                    for c in ast.walk(node) if isinstance(c, ast.Call)]:
                callers.add(node.name)
    assert callers == set()


def test_orbits_takes_each_lattice_from_one_hermite_form():
    # a new direction's rows are its parent's and its plane's form, so its
    # one Hermite form is its frame; that frame and each pair read echelon and
    # kernel off one form through integer_kernel, never a second form of
    # a kernel
    tree = ast.parse(Path(patcoh.orbits.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = _uses(tree)
    assert "integer_kernel" in imported and uses["integer_kernel"]
    assert "hnf" not in imported and not uses["hnf"] and not uses["from_rows"]
    engine = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Engine")
    entry = next(n for n in engine.body if isinstance(n, ast.FunctionDef) and n.name == "_entry")
    assert [ast.unparse(c.func) for c in ast.walk(entry)
            if isinstance(c, ast.Call)].count("integer_kernel") == 1


def _engine_methods():
    """The syntax tree of each Engine method, by name."""
    tree = ast.parse(Path(patcoh.orbits.__file__).read_text())
    engine = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Engine")
    return {n.name: n for n in engine.body if isinstance(n, ast.FunctionDef)}


def _engine_method(name):
    """The syntax tree of the Engine method `name`."""
    return _engine_methods()[name]


def _engine_calls(name):
    """The callee of each call in the Engine method `name`, as source text."""
    return {ast.unparse(c.func) for c in ast.walk(_engine_method(name)) if isinstance(c, ast.Call)}


def test_classify_pair_does_no_field_arithmetic():
    # a candidate's point and its label are integer maps of its coset rep,
    # and a cut finds its sub-direction's entry by an integer key, so a pair takes no
    # field dot product, restriction, scalar matrix, inverse, element or
    # elimination in intersect or classify_pair; a new entry is built from
    # its parent's and its plane's integers with none of them either
    for name in ("intersect", "classify_pair", "_entry"):
        called = _engine_calls(name)
        field = {f for f in called if f.split(".")[-1] in (
            "dot", "restrict_scalars", "scalar_matrix", "dir_res_cols", "inverse", "rref", "FElem")
            or f.endswith("fspec.elem")}
        assert called and field == set(), name


def test_one_index_read_per_pair(monkeypatch):
    # build_level reads each pair's index off one row of pair_indices per
    # distinct parent direction, and decides there whether to cut the
    # pair; intersect takes that index as a required argument and reads
    # none itself
    sites = []
    for path in sorted(Path(patcoh.__file__).parent.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                sites += [(path.name, fn.name) for c in ast.walk(fn) if isinstance(c, ast.Call)
                          and ast.unparse(c.func).split(".")[-1] == "pair_indices"]
    assert sites == [("orbits.py", "build_level")]
    assert not {"self.pair_indices", "minor_gcd"} & _engine_calls("intersect")
    intersect = _engine_method("intersect").args
    assert not intersect.defaults and intersect.args[-1].arg == "index"
    Engine = patcoh.orbits.Engine
    real_level, real_indices, rows, made = Engine.build_level, Engine.pair_indices, [], [0]

    def level_spy(self, parents, hclasses, *args, **kwargs):
        rows.clear()
        out = real_level(self, parents, hclasses, *args, **kwargs)
        # one row at most per distinct parent direction, over every plane
        entries = {id(p.entry): p.stabilizer for p in parents}
        assert not Counter(stab for stab, _ in rows) - Counter(entries.values())
        assert all(planes == [hc.plane for hc in hclasses] for _, planes in rows)
        made[0] += len(rows)
        return out

    monkeypatch.setattr(Engine, "build_level", level_spy)
    monkeypatch.setattr(Engine, "pair_indices", lambda self, stab, planes:
                        rows.append((stab, planes)) or real_indices(self, stab, planes))
    for name in ["danzer", "ammann_kramer", "fibonacci"]:
        patcoh.invariants.analyze(build(name).data)
    assert made[0]


def test_only_entries_read_the_generators():
    # a new direction's entry takes the parent's images of the generators;
    # every other lattice question of the engine is asked in the
    # coordinates of Z^n or of a plane's table
    readers = {name for name, meth in _engine_methods().items() if "gen_ints" in _uses(meth)}
    assert readers == {"_entry"}


@pytest.mark.parametrize("name", ["point", "_entry", "intersect", "classify_pair",
                                  "build_level", "hyperplane_classes"])
def test_level_loop_builds_no_field_element(name):
    # a class is an integer record: the level loop makes no field element
    # or rational and takes no field dot product
    called = _engine_calls(name)
    field = {f for f in called if f.split(".")[-1] in ("elem", "FElem", "Fraction", "dot")}
    assert called and not field, (name, field)


def _attributes(node) -> set:
    """Every attribute read in a syntax tree, as source text."""
    return {ast.unparse(n) for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_validate_pairs_normals_in_integers():
    # the density check and the engine's hyperplane pass read the same
    # integer pairing tables, the data's `tables`, and neither builds one
    # or takes a field dot product; the density check reads each plane's
    # rank off its table, so validate takes one rank, the generators'; the
    # normals' rank and supports come off the integer key of the records'
    # forms, with no generator, so normal_supports reads no table and
    # restricts, clears and multiplies nothing itself; validate takes no
    # field rref and model imports none
    tree = ast.parse(Path(patcoh.model.__file__).read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    calls = [ast.unparse(c.func) for c in ast.walk(funcs["validate"]) if isinstance(c, ast.Call)]
    called = set(calls)
    assert "data.tables" in _attributes(funcs["validate"])
    assert not {"plane_table", "dot", "clear_denominators"} & called
    assert calls.count("rat_rank") == 1
    assert "self.data.tables" in _attributes(_engine_method("hyperplane_classes"))
    assert "plane_table" not in _engine_calls("hyperplane_classes")
    supports = {ast.unparse(c.func) for c in ast.walk(funcs["normal_supports"])
                if isinstance(c, ast.Call)}
    attributes = _attributes(funcs["normal_supports"])
    assert "data.records" in attributes and "data.tables" not in attributes
    assert {"primitive_rref", "_form"} <= supports
    assert not {"restrict_scalars", "clear_denominators", "res_mul", "plane_table"} & supports
    called |= supports
    assert "normal_supports" in called
    assert not {f for f in called if f.split(".")[-1] in ("rref", "inverse")}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "rref" not in imported


def test_invariants_asks_no_label_or_containment():
    # the incidence poset is the closure of the covering relation that the
    # enumeration records, so invariants calls no label and no containment
    tree = ast.parse(Path(patcoh.invariants.__file__).read_text())
    called = {c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
              for c in ast.walk(tree) if isinstance(c, ast.Call)}
    assert called and not called & {"label", "contains"}


def test_no_dataclasses_and_hashlib_only_in_the_digest():
    # start-up is most of a small input's run: the value records are named
    # tuples and slotted classes, not dataclasses, whose import pulls in
    # `inspect` and whose code generation runs at import, and only
    # `canonical_digest`, which no command calls, imports hashlib
    found = []
    for name, tree in _package_trees():
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(name, owner.get(node), mod) for mod in modules
                      if mod.split(".")[0] in ("dataclasses", "hashlib")]
    assert found == [("report.py", "canonical_digest", "hashlib")]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    # a fresh interpreter that imports the command line adds none of these
    # to what a bare interpreter has loaded
    env = {**os.environ, "PYTHONPATH": str(Path(patcoh.__file__).resolve().parents[1])}

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", f"{code}import sys; print(*sys.modules)"],
                             env=env, capture_output=True, text=True, timeout=60, check=True)
        return set(out.stdout.split())

    added = loaded("import patcoh.cli; ") - loaded("")
    assert "patcoh.cli" in added
    assert not added & {"dataclasses", "inspect", "hashlib"}, added


def test_only_analyze_names_engine():
    # analyze builds the engine; every other step of invariants reads the
    # Arrangement that the enumeration hands over
    tree = ast.parse(Path(patcoh.invariants.__file__).read_text())
    analyze = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "analyze")
    assert _uses(tree)["Engine"] == _uses(analyze)["Engine"] > 0


def test_report_imports_no_private_name():
    # the report reads the schema's JSON encoders through model's public names
    tree = ast.parse(Path(patcoh.report.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert imported and not [name for name in imported if name.startswith("_")]


def test_orbits_reads_no_field_discriminant():
    # the field's rules live in `field` (res_mul, res_adjugate), so neither
    # the engine nor the plane tables read sqrt(D)'s D themselves; only the
    # schema's encoder `field_json` writes it out
    for module in (patcoh.orbits, patcoh.model):
        tree = ast.parse(Path(module.__file__).read_text())
        tree.body = [node for node in tree.body
                     if not (isinstance(node, ast.FunctionDef) and node.name == "field_json")]
        assert not [ast.unparse(node) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "D"], module.__name__


def test_scalar_matrix_lives_only_in_the_test_reference():
    # the product rule is stated once, in field.res_mul; the closed-form
    # scalar matrix is the tests' independent reference, and so are the
    # mixed solver, its coset and the lattice helpers only it used
    defined = {node.name for path in Path(patcoh.__file__).parent.rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"scalar_matrix", "pairing_table", "_Normal", "_plane", "mixed_solve",
                          "Coset", "int_matvec", "from_rows", "reduce"}
    assert {"res_mul", "res_adjugate", "plane_table", "PlaneTable"} <= defined


def _package_trees():
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(Path(patcoh.__file__).parent.rglob("*.py"))]


def test_no_rational_field_branch():
    # Q is refused at parse, so the package keeps no rational field object
    # and no degree-1 arm: nothing compares a degree or a length of field
    # coordinates with 1, and minor_gcd compares its d with nothing but 2
    found = []
    for name, tree in _package_trees():
        found += [f"{name}: defines QQ" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "QQ"
                  and isinstance(node.ctx, ast.Store)]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Compare)
                    and all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    and any(isinstance(c, ast.Constant) and c.value == 1
                            for c in node.comparators)):
                continue
            left = node.left
            if (isinstance(left, ast.Attribute) and left.attr == "degree") or (
                    isinstance(left, ast.Call) and ast.unparse(left.func) == "len"):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name == "minor_gcd":
                found += [f"{name}:{n.lineno}: {ast.unparse(n)}" for n in ast.walk(func)
                          if isinstance(n, ast.Compare) and ast.unparse(n) != "d == 2"]
    assert not found, found
    assert "QQ" not in patcoh.__all__ and not hasattr(patcoh.field, "QQ")


def test_only_projection_data_derives_the_integer_form():
    # an input's integer form is built in one place per source: parse
    # clears the generators and makes each plane's record, and for field
    # values (from_field, canonical_hyperplane and the catalog) gen_ints_of
    # and record_of do; the plane tables are the data's lazily built
    # `tables`.  No other code calls plane_table, clears rationals or makes
    # a record
    sites = []
    for name, tree in _package_trees():
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, (ast.ClassDef, ast.FunctionDef)):
                for node in ast.walk(cls):
                    owner.setdefault(node, cls.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func).split(".")[-1]
            if func in ("plane_table", "_clear", "_plane_record", "clear_denominators"):
                sites.append((name, owner.get(node), func))
    assert sorted(sites) == [("linalg.py", "rat_rank", "clear_denominators"),
                             ("model.py", "ProjectionData", "plane_table"),
                             ("model.py", "_plane_record", "_clear"),
                             ("model.py", "gen_ints_of", "_clear"),
                             ("model.py", "parse_projection_data", "_clear"),
                             ("model.py", "parse_projection_data", "_plane_record"),
                             ("model.py", "record_of", "_plane_record")]


def test_levels_cut_from_what_each_class_carries():
    # a class carries the entry its cut found and its point's integer
    # coordinates, so the level loop and the hyperplane pass turn no field
    # element back into a direction entry or an integer point, and a
    # relative enumeration starts from the class itself.  Each candidate
    # carries its point, so the level loop works out none; a cut holds no
    # affine copy of the label (shift rows, base image), only `inv`, 1 /
    # (den a) over lcd, for the shift of a nonzero rep, and no copy of its
    # plane's tables, classify_pair reads the stabilizers and the plane off the
    # classes it is handed, and `label` is the one method that reduces a
    # point to an orbit key
    tree = ast.parse(Path(patcoh.orbits.__file__).read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    methods = {n.name: n for n in classes["Engine"].body if isinstance(n, ast.FunctionDef)}
    rederive = {"_direction", "dir_res_cols", "restrict_scalars", "clear_denominators",
                "scalar_matrix"}
    for name, banned in (("build_level", rederive | {"point"}),
                         ("hyperplane_classes", rederive),
                         ("relative_levels", {"_direction"})):
        called = {c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
                  for c in ast.walk(methods[name]) if isinstance(c, ast.Call)}
        assert called and not called & banned, (name, called & banned)
    fields = {n.target.id for n in classes["_Cut"].body if isinstance(n, ast.AnnAssign)}
    assert {"sub", "res", "inv"} <= fields and not fields & {"rw", "base", "normal", "cs"}
    assert [a.arg for a in methods["classify_pair"].args.args] == [
        "self", "parent", "hclass", "level", "cut"]
    reducers = {name for name, meth in methods.items()
                if "remainder" in {ast.unparse(c.func) for c in ast.walk(meth)
                                   if isinstance(c, ast.Call)}}
    assert reducers == {"label"}


def test_engine_classifies_under_gamma_only():
    # relative classes inside alpha are the Gamma-orbits there, so no
    # Engine method takes a group, and each direction entry holds its one
    # frame rather than a frame per group
    tree = ast.parse(Path(patcoh.orbits.__file__).read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    takes_group = [meth.name for meth in classes["Engine"].body
                   if isinstance(meth, ast.FunctionDef)
                   and "group" in {a.arg for a in ast.walk(meth.args) if isinstance(a, ast.arg)}]
    assert takes_group == []
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_frame" not in defined
    fields = set(patcoh.orbits._Direction.__slots__)
    assert {"echelon", "stab"} <= fields and not fields & {"frames", "vals"}
