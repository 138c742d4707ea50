"""Rules on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import patcoh
import patcoh.invariants
import patcoh.orbits
import patcoh.report


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


# names the package keeps although only tests call them
TEST_ONLY = {
    "mixed_solve": "brute-force reference that Engine.label is checked against",
    "Engine.same_orbit": "pairwise form of label equality that the benchmark traces",
    "Engine.relative_levels": "per-class enumeration that the incidence poset is checked against",
}


def _uses(tree) -> Counter:
    """How often each name is read or taken as an attribute in a syntax tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_package_name_has_a_caller():
    # each module-level function or class is used elsewhere in the package
    # or exported, and each Engine method is called elsewhere in the package
    trees = [ast.parse(p.read_text())
             for p in sorted(Path(patcoh.__file__).parent.rglob("*.py"))]
    total = sum((_uses(tree) for tree in trees), Counter())
    unused = set()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if total[node.name] == _uses(node)[node.name] and node.name not in patcoh.__all__:
                unused.add(node.name)
            if node.name == "Engine":
                unused |= {f"Engine.{meth.name}" for meth in node.body
                           if isinstance(meth, ast.FunctionDef)
                           and not meth.name.startswith("__")
                           and total[meth.name] == _uses(meth)[meth.name]}
    assert unused == set(TEST_ONLY)


@pytest.mark.parametrize("callee", ["snf", "left_annihilator"])
def test_only_mixed_solve_calls(callee):
    # the engine reads labels, stabilizers and kernels off Hermite forms;
    # the Smith form and the rational annihilator stay with the test
    # reference, so the two share no normal form and no elimination
    callers = set()
    for path in sorted(Path(patcoh.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and callee in [
                    c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
                    for c in ast.walk(node) if isinstance(c, ast.Call)]:
                callers.add(node.name)
    assert callers == {"mixed_solve"}


def test_orbits_takes_each_lattice_from_one_hermite_form():
    # each frame, pair and direction reads its echelon and kernel off one
    # Hermite form through integer_kernel, never a second form of a kernel
    tree = ast.parse(Path(patcoh.orbits.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = _uses(tree)
    assert "integer_kernel" in imported and uses["integer_kernel"]
    assert "hnf" not in imported and not uses["hnf"] and not uses["from_rows"]


def test_classify_pair_does_no_field_arithmetic():
    # candidate keys are integer affine maps of the coset reps, and a cut
    # finds its sub-direction's entry by an integer key, so a pair takes no
    # field dot product, restriction, scalar matrix, inverse, element or
    # elimination in intersect or classify_pair; a new entry reads its
    # field rows off its key, with no field arithmetic or elimination
    # either: its one field call makes each element of those rows
    tree = ast.parse(Path(patcoh.orbits.__file__).read_text())
    engine = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Engine")
    for name in ("intersect", "classify_pair", "_entry"):
        method = next(n for n in engine.body
                      if isinstance(n, ast.FunctionDef) and n.name == name)
        called = {ast.unparse(c.func) for c in ast.walk(method) if isinstance(c, ast.Call)}
        field = {f for f in called if f.split(".")[-1] in (
            "dot", "restrict_scalars", "scalar_matrix", "dir_res_cols", "inverse", "rref", "FElem")
            or f.endswith("fspec.elem")}
        assert called and field == ({"self.fspec.elem"} if name == "_entry" else set()), name


def test_invariants_asks_no_label_or_containment():
    # the incidence poset is the closure of the covering relation that the
    # enumeration records, so invariants calls no label and no containment
    tree = ast.parse(Path(patcoh.invariants.__file__).read_text())
    called = {c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)
              for c in ast.walk(tree) if isinstance(c, ast.Call)}
    assert called and not called & {"label", "contains"}


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
    # the engine's field arithmetic goes through `field`, so orbits never
    # reads sqrt(D)'s D itself
    tree = ast.parse(Path(patcoh.orbits.__file__).read_text())
    assert not [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "D"]
