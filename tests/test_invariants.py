import json

import pytest

from patcoh.catalog import build, names
from patcoh.invariants import (
    InternalConsistencyError,
    analyze,
    binom,
    euler_characteristic,
    incidence,
    k_ranks,
    rank_formulas,
)
from patcoh.model import parse_projection_data, validate
from patcoh.orbits import Arrangement, Engine
from patcoh.report import canonical_digest, compute_report
from reference import label_incidence
from test_orbits import _ammann_beenker_with, penrose


def test_binom_vanishes_out_of_range():
    assert binom(4, 2) == 6
    assert binom(4, -1) == 0
    assert binom(4, 5) == 0
    assert binom(0, 0) == 1


def test_rank_formulas_codim_one():
    # single-level arrangement with one point class
    assert rank_formulas(1, 2, 1, 1, [1], None, None) == [2, 1]
    # more classes shift only the degree-zero rank
    assert rank_formulas(1, 2, 1, 3, [3], None, None) == [4, 1]


def test_rank_formulas_codim_three_golden():
    cases = [
        ((120, [32, 46, 15], 74, [69, 9]), [180, 71, 12, 1]),
        ((145, [56, 45, 16], 75, [73, 9]), [205, 72, 13, 1]),
        ((240, [64, 76, 15], 104, [69, 9]), [330, 101, 12, 1]),
        ((10, [1, 15, 6], 15, [33, 5]), [20, 16, 7, 1]),
    ]
    for (e, L, tilde, big_r), expected_d in cases:
        d = rank_formulas(3, 2, 3, e, L, tilde, big_r + [0, 0])
        assert d == expected_d
        assert sum((-1) ** p * dp for p, dp in enumerate(d)) == e


def test_k_ranks_examples():
    assert k_ranks([1, 12, 71, 180], 3) == (192, 72)
    assert k_ranks([1, 2], 1) == (2, 1)
    assert k_ranks([7], 0) == (7, 0)


def test_euler_characteristic_codim_one_counts_points():
    for name, expected in (("fibonacci", 1),):
        arr = Engine(build(name).data).enumerate_arrangement()
        assert euler_characteristic(arr, incidence(arr)) == expected == len(arr.levels[0])


def test_analyze_fibonacci():
    rep = analyze(build("fibonacci").data)
    assert rep.status == "finite" and rep.finite
    assert rep.nu == 2 and rep.d == 1
    assert rep.L == [1] and rep.e == 1
    assert rep.H == [1, 2] and rep.K == (2, 1)


def test_analyze_danzer():
    rep = analyze(build("danzer").data)
    assert rep.status == "finite"
    assert rep.L == [1, 15, 6]
    assert rep.e == 10
    assert rep.tilde_L1 == 15
    assert rep.R[:2] == [33, 5] and rep.R[2:] == [0, 0]
    assert rep.H == [1, 7, 16, 20]
    assert sum((-1) ** p * dp for p, dp in enumerate(rep.D)) == rep.e


def test_analyze_infinite_demo():
    rep = analyze(build("infinite_demo").data)
    assert rep.status == "infinite" and not rep.finite
    assert rep.L is None and rep.H is None
    assert rep.diagnostics["full_rank"] == 3
    assert rep.diagnostics["deficient_subgroup_rank"] < 3


def test_penrose_golden():
    # the first m = 2 literature value: H = (1, 5, 8) is the cohomology of
    # the Penrose tiling space (Anderson-Putnam, Ergodic Theory Dynam.
    # Systems 18, 1998); L, e and K follow from it.  The basis (1, zeta)
    # with zeta = e^{2 pi i/5} in place of e^{4 pi i/5} presents the same
    # pattern, and its report is the same document
    doc, code = compute_report(penrose())
    assert code == 0 and doc["status"] == "finite"
    assert (doc["H"], doc["L"], doc["e"], doc["K"]) == ([1, 5, 8], [1, 5], 4, [9, 5])
    other, code = compute_report(penrose(zeta_step=1))
    assert code == 0 and canonical_digest(other) == canonical_digest(doc)


def coupled_plane():
    """A genuinely coupled two-dimensional internal space (the r_p path)."""
    doc = {
        "schema": "patcoh/1",
        "name": "coupled_plane",
        "field": {"kind": "Qsqrt", "D": 5},
        "dim": 2,
        "generators": [[["1"], ["0"]], [["0"], ["1"]],
                       [["1/2", "1/2"], ["0"]], [["0"], ["1/2", "1/2"]]],
        "hyperplanes": [{"normal": [["1"], ["0"]]}, {"normal": [["0"], ["1"]]},
                        {"normal": [["1"], ["1"]]}],
    }
    return parse_projection_data(json.dumps(doc))


# dense m = 2 geometries of the benchmark's seeded pool: Gamma = O_K^2 in
# its standard Z-basis over K = Q(sqrt 3), Q(sqrt 2) and Q(sqrt 5), and
# lines through 0
DENSE_M2 = {
    "dense-00": {
        "schema": "patcoh/1", "name": "dense-00", "field": {"kind": "Qsqrt", "D": 3},
        "dim": 2,
        "generators": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                       [["0", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]],
        "hyperplanes": [
            {"normal": [["1", "0"], ["1/2", "-1/2"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["1", "0"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["-1", "-1/3"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["0", "-1"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["-1/2", "-1/2"]], "offset": ["0", "0"]},
        ]},
    "dense-01": {
        "schema": "patcoh/1", "name": "dense-01", "field": {"kind": "Qsqrt", "D": 2},
        "dim": 2,
        "generators": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]],
                       [["0", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]],
        "hyperplanes": [
            {"normal": [["1", "0"], ["0", "-1/2"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["1", "0"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["0", "0"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["-2", "1"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["-1", "1"]], "offset": ["0", "0"]},
        ]},
    "dense-04": {
        "schema": "patcoh/1", "name": "dense-04", "field": {"kind": "Qsqrt", "D": 5},
        "dim": 2,
        "generators": [[["1", "0"], ["0", "0"]], [["1/2", "1/2"], ["0", "0"]],
                       [["0", "0"], ["1", "0"]], [["0", "0"], ["1/2", "1/2"]]],
        "hyperplanes": [
            {"normal": [["1", "0"], ["3/2", "1/2"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["1", "0"]], "offset": ["0", "0"]},
            {"normal": [["1", "0"], ["-3/2", "-1/2"]], "offset": ["0", "0"]},
        ]},
}


def dense_m2(name):
    return parse_projection_data(json.dumps(DENSE_M2[name]))


@pytest.mark.parametrize("name", DENSE_M2)
def test_dense_m2_identities(name):
    # rank H^0 is one, and the K-ranks add up to the D_p
    rep = analyze(dense_m2(name))
    assert rep.status == "finite" and rep.m == 2
    assert rep.H[0] == 1
    assert sum(rep.K) == sum(rep.D)
    assert sum((-1) ** p * dp for p, dp in enumerate(rep.D)) == rep.e


def test_analyze_codim_two_internally_consistent():
    data = coupled_plane()
    assert validate(data).ok
    rep = analyze(data)
    assert rep.status == "finite"
    assert rep.nu == 2 and rep.d == 2
    assert len(rep.L) == 2 and rep.L[0] >= 1
    assert len(rep.r) == rep.d + 1
    assert rep.H[0] == 1  # rank H^0 is always one
    assert sum((-1) ** p * dp for p, dp in enumerate(rep.D)) == rep.e
    assert sum(rep.K) == sum(rep.H)


@pytest.mark.parametrize("make", [lambda: build("danzer").data, coupled_plane]
                         + [(lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2],
                         ids=["danzer", "coupled_plane", *DENSE_M2])
def test_incidence_matches_relative_enumeration(make):
    # every class of the relative enumeration inside alpha is one global
    # class below alpha, each found once, with the same stabilizer
    eng = Engine(make())
    arr = eng.enumerate_arrangement()
    below = incidence(arr)
    by_label = {(c.direction, eng.label(c.direction, c.point)): c
                for classes in arr.levels.values() for c in classes}
    hclasses = arr.levels[eng.m - 1]
    pairs = 0
    for level, classes in arr.levels.items():
        for alpha in classes:
            rel = eng.relative_levels(alpha.direction, alpha.point, hclasses)
            found = []
            for sub_level, rel_classes in rel.items():
                for psi in rel_classes:
                    key = (psi.direction, eng.label(psi.direction, psi.point))
                    assert key in by_label, (level, alpha.id, sub_level)
                    beta = by_label[key]
                    assert beta.dim == sub_level
                    assert psi.stabilizer == beta.stabilizer
                    found.append((beta.dim, beta.id))
            expected = [(b.dim, b.id) for b in below[(level, alpha.id)]]
            assert len(set(found)) == len(found)
            assert sorted(found) == sorted(expected), (level, alpha.id)
            pairs += len(found)
    assert pairs > 0


FINITE = [nm for nm in names() if "H" in build(nm).expected]


@pytest.mark.parametrize("make", [(lambda nm=nm: build(nm).data) for nm in FINITE]
                         + [_ammann_beenker_with, coupled_plane]
                         + [(lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2],
                         ids=FINITE + ["ammann_beenker", "coupled_plane", *DENSE_M2])
def test_incidence_matches_label_scan(make):
    # the closure of the covering relation recorded while enumerating is
    # the poset that the label and containment scan finds, class by class,
    # with no class listed twice below another; the relation itself is
    # that poset's part one level down
    eng = Engine(make())
    arr = eng.enumerate_arrangement()
    below = incidence(arr)
    expected = label_incidence(eng, arr)

    def distinct(betas):
        ids = [(b.dim, b.id) for b in betas]
        assert len(set(ids)) == len(ids)
        return set(ids)

    assert below.keys() == expected.keys()
    assert set(arr.covers) == {key for key in expected if key[0] > 0}
    for key, betas in below.items():
        assert distinct(betas) == distinct(expected[key]), key
    for key, betas in arr.covers.items():
        assert distinct(betas) == {(b.dim, b.id) for b in expected[key]
                                   if b.dim == key[0] - 1}, key
    assert sum(map(len, below.values())) > 0 or eng.m == 1


def test_analyze_asks_no_orbit_label(monkeypatch):
    # labels are read off the candidates while enumerating; the incidence
    # poset asks the engine for none
    calls = []
    real = Engine.label
    monkeypatch.setattr(Engine, "label",
                        lambda self, *args: calls.append(args) or real(self, *args))
    rep = analyze(build("danzer").data)
    assert rep.H == build("danzer").expected["H"]
    assert calls == []


def test_compute_nu_rejects_bad_stabilizer():
    from patcoh.invariants import compute_nu
    from patcoh.linalg import IntLattice
    from dataclasses import replace

    data = build("fibonacci").data
    arr = Engine(data).enumerate_arrangement()
    bad = replace(arr.levels[0][0], stabilizer=IntLattice.full(2))
    broken = Arrangement(data, {0: [bad]})
    with pytest.raises(InternalConsistencyError):
        compute_nu(broken)


def test_rank_formulas_codim_three_need_tilde_l1():
    with pytest.raises(InternalConsistencyError):
        rank_formulas(3, 2, 3, 10, [1, 15, 6], None, [33, 5, 0, 0])


def test_rank_formulas_reject_unknown_codimension():
    with pytest.raises(ValueError):
        rank_formulas(4, 2, 5, 0, [1, 1, 1, 1], None, None)
