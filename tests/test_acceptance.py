"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; on failure pytest shows the captured output of the failing criterion.
"""

import itertools
import random
import time

import pytest

from patcoh.catalog import build, names
from patcoh.field import dot
from patcoh.invariants import analyze, rank_formulas
from patcoh.linalg import (
    IntLattice,
    coset_reps,
    hnf,
    int_det,
    mixed_solve,
    rref,
    snf,
)
from patcoh.model import Hyperplane, ProjectionData, canonical_hyperplane
from patcoh.report import canonical_digest, compute_report

from reference import coords_of, lattice_index
from test_linalg import brute_force_box, int_matmul, rand_int_matrix, rand_unimodular

FINITE = ["fibonacci", "ammann_kramer", "canonical_d6", "dual_canonical_d6",
          "danzer"]
ICOSAHEDRAL = FINITE[1:]


def passed(num: int, desc: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {desc}")


@pytest.fixture(scope="module")
def reports():
    """One full analyze() per finite entry (keeps the arrangements)."""
    return {nm: analyze(build(nm).data) for nm in FINITE}


@pytest.fixture(scope="module")
def docs():
    """One CLI-level report per catalog entry."""
    return {nm: compute_report(build(nm).data)[0] for nm in names()}


def test_criterion_1_formula_layer_golden():
    t0 = time.monotonic()
    cases = {
        "ammann_kramer": ((120, [32, 46, 15], 74, [69, 9]), [1, 12, 71, 180]),
        "canonical_d6": ((145, [56, 45, 16], 75, [73, 9]), [1, 13, 72, 205]),
        "dual_canonical_d6": ((240, [64, 76, 15], 104, [69, 9]), [1, 12, 101, 330]),
        "danzer": ((10, [1, 15, 6], 15, [33, 5]), [1, 7, 16, 20]),
    }
    for nm, ((e, L, tilde, big_r), expected_h) in cases.items():
        d_list = rank_formulas(3, 2, 3, e, L, tilde, big_r + [0, 0])
        assert list(reversed(d_list)) == expected_h, nm
    assert time.monotonic() - t0 < 1.0
    passed(1, "closed formulas reproduce all four icosahedral golden rank rows exactly")


def test_criterion_2_end_to_end_pipeline(docs):
    for nm in ICOSAHEDRAL:
        doc = docs[nm]
        exp = build(nm).expected
        assert doc["status"] == "finite", nm
        assert doc["H"] == exp["H"], nm
        assert doc["L"] == exp["L"], nm
        assert doc["e"] == exp["e"], nm
        assert doc["tilde_L1"] == exp["tilde_L1"], nm
        assert doc["R"][:2] == exp["R"], nm
    passed(2, "pipeline reproduces every golden column for the four "
              "icosahedral entries")


def test_criterion_3_fibonacci(docs):
    t0 = time.monotonic()
    doc, _ = compute_report(build("fibonacci").data)
    assert time.monotonic() - t0 < 1.0
    assert doc["H"] == [1, 2]
    assert doc["L"] == [1]
    assert doc["e"] == 1
    passed(3, "fibonacci: H^0 = Z, H^1 = Z^2, L_0 = 1, e = 1 in under a second")


def test_criterion_4_euler_cross_check(docs):
    for nm in FINITE:
        doc = docs[nm]
        alt = sum((-1) ** p * dp for p, dp in enumerate(doc["D"]))
        assert alt == doc["e"], nm
    passed(4, "chain-count Euler characteristic equals the alternating sum "
              "of formula ranks on every finite entry")


def test_criterion_5_stabilizer_rank_law(reports):
    for nm, rep in reports.items():
        nu = rep.n // rep.m
        for level, classes in rep.arrangement.levels.items():
            for cls in classes:
                assert cls.stabilizer.rank == nu * level, (nm, level, cls.id)
    passed(5, "every enumerated class satisfies rank(stabilizer) = nu * dim")


# -- criterion 6: invariance under input presentation --------------------------

def _field_inverse(rows, field):
    m = len(rows)
    aug = [list(rows[i]) + [field.one if i == j else field.zero
                            for j in range(m)] for i in range(m)]
    red = rref(aug)
    if len(red) < m:
        return None
    return [tuple(red[i][m:]) for i in range(m)]


def _rand_felem(field, rng, nonzero=False):
    while True:
        a = rng.randint(-2, 2)
        b = rng.randint(-1, 1) if field.degree == 2 else 0
        x = field.elem(a, b)
        if x or not nonzero:
            return x


def _unimodular_gens(data, rng):
    u = rand_unimodular(rng, data.n)
    gens = tuple(
        tuple(sum((data.field.elem(u[i][j]) * data.gens[j][c] for j in range(data.n)),
                  data.field.zero) for c in range(data.m))
        for i in range(data.n))
    return ProjectionData(data.field, data.m, gens, data.planes, data.name)


def _permute_rescale_planes(data, rng):
    planes = list(data.planes)
    rng.shuffle(planes)
    scaled = tuple(
        canonical_hyperplane(Hyperplane(
            tuple(lam * x for x in h.normal), lam * h.offset))
        for h, lam in ((h, _rand_felem(data.field, rng, nonzero=True))
                       for h in planes))
    return ProjectionData(data.field, data.m, data.gens, scaled, data.name)


def _gl_map(data, rng):
    # permutation composed with an elementary shear: invertible and keeps
    # coordinate growth small enough for the heavy entries
    m = data.m
    fs = data.field
    perm = list(range(m))
    rng.shuffle(perm)
    t = [[fs.one if perm[i] == j else fs.zero for j in range(m)]
         for i in range(m)]
    if m > 1:
        i, j = rng.sample(range(m), 2)
        lam = rng.choice([fs.one, -fs.one, fs.elem("1/2", "1/2"),
                          fs.elem("1/2", "-1/2")] if fs.degree == 2
                         else [fs.one, -fs.one, fs.elem(2)])
        t[i] = [x + lam * y for x, y in zip(t[i], t[j])]
    else:
        t[0] = [t[0][0] + t[0][0]]
    t = [tuple(row) for row in t]
    tinv = _field_inverse(t, data.field)
    assert tinv is not None
    gens = tuple(tuple(dot(row, g) for row in t) for g in data.gens)
    planes = tuple(
        canonical_hyperplane(Hyperplane(
            tuple(dot(h.normal, tuple(r[j] for r in tinv)) for j in range(m)),
            h.offset))
        for h in data.planes)
    return ProjectionData(data.field, m, gens, planes, data.name)


def _inject_duplicate_plane(data, rng):
    h = rng.choice(data.planes)
    y = [rng.randint(-3, 3) for _ in range(data.n)]
    shift = data.field.zero
    for yi, g in zip(y, data.gens):
        if yi:
            shift = shift + data.field.elem(yi) * dot(h.normal, g)
    extra = canonical_hyperplane(Hyperplane(h.normal, h.offset + shift))
    return ProjectionData(data.field, data.m, data.gens,
                          data.planes + (extra,), data.name)


_TRANSFORMS = [_unimodular_gens, _permute_rescale_planes, _gl_map,
               _inject_duplicate_plane]


def test_criterion_6_invariance_suite(docs):
    for nm in names():
        base = canonical_digest(docs[nm])
        rng = random.Random(sum(map(ord, nm)))
        for k in range(10):
            transform = _TRANSFORMS[k % len(_TRANSFORMS)]
            mutated = transform(build(nm).data, rng)
            doc, _ = compute_report(mutated)
            assert canonical_digest(doc) == base, (nm, transform.__name__, k)
    passed(6, "10 randomized re-presentations of every entry leave the "
              "canonical report byte-identical")


def test_criterion_7_infinite_and_decomposable(docs):
    doc = docs["infinite_demo"]
    assert doc["status"] == "infinite"
    diag = doc["diagnostics"]
    assert diag["deficient_subgroup_rank"] < diag["full_rank"] == 3
    assert "witness_pair" in diag and "witness_level" in diag

    doc = docs["square_fibonacci"]
    assert doc["status"] == "validation_error"
    codes = [f["code"] for f in doc["validation"]["findings"]]
    assert "decomposable" in codes
    passed(7, "infinite arrangement detected with a rank witness; "
              "decomposable input rejected by validation")


def test_criterion_8_linear_algebra_properties():
    rng = random.Random(2026)
    for _ in range(30):
        m = rand_int_matrix(rng, 3, 4)
        p = rand_unimodular(rng, 3)
        assert hnf(m) == hnf(int_matmul(p, m))
    for _ in range(30):
        m = rand_int_matrix(rng, 3, 3)
        d, u, v = snf(m)
        diag = [d[i][i] for i in range(3)]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0
        assert abs(diag[0] * diag[1] * diag[2]) == abs(int_det(m))
    counted = 0
    while counted < 20:
        rows = rand_int_matrix(rng, 2, 2, -4, 4)
        if int_det(rows) == 0:
            continue
        sub = IntLattice.from_rows(2, rows)
        assert len(coset_reps(sub)) == lattice_index(IntLattice.full(2), sub)
        counted += 1
    from fractions import Fraction as F
    checked = 0
    while checked < 100:
        k = rng.randint(1, 2)
        r = rng.randint(1, 3)
        s = rng.randint(0, 2)
        a_rows = [[F(rng.randint(-5, 5)) for _ in range(k)] for _ in range(r)]
        b_rows = [[F(rng.randint(-5, 5)) for _ in range(s)] for _ in range(r)]
        c = [F(rng.randint(-5, 5)) for _ in range(r)]
        sol = mixed_solve(a_rows, b_rows, c, k)
        expected = brute_force_box(a_rows, b_rows, c, k)
        if sol is None:
            assert not expected
        else:
            got = {x for x in itertools.product(range(-8, 9), repeat=k)
                   if coords_of(sol.lattice,
                                [a - b for a, b in zip(x, sol.base)]) is not None}
            assert got == expected
        checked += 1
    passed(8, "HNF canonicity, SNF divisibility/|det|, coset counts, and "
              "100 mixed-solver brute-force comparisons all hold")


def test_criterion_9_k_rank_bookkeeping(docs):
    assert docs["ammann_kramer"]["K"] == [192, 72]
    for nm in FINITE:
        doc = docs[nm]
        assert sum(doc["K"]) == sum(doc["D"]), nm
    passed(9, "K-group ranks: (192, 72) for ammann_kramer and "
              "rank K_0 + rank K_1 = sum of all D_p on finite entries")
