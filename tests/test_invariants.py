import json
import random

import pytest

import patcoh.invariants
import patcoh.linalg
from patcoh.catalog import build, names
from patcoh.field import dot, quadratic, restrict_scalars
from patcoh.invariants import (
    InternalConsistencyError,
    analyze,
    binom,
    compute_nu,
    euler_characteristic,
    incidence,
    k_ranks,
    rank_formulas,
)
from patcoh.linalg import clear_denominators, kernel_top_wedge
from patcoh.model import (Hyperplane, canonical_hyperplane, from_field, parse_projection_data,
                          validate)
from patcoh.orbits import Arrangement, Engine, InfiniteArrangement
from patcoh.report import canonical_digest, compute_report
from reference import (cut_hyperplane_classes, entry_of, field_class, field_direction,
                       field_label, field_plane, field_point, label_incidence, maximal_minors,
                       rank_formulas_by_codimension, wedge_span_rank_by_minors)
from test_acceptance import _TRANSFORMS, _translate
from test_cli import tau_lattice_m4
from test_orbits import (DENSE_M2, INPUT_PLANE_CASES, _ammann_beenker_with, _check_annihilator,
                         _index_reads_and_cuts, dense_m2, penrose)


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


def test_rank_formulas_codim_two_golden():
    # Penrose, H = (1, 5, 8) (Anderson-Putnam), and Ammann-Beenker, H =
    # (1, 5, 9), a regression value: nu = 2, d = 2, with (e, L, r) read
    # off their arrangements
    cases = {"penrose": (penrose, (4, [1, 5], [4, 0, 0]), [8, 5, 1]),
             "ammann_beenker": (_ammann_beenker_with, (5, [3, 4], [3, 0, 0]), [9, 5, 1])}
    for name, (make, (e, L, r), expected_d) in cases.items():
        rep = analyze(make())
        assert (rep.e, rep.L, rep.r) == (e, L, r), name
        assert rank_formulas(2, 2, 2, e, L, None, r) == expected_d, name


def _outcome(formulas, *args):
    """The list `formulas` returns on args, or the type of what it raises."""
    try:
        return formulas(*args)
    except (InternalConsistencyError, ValueError) as exc:
        return type(exc)


def test_rank_formulas_match_the_branches_by_codimension():
    # seeded arguments for m = 1, 2, 3 and nu = 1 .. 4, with tilde_L1 or the
    # wedge ranks sometimes missing and wedge lists of every length around
    # d + 1: the one formula returns or raises as the per-codimension
    # branches do
    rng = random.Random("rank_formulas")
    raised = 0
    for _ in range(1500):
        m, nu = rng.randint(1, 3), rng.randint(1, 4)
        d = (nu - 1) * m
        L = [rng.randint(1, 80) for _ in range(m)]
        tilde = None if rng.random() < 0.1 else rng.randint(0, 120)
        wedges = (None if rng.random() < 0.1
                  else [rng.randint(0, 90) for _ in range(rng.randint(0, d + 2))])
        args = (m, nu, d, rng.randint(-50, 400), L, tilde, wedges)
        expected = _outcome(rank_formulas_by_codimension, *args)
        assert _outcome(rank_formulas, *args) == expected, args
        raised += expected is InternalConsistencyError
    assert raised > 100


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


# exit code and canonical digest of the report with the arrangement dumped
# (every class's direction and point as rational strings), for the dense
# m = 2 fixtures over Q(sqrt 3), Q(sqrt 2), Q(sqrt 5) and for Penrose in
# both presentations; pinned before classes became integer records
PINNED_DUMPS = {
    "dense-00": (0, "e94bba46a6dfe7aaaba718bed165ed9e7732d313aa00744aab9981d9be489e1c"),
    "dense-01": (0, "0c98f96a3254d27dfe4a7b8aa92c2cc1d4b44f42048957cf3586ef20daa5f971"),
    "dense-04": (0, "268e88360bd716cd867fb9a6e8ff0a89bc4d04cfea1a26c83605358f9d2c9cd0"),
    "penrose": (0, "2211445fc73e0490c3af480d4c5441d851911055641db120d9a1b499ecb504a6"),
    "penrose_zeta1": (0, "88f04181d67e17200bfc3c96fb1e81bf24bbadf5ffc979b38c336a7aba59035a"),
}


@pytest.mark.parametrize("name", PINNED_DUMPS)
def test_arrangement_dump_is_pinned(name):
    data = (penrose() if name == "penrose" else penrose(zeta_step=1) if name == "penrose_zeta1"
            else dense_m2(name))
    doc, code = compute_report(data, dump_arrangement=True)
    assert (code, canonical_digest(doc)) == PINNED_DUMPS[name]


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


@pytest.mark.parametrize("name", DENSE_M2)
def test_dense_m2_identities(name):
    # rank H^0 is one, and the K-ranks add up to the D_p
    rep = analyze(dense_m2(name))
    assert rep.status == "finite" and rep.m == 2
    assert rep.H[0] == 1
    assert sum(rep.K) == sum(rep.D)
    assert sum((-1) ** p * dp for p, dp in enumerate(rep.D)) == rep.e


_CARRIED = {**{nm: (lambda nm=nm: build(nm).data)
               for nm in ["danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6"]},
            "ammann_beenker": _ammann_beenker_with, "penrose": penrose,
            **{nm: (lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2}}


@pytest.mark.parametrize("name", _CARRIED)
def test_classes_carry_their_entry_and_integer_point(name):
    # the entry and res a class carries are what its field direction and
    # point give back (res in lowest terms), on every class of the
    # enumeration and of the relative enumeration inside one plane class;
    # a hyperplane class's tables give back an input normal and the
    # offset of its point
    data = _CARRIED[name]()
    eng = Engine(data)
    arr = eng.enumerate_arrangement()
    top = arr.levels[eng.m - 1]
    rel = eng.relative_levels(top[0], top)
    classes = [c for levels in (arr.levels, rel) for cs in levels.values() for c in cs]
    assert len(classes) > sum(arr.counts())
    for cls in classes:
        direction, point = field_class(eng, cls)
        assert cls.res == clear_denominators([restrict_scalars(point)]), (cls.dim, cls.id)
        assert cls.entry is entry_of(eng, direction), (cls.dim, cls.id)
        assert cls.stabilizer == cls.entry.stab, (cls.dim, cls.id)
        assert (cls.plane is None) == (cls.dim < eng.m - 1), (cls.dim, cls.id)
    for hc in top:
        normal, offset = field_plane(eng, hc)
        assert normal in {h.normal for h in data.planes}, hc.id
        assert offset == dot(normal, field_point(eng, hc.res)), hc.id
        assert not any(dot(normal, u) for u in field_direction(eng, hc.entry)), hc.id


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


# (D, seed) of each draw of the dense m = 3 pool (`dense_m3`)
POOL = [(D, seed) for D in (2, 3, 5) for seed in range(4)]


@pytest.mark.parametrize("make", [lambda: build("danzer").data, coupled_plane]
                         + [(lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2]
                         + [(lambda D=D, seed=seed: dense_m3(D, seed)) for D, seed in POOL],
                         ids=["danzer", "coupled_plane", *DENSE_M2]
                         + [f"m3-{D}-{seed}" for D, seed in POOL])
def test_incidence_matches_relative_enumeration(make):
    # every class of the relative enumeration inside alpha is one global
    # class below alpha, each found once, with the same stabilizer
    eng = Engine(make())
    arr = eng.enumerate_arrangement()
    below = incidence(arr)
    def label(cls):
        direction, point = field_class(eng, cls)
        return direction, field_label(eng, direction, point)

    by_label = {label(c): c for classes in arr.levels.values() for c in classes}
    hclasses = arr.levels[eng.m - 1]
    pairs = 0
    for level, classes in arr.levels.items():
        for alpha in classes:
            rel = eng.relative_levels(alpha, hclasses)
            found = []
            for sub_level, rel_classes in rel.items():
                for psi in rel_classes:
                    key = label(psi)
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
                         + [(lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2]
                         + [(lambda D=D, seed=seed: dense_m3(D, seed)) for D, seed in POOL]
                         + [tau_lattice_m4],
                         ids=FINITE + ["ammann_beenker", "coupled_plane", *DENSE_M2]
                         + [f"m3-{D}-{seed}" for D, seed in POOL] + ["tau_lattice_m4"])
def test_incidence_matches_label_scan(make):
    # the closure of the covering relation recorded while enumerating is
    # the poset that the label and containment scan finds, class by class,
    # with no class listed twice below another; the relation itself is
    # that poset's part one level down.  The dense m = 3 pool is where
    # parents start from the most classes already inside them; at m = 4 a
    # 2-space's start must hold all of its bits, as a line with only one
    # of them need not lie in it
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
    # build_level labels each new point of a level while enumerating, and
    # the accepted classes it starts a parent from (to test that they lie
    # in the parent); the hyperplane pass labels each input plane's point
    # once; classify_pair labels none; the incidence poset, the Euler count
    # and the wedges ask the engine for none
    depth = {"build_level": 0, "classify_pair": 0, "hyperplane_classes": 0}
    inside, top, outside = [], [], []
    real_label = Engine.label

    def label_spy(self, *args):
        (inside if depth["build_level"] else top if depth["hyperplane_classes"]
         else outside).append(args)
        assert not depth["classify_pair"]
        return real_label(self, *args)

    def spy(name):
        real = getattr(Engine, name)

        def method(self, *args, **kwargs):
            depth[name] += 1
            try:
                return real(self, *args, **kwargs)
            finally:
                depth[name] -= 1
        return method

    monkeypatch.setattr(Engine, "label", label_spy)
    for name in depth:
        monkeypatch.setattr(Engine, name, spy(name))
    rep = analyze(build("danzer").data)
    assert rep.H == build("danzer").expected["H"]
    assert inside and len(top) == len(build("danzer").data.records) and outside == []


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


def test_work_shape_of_the_wedge_ranks(monkeypatch):
    # calls made inside _wedge_quantities over one analyze of each m = 3
    # catalog entry: no int_det minor and no Hermite form.  Each hyperplane
    # class takes one kernel_top_wedge of its plane table, and each
    # distinct line stabilizer the maximal minors of its basis; all minors
    # are 2 x 2, in closed form.  Each wedge_span_rank call gets pairwise
    # distinct lattices, here and on Ammann-Beenker (m = 2)
    inside, calls = [False], {"int_det": [], "hnf": [], "kernel_top_wedge": [], "minors": []}
    families = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            if inside[0]:
                calls[name].append(args)
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    real_quantities = patcoh.invariants._wedge_quantities

    def quantities(*args):
        inside[0] = True
        try:
            return real_quantities(*args)
        finally:
            inside[0] = False

    for name in ["int_det", "hnf", "minors"]:
        spy(patcoh.linalg, name)
    spy(patcoh.invariants, "kernel_top_wedge")
    real_rank = patcoh.invariants.wedge_span_rank

    def rank(lats, p, tops):
        families.append(lats)
        return real_rank(lats, p, tops)
    monkeypatch.setattr(patcoh.invariants, "wedge_span_rank", rank)
    monkeypatch.setattr(patcoh.invariants, "_wedge_quantities", quantities)
    found, line_classes = {}, {}
    for name in ["danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6"]:
        for seen in [*calls.values(), families]:
            seen.clear()
        rep = analyze(build(name).data)
        assert rep.H == build(name).expected["H"]
        lines = {c.stabilizer for c in rep.arrangement.levels[1]}
        assert len(calls["kernel_top_wedge"]) == rep.L[2]
        assert len(calls["minors"]) == rep.L[2] + len(lines)
        assert all(k == 2 for _, k in calls["minors"])
        assert families and all(len(set(lats)) == len(lats) for lats in families)
        found[name] = tuple(map(len, calls.values()))
        line_classes[name] = (rep.L[1], len(lines))
    assert found == {"danzer": (0, 0, 6, 21),
                     "ammann_kramer": (0, 0, 15, 46),
                     "canonical_d6": (0, 0, 16, 61),
                     "dual_canonical_d6": (0, 0, 15, 46)}
    # parallel line classes share a stabilizer
    assert line_classes == {"danzer": (15, 15), "ammann_kramer": (46, 31),
                            "canonical_d6": (45, 45), "dual_canonical_d6": (76, 31)}
    families.clear()
    rep = analyze(_ammann_beenker_with())
    assert rep.m == 2 and rep.r == [3, 0, 0]
    assert families and all(len(set(lats)) == len(lats) for lats in families)


@pytest.mark.parametrize("make", INPUT_PLANE_CASES.values(), ids=INPUT_PLANE_CASES)
def test_plane_table_top_wedge_is_a_multiple_of_the_stabilizer_minors(make):
    # a hyperplane class's stabilizer is the kernel of its plane table's
    # cols, which have rank delta (g != 0) on every case, so the Hodge dual
    # of their minors is a nonzero multiple of the stabilizer's own top wedge
    data = make()
    for hc in Engine(data).hyperplane_classes():
        assert hc.plane.g
        omega, direct = kernel_top_wedge(hc.plane.cols, data.n), maximal_minors(hc.stabilizer)
        i = next(i for i, x in enumerate(direct) if x)
        assert omega[i] and all(x * direct[i] == y * omega[i] for x, y in zip(omega, direct))


def dense_m3(D, seed):
    """Draw `seed` of the dense m = 3 pool over K = Q(sqrt D): Gamma = O_K^3
    in the Z-basis 1, omega of each coordinate, and rng.randint(4, 6)
    distinct planes through 0 whose normals have components a + b sqrt(D),
    a, b in {-1, 0, 1}, from random.Random(f"m3/{D}/{seed}").  The pool
    (D in {2, 3, 5}, seeds 0-3) and its coefficient range were fixed before
    any answer was looked at, and no draw is dropped."""
    rng, field = random.Random(f"m3/{D}/{seed}"), quadratic(D)
    omega = field.elem("1/2", "1/2") if D == 5 else field.elem(0, 1)
    gens = tuple(tuple(x if i == k else field.zero for i in range(3))
                 for k in range(3) for x in (field.one, omega))
    count, planes = rng.randint(4, 6), []
    while len(planes) < count:
        normal = tuple(field.elem(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(3))
        if any(normal):
            plane = canonical_hyperplane(Hyperplane(normal, field.zero))
            if plane not in planes:
                planes.append(plane)
    return from_field(field, 3, gens, tuple(planes), f"m3-{D}-{seed}")


# (L, H) of each dense m = 3 draw, equal to the minors-based wedge's
DENSE_M3 = {
    "m3-2-0": ([244, 20, 5], [1, 6, 21, 283]),
    "m3-2-1": ([188, 16, 5], [1, 6, 17, 211]),
    "m3-2-2": ([607, 16, 6], [1, 6, 16, 633]),
    "m3-2-3": ([43, 7, 4], [1, 6, 12, 52]),
    "m3-3-0": ([102, 6, 4], [1, 6, 11, 110]),
    "m3-3-1": ([125, 13, 5], [1, 6, 14, 145]),
    "m3-3-2": ([71, 10, 5], [1, 6, 11, 82]),
    "m3-3-3": ([414, 13, 5], [1, 6, 14, 428]),
    "m3-5-0": ([1222, 37, 6], [1, 6, 37, 1319]),
    "m3-5-1": ([85, 9, 4], [1, 6, 14, 96]),
    "m3-5-2": ([177, 15, 5], [1, 6, 19, 198]),
    "m3-5-3": ([3708, 25, 6], [1, 6, 25, 3752]),
}


@pytest.mark.parametrize("D,seed", POOL, ids=[f"m3-{D}-{seed}" for D, seed in POOL])
def test_dense_m3_pool(D, seed):
    # every draw validates and is finite; R_p is the minors reference on its
    # stabilizers; H^0 = 1 and H^1 = 6 + L_2 - R_2 (R_3 = 0 for n = 6); the
    # Euler identity, the K-sum and the stabilizer rank law hold
    data = dense_m3(D, seed)
    assert validate(data).ok
    rep = analyze(data)
    assert rep.status == "finite" and (rep.n, rep.m, rep.d) == (6, 3, 3)
    arr = rep.arrangement
    planes = [c.stabilizer for c in arr.levels[2]]
    lines = [c.stabilizer for c in arr.levels[1]]
    per_plane = [list(dict.fromkeys(b.stabilizer for b in arr.covers[(2, c.id)]))
                 for c in arr.levels[2]]
    assert rep.R == [wedge_span_rank_by_minors(planes, p + 2)
                     - wedge_span_rank_by_minors(lines, p + 1)
                     + sum(wedge_span_rank_by_minors(u, p + 1) for u in per_plane)
                     for p in range(1, 5)]
    assert rep.H[0] == 1 and rep.H[1] == 6 + rep.L[2] - rep.R[1]
    assert sum((-1) ** p * dp for p, dp in enumerate(rep.D)) == rep.e
    assert sum(rep.K) == sum(rep.D)
    assert compute_nu(arr) == 2
    assert (rep.L, rep.H) == DENSE_M3[data.name]


def _translated(name, k):
    """Draw k of `test_criterion_6_translation_invariance` for `name`."""
    data = build(name).data if name in names() else dense_m2(name)
    rng = random.Random(f"translate/{name}")
    for _ in range(k + 1):
        moved = _translate(data, rng)
    return moved


_SKIP_CASES = {**{nm: (lambda nm=nm: build(nm).data) for nm in names()},
               **{nm: (lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2},
               "penrose": penrose, "penrose_zeta1": lambda: penrose(1),
               **{f"m3-{D}-{seed}": (lambda D=D, seed=seed: dense_m3(D, seed))
                  for D, seed in POOL},
               **{f"{nm}-translated-{k}": (lambda nm=nm, k=k: _translated(nm, k))
                  for nm in names() + list(DENSE_M2) for k in range(2)}}


def _represented(make, k):
    """Draw k of the re-presentation kinds of criterion 6, each kind in turn,
    from the seed of the input's name."""
    data = make()
    rng = random.Random(f"represent/{data.name}")
    for j in range(k + 1):
        moved = _TRANSFORMS[j % len(_TRANSFORMS)](data, rng)
    return moved


_TOP_CASES = {**_SKIP_CASES, "ammann_beenker": _ammann_beenker_with,
              **{f"{nm}-represented-{k}": (lambda make=make, k=k: _represented(make, k))
                 for nm, make in (("danzer", lambda: build("danzer").data),
                                  ("ammann_beenker", _ammann_beenker_with))
                 for k in range(2 * len(_TRANSFORMS))}}


@pytest.mark.parametrize("name", _TOP_CASES)
def test_hyperplane_classes_are_the_whole_space_cut(name):
    # reading each hyperplane class off its plane's table gives the classes
    # of the whole space cut by every input plane, deduplicated by label in
    # plane order (a fresh engine, whose entries come from their keys): the
    # same ids, stabilizers, direction columns, points and tables, on every
    # catalog entry, the dense m = 2 fixtures, Penrose, the dense m = 3
    # pool, the inputs moved off the origin and the re-presentations of
    # Danzer and Ammann-Beenker.  Each entry read off a table passes the
    # annihilator check
    data = _TOP_CASES[name]()
    eng = Engine(data)
    direct, cut = eng.hyperplane_classes(), cut_hyperplane_classes(Engine(data))
    assert [(c.id, c.dim, c.stabilizer, c.entry.cols, c.entry.q, c.res, c.plane)
            for c in direct] == [(c.id, c.dim, c.stabilizer, c.entry.cols, c.entry.q, c.res,
                                  c.plane) for c in cut]
    for hc in direct:
        _check_annihilator(eng, hc.entry)


def _conjugate(data):
    """`data` under the Galois conjugation a + b sqrt(D) -> a - b sqrt(D),
    applied to every generator, normal and offset."""
    def bar(xs):
        return tuple(data.field.elem(x.a, -x.b) for x in xs)

    planes = tuple(canonical_hyperplane(Hyperplane(bar(h.normal), *bar([h.offset])))
                   for h in data.planes)
    return from_field(data.field, data.m, tuple(map(bar, data.gens)), planes, data.name)


@pytest.mark.parametrize("name", [nm for nm in _SKIP_CASES if "-translated-" not in nm])
def test_galois_conjugation_is_an_exact_re_presentation(name):
    # conjugation is a field automorphism and the engine uses no real
    # order, so it leaves the canonical report and exit code of every
    # catalog entry, the dense m = 2 geometries, Penrose in both
    # presentations and the dense m = 3 pool as they are
    data = _SKIP_CASES[name]()
    bar = _conjugate(data)
    assert (bar.gens, bar.planes) != (data.gens, data.planes)
    (doc, code), (moved, moved_code) = compute_report(data), compute_report(bar)
    assert (canonical_digest(moved), moved_code) == (canonical_digest(doc), code)


def _check_pairs(eng, levels, top, covers, on):
    """Each proper pair (P, j) of consecutive levels, classified in full:
    its candidates' classes, by label among the level's classes, are
    exactly the classes of covers[P] whose mask in `on` has bit j, one per
    coset of H, whether build_level cut the pair or took it without a
    cut.  Returns the number of pairs checked."""
    checked = 0
    for level in [lv for lv in levels if lv + 1 in levels]:
        labels = {(c.entry, eng.label(c.entry, c.res)): c for c in levels[level]}
        for p in levels[level + 1]:
            for j, h in enumerate(top):
                cut = eng.intersect(p.entry, p.res, h.plane, eng.pair_index(p.stabilizer, h.plane))
                if cut is None:
                    continue
                sub, points, _ = eng.classify_pair(p, h, level, cut)
                assert (sorted(labels[sub, eng.label(sub, res)].id for res in points)
                        == sorted(c.id for c in covers[p.dim, p.id] if on[level, c.id] >> j & 1)), (
                    level, p.id, j)
                checked += 1
    return checked


# the inputs on which no parent holds all the classes of a later pair
# (m = 1 has no level below the hyperplane classes, and infinite_demo
# raises at its first cut below them), so that a check that passes with
# no pair to check shows up
_NO_SKIP = {f"{nm}{moved}" for nm in ["fibonacci", "infinite_demo"]
            for moved in ["", "-translated-0", "-translated-1"]}


@pytest.mark.parametrize("name", _SKIP_CASES)
def test_every_pair_taken_without_a_cut_has_exactly_its_classes(name, monkeypatch):
    # build_level takes a pair without a cut when its index equals the
    # number of classes below the parent whose mask has its plane's bit.
    # The levels of enumerate_arrangement, run here with the test's own
    # covers and masks: on every catalog entry, the dense m = 2 fixtures,
    # Penrose in both presentations, the dense m = 3 pool and the
    # translated inputs of criterion 6, every proper pair classified in
    # full has exactly the classes below its parent with its plane's bit,
    # cut or not (infinite_demo raises at level 0, so it has none to check)
    eng = Engine(_SKIP_CASES[name]())
    calls = _index_reads_and_cuts(monkeypatch)
    top = eng.hyperplane_classes()
    levels, covers = {eng.m - 1: top}, {}
    on = {(eng.m - 1, k): 1 << k for k in range(len(top))}
    try:
        for level in range(eng.m - 2, -1, -1):
            levels[level] = eng.build_level(levels[level + 1], top, level=level,
                                            covers=covers, on=on)
    except InfiniteArrangement:
        assert name.startswith("infinite_demo")
    taken = calls[0] - calls[1]
    checked = _check_pairs(eng, levels, top, covers, on)
    assert bool(checked) == (eng.m > 1 and not name.startswith("infinite_demo")), checked
    assert bool(taken) == (name not in _NO_SKIP), taken


@pytest.mark.parametrize("name", ["danzer", "ammann_kramer"])
def test_relative_pairs_taken_without_a_cut_have_exactly_their_classes(name, monkeypatch):
    # the same inside each plane and line class, whose relative
    # enumeration (relative_levels' loop, with the test's own covers)
    # starts from a root with no bits (at m = 2 a relative enumeration has
    # one parent, a line, and takes no pair without a cut)
    eng = Engine(build(name).data)
    arr = eng.enumerate_arrangement()
    top = arr.levels[2]
    calls = _index_reads_and_cuts(monkeypatch)
    taken = 0
    for alpha in arr.levels[2] + arr.levels[1]:
        calls[:] = [0, 0]
        levels, covers, on = {alpha.dim: [alpha]}, {}, {}
        for level in range(alpha.dim - 1, -1, -1):
            levels[level] = eng.build_level(levels[level + 1], top, level=level,
                                            covers=covers, on=on)
        taken += calls[0] - calls[1]
        assert _check_pairs(eng, levels, top, covers, on)
        assert eng.relative_levels(alpha, top) == {lv: levels[lv] for lv in range(alpha.dim)}
    assert taken
