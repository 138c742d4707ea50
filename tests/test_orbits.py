import dataclasses
import json
import random
from fractions import Fraction

import pytest

import patcoh.invariants
import patcoh.linalg
import patcoh.model
import patcoh.orbits
from patcoh.catalog import build
from patcoh.field import QQ, dot, quadratic, restrict_scalars
from patcoh.invariants import analyze
from patcoh.linalg import (IntLattice, clear_denominators, mixed_solve, primitive_rref, remainder,
                           rref)
from patcoh.model import (
    Hyperplane,
    ProjectionData,
    canonical_hyperplane,
    parse_projection_data,
)
from patcoh.orbits import Engine, InfiniteArrangement, ResourceCapExceeded
from reference import contains, coords_of, lattice_index, shift_subgroup

F5 = quadratic(5)
TAU = F5.elem("1/2", "1/2")
ONE, ZERO = F5.one, F5.zero


def gamma_vec(eng, y):
    """Sum of y_i * g_i as a field vector."""
    acc = (eng.fspec.zero,) * eng.m
    for yi, g in zip(y, eng.data.gens):
        acc = tuple(a + eng.fspec.elem(yi) * x for a, x in zip(acc, g))
    return acc


def field_inverse(rows):
    """Inverse of a square invertible FElem matrix, via augmented rref."""
    m = len(rows)
    ident = [[ONE if i == j else ZERO for j in range(m)] for i in range(m)]
    aug = [list(rows[i]) + ident[i] for i in range(m)]
    red = rref(aug)
    assert len(red) == m
    return [tuple(red[i][m:]) for i in range(m)]


def _cut(eng, direction, point, h):
    """The integer cut of point + span(direction) by h, as build_level makes it."""
    res = clear_denominators([restrict_scalars(point)])
    return eng.intersect(eng._direction(direction), res, eng._plane(h))


def _classify(eng, parent, hc, level, cut):
    """classify_pair with the stabilizers that build_level hands it: the
    parent's stabilizer rows in Z^n and the plane's echelon."""
    stab = eng.stabilizer(eng._direction(parent.direction)).basis
    return eng.classify_pair(parent, hc, level, cut, stab, hc.stabilizer.echelon)


def test_intersect_affine_example():
    data = build("danzer").data
    eng = Engine(data)
    # full 3-space cut by {v3 = 0}: the coordinate plane spanned by e1, e2
    direction = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
    point = (ZERO, ZERO, ZERO)
    h = Hyperplane((ZERO, ZERO, ONE), ZERO)
    cut = _cut(eng, direction, point, h)
    assert cut.sub.direction == ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO))
    assert eng.point(cut, (0,) * eng.n) == point
    # w, the first row off the plane, has a = <normal, w> = 1, so the
    # coefficients c_i = <normal, g_i>/a are the dots
    assert next(u for u in direction if dot(h.normal, u)) == (ZERO, ZERO, ONE)
    assert [F5.elem(*(Fraction(x, cut.lcd) for x in c)) for c in cut.cs] == [
        dot(h.normal, g) for g in data.gens]


def test_intersect_affine_offset_moves_point():
    data = build("danzer").data
    eng = Engine(data)
    direction = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
    point = (ZERO, ZERO, ZERO)
    h = Hyperplane((ZERO, ZERO, ONE), TAU)
    assert eng.point(_cut(eng, direction, point, h), (0,) * eng.n) == (ZERO, ZERO, TAU)


def test_intersect_affine_rejects_containment():
    # no proper cut when the direction lies in the hyperplane: None, and
    # build_level skips the pair; one row off the plane makes it proper
    data = build("danzer").data
    eng = Engine(data)
    origin = (ZERO, ZERO, ZERO)
    h = Hyperplane((ZERO, ZERO, ONE), ZERO)
    assert _cut(eng, ((ONE, ZERO, ZERO),), origin, h) is None
    assert _cut(eng, ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO)), origin, h) is None
    assert _cut(eng, ((ONE, ZERO, ZERO), (ZERO, ONE, TAU)), origin, h) is not None


@pytest.mark.parametrize("fspec", [QQ, quadratic(2), quadratic(5)], ids=["Q", "Qsqrt2", "Qsqrt5"])
def test_dir_res_cols_are_restrictions_of_theta_multiples(fspec):
    # a row u gives one column res(theta^k u) per k < delta, theta = sqrt(D),
    # here with theta^k u taken by field products
    rng = random.Random(11)

    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def elem():
        return fspec.elem(rat(), rat() if fspec.degree == 2 else 0)

    m = 3
    basis = tuple(tuple(fspec.one if i == j else fspec.zero for j in range(m)) for i in range(m))
    eng = Engine(ProjectionData(fspec, m, basis, (), "cols"))
    powers = [fspec.one] if fspec.degree == 1 else [fspec.one, fspec.elem(0, 1)]
    for k in range(1, m + 1):
        direction = tuple(tuple(elem() for _ in range(m)) for _ in range(k))
        assert eng.dir_res_cols(direction) == [
            restrict_scalars([t * x for x in u]) for u in direction for t in powers]


def test_same_orbit_fibonacci_points():
    data = build("fibonacci").data
    eng = Engine(data)
    direction = ()  # points in a 1-dim internal space
    # 0 and 1 + tau are lattice translates; 0 and 1/3 are not
    assert eng.same_orbit((direction, (ZERO,)), (direction, (ONE + TAU,)))
    assert not eng.same_orbit((direction, (ZERO,)), (direction, (F5.elem("1/3"),)))
    assert eng.same_orbit((direction, (TAU,)), (direction, (TAU,)))


def _rand_felem(rng, fspec=F5):
    return fspec.elem(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                      Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def _res_matrix(cols, dm):
    """Restricted column vectors as the rows of a dm x len(cols) matrix."""
    return [[c[i] for c in cols] for i in range(dm)]


def test_label_agrees_with_mixed_solve():
    # label equality against the brute-force orbit test: delta lies in
    # span(direction) + Gamma image iff G y + B t = res(delta) has an
    # integer y and a rational t; danzer (m = 3, Q(sqrt 5)) and
    # Ammann-Beenker (m = 2, Q(sqrt 2))
    rng = random.Random(135)
    for data in (build("danzer").data, _ammann_beenker_with()):
        eng = Engine(data)
        arr = eng.enumerate_arrangement()
        verdicts = []
        g_res = _res_matrix([restrict_scalars(g) for g in data.gens], eng.dm)
        for classes in arr.levels.values():
            for cls in classes:
                d_res = _res_matrix(eng.dir_res_cols(cls.direction), eng.dm)
                base = eng.label(cls.direction, cls.point)
                for k in range(4):
                    # gamma(y) + t.u is in the orbit (k < 2); a small random
                    # offset on top mostly leaves it (k >= 2)
                    y = [rng.randint(-3, 3) for _ in range(eng.n)]
                    delta = gamma_vec(eng, y)
                    for u in cls.direction:
                        t = _rand_felem(rng, eng.fspec)
                        delta = tuple(a + t * x for a, x in zip(delta, u))
                    if k >= 2:
                        delta = tuple(a + _rand_felem(rng, eng.fspec) for a in delta)
                    moved = tuple(p + a for p, a in zip(cls.point, delta))
                    same = eng.label(cls.direction, moved) == base
                    sol = mixed_solve(g_res, d_res, restrict_scalars(delta), eng.n)
                    assert same == (sol is not None), (data.name, cls.dim, cls.id, k)
                    assert eng.same_orbit((cls.direction, cls.point),
                                          (cls.direction, moved)) == same
                    verdicts.append(same)
        assert 0 < sum(verdicts) < len(verdicts), data.name


def test_classify_pair_subgroup_agrees_with_mixed_solve():
    # y is in the subgroup H of a pair iff translating the hyperplane class
    # by gamma(y) moves the cut by delta = (sum y_i c_i) w into the same
    # Gamma-orbit: res(delta) lies in span(sub_dir) + Gamma image; danzer
    # (every H is Z^n) and Ammann-Beenker (some H of index > 1)
    rng = random.Random(139)
    verdicts = []
    for data in (build("danzer").data, _ammann_beenker_with()):
        eng = Engine(data)
        g_res = _res_matrix([restrict_scalars(g) for g in data.gens], eng.dm)
        for level, parent, hc in _enumeration_pairs(eng, eng.enumerate_arrangement()):
            cut = _cut(eng, parent.direction, parent.point, hc)
            if cut is None:
                continue
            sub_dir, candidates, hsub = _classify(eng, parent, hc, level, cut)
            assert len(candidates) == lattice_index(IntLattice.full(eng.n), hsub)
            w = next(u for u in parent.direction if dot(hc.normal, u))
            a = dot(hc.normal, w)
            d_res = _res_matrix(eng.dir_res_cols(sub_dir), eng.dm)
            coefs = [dot(hc.normal, g) / a for g in data.gens]
            for k in range(3):
                # k = 0 draws from H itself, k >= 1 from a small box
                if k == 0:
                    y = [sum(rng.randint(-2, 2) * row[i] for row in hsub.basis)
                         for i in range(eng.n)]
                else:
                    y = [rng.randint(-2, 2) for _ in range(eng.n)]
                shift = sum((eng.fspec.elem(yi) * c for yi, c in zip(y, coefs)),
                            eng.fspec.zero)
                delta = restrict_scalars(tuple(shift * x for x in w))
                inside = coords_of(hsub, y) is not None
                sol = mixed_solve(g_res, d_res, delta, eng.n)
                assert inside == (sol is not None), (data.name, level, parent.id, hc.id, y)
                verdicts.append(inside)
    assert 0 < sum(verdicts) < len(verdicts)


def _enumeration_pairs(eng, arr):
    """(level, parent, hyperplane class) for every pair the enumeration
    cuts, with the full space as the parent of the top level."""
    top = arr.levels[eng.m - 1]
    ident = tuple(tuple(eng.fspec.one if i == j else eng.fspec.zero for j in range(eng.m))
                  for i in range(eng.m))
    space = patcoh.orbits.SingularClass(-1, eng.m, ident, (eng.fspec.zero,) * eng.m, eng.full)
    return [(eng.m - 1, space, hc) for hc in top] + [
        (level, parent, hc) for level in range(eng.m - 1)
        for parent in arr.levels[level + 1] for hc in top]


@pytest.mark.parametrize("name", ["danzer", "ammann_beenker"])
def test_candidate_keys_are_labels_of_their_points(name, monkeypatch):
    # a candidate's key is affine in its coset rep y: it must equal the
    # label of y's field point, which lies in the parent space and on the
    # plane translated by gamma(y); every pair as enumerated and once more
    # with the parent point and the offset moved off the lattice, so that
    # the cut point and its denominators are not trivial; danzer (m = 3,
    # Q(sqrt 5)) and Ammann-Beenker (m = 2, Q(sqrt 2))
    data = build(name).data if name == "danzer" else _ammann_beenker_with()
    eng = Engine(data)
    built = []
    real = Engine.point
    monkeypatch.setattr(Engine, "point",
                        lambda self, cut, y: built.append(y) or real(self, cut, y))
    arr = eng.enumerate_arrangement()
    # build_level builds a field point for the accepted classes only
    assert len(built) == sum(arr.counts())
    monkeypatch.undo()
    rng = random.Random(7)
    keys = []
    for level, parent, hc in _enumeration_pairs(eng, arr):
        moved = (dataclasses.replace(parent, point=tuple(
                     x + _rand_felem(rng, eng.fspec) for x in parent.point)),
                 dataclasses.replace(hc, offset=hc.offset + _rand_felem(rng, eng.fspec)))
        for parent, hc in ((parent, hc), moved):
            cut = _cut(eng, parent.direction, parent.point, hc)
            if cut is None:
                continue
            sub_dir, candidates, _ = _classify(eng, parent, hc, level, cut)
            for key, y in candidates:
                pt = eng.point(cut, y)
                assert key == eng.label(sub_dir, pt), (level, parent.id, hc.id, y)
                assert dot(hc.normal, pt) == hc.offset + dot(hc.normal, gamma_vec(eng, y))
                step = tuple(a - b for a, b in zip(pt, parent.point))
                assert len(rref(parent.direction + (step,))) == len(parent.direction)
                keys.append(key)
    assert len(built) < len(set(keys)) < len(keys)


@pytest.mark.parametrize("name", ["danzer", "ammann_kramer"])
def test_contains_agrees_with_rref(name):
    # span(sub) lies in span(direction) iff stacking them adds no rank
    eng = Engine(build(name).data)
    arr = eng.enumerate_arrangement()
    dirs = list(dict.fromkeys(c.direction for cs in arr.levels.values() for c in cs))
    verdicts = []
    for direction in dirs:
        for sub in dirs:
            inside = len(rref(direction + sub)) <= len(direction)
            assert contains(eng, direction, sub) == inside, (direction, sub)
            verdicts.append(inside)
    assert 0 < sum(verdicts) < len(verdicts)


def test_hyperplane_class_counts():
    assert len(Engine(build("ammann_kramer").data).hyperplane_classes()) == 15
    assert len(Engine(build("danzer").data).hyperplane_classes()) == 6


def test_fibonacci_arrangement():
    arr = Engine(build("fibonacci").data).enumerate_arrangement()
    assert arr.counts() == [1]
    cls = arr.levels[0][0]
    assert cls.dim == 0 and cls.stabilizer.rank == 0


def test_danzer_counts_and_level_law():
    eng = Engine(build("danzer").data)
    arr = eng.enumerate_arrangement()
    assert arr.counts() == [1, 15, 6]
    for level, classes in arr.levels.items():
        for cls in classes:
            assert cls.dim == level
            assert len(cls.direction) == level
            # direction rows are a canonical rref basis
            assert tuple(tuple(r) for r in rref(cls.direction)) == cls.direction


def test_danzer_translate_closure():
    eng = Engine(build("danzer").data)
    arr = eng.enumerate_arrangement()
    rng = random.Random(67)
    for classes in arr.levels.values():
        for cls in classes:
            y = [rng.randint(-3, 3) for _ in range(eng.n)]
            shift = gamma_vec(eng, y)
            moved = tuple(p + s for p, s in zip(cls.point, shift))
            assert eng.same_orbit((cls.direction, cls.point), (cls.direction, moved))


def test_danzer_stabilizer_rank_law():
    eng = Engine(build("danzer").data)
    arr = eng.enumerate_arrangement()
    nu = eng.n // eng.m
    for level, classes in arr.levels.items():
        for cls in classes:
            assert cls.stabilizer.rank == nu * level


def test_duplicate_translated_plane_changes_nothing():
    data = build("danzer").data
    eng = Engine(data)
    base = eng.enumerate_arrangement().counts()
    h = data.planes[0]
    shift = dot(h.normal, gamma_vec(eng, [1, -2, 0, 3, 0, 1]))
    extra = canonical_hyperplane(Hyperplane(h.normal, h.offset + shift))
    data2 = ProjectionData(data.field, data.m, data.gens,
                           data.planes + (extra,), data.name)
    assert Engine(data2).enumerate_arrangement().counts() == base


def test_gl_equivariance_danzer():
    data = build("danzer").data
    t = [(ONE, TAU, ZERO), (ZERO, ONE, ONE), (TAU, ZERO, ONE)]
    tinv = field_inverse(t)
    gens2 = tuple(tuple(dot(row, g) for row in t) for g in data.gens)
    planes2 = tuple(
        canonical_hyperplane(Hyperplane(
            tuple(dot(h.normal, tuple(r[j] for r in tinv)) for j in range(3)),
            h.offset))
        for h in data.planes)
    data2 = ProjectionData(data.field, data.m, gens2, planes2, data.name)
    arr1 = Engine(data).enumerate_arrangement()
    arr2 = Engine(data2).enumerate_arrangement()
    assert arr1.counts() == arr2.counts()
    for level in arr1.levels:
        stabs1 = sorted(c.stabilizer.basis for c in arr1.levels[level])
        stabs2 = sorted(c.stabilizer.basis for c in arr2.levels[level])
        assert stabs1 == stabs2


def test_work_shape_of_the_icosahedral_entries(monkeypatch):
    # proper pairs, candidates, index-1 pairs and classes of analyze per
    # m = 3 catalog entry; a pair's own lattice question is its one
    # integer_kernel call, of the parent's stabilizer rows modulo the
    # plane's echelon, whose echelon is H; its Hermite form holds exactly
    # the rows with a nonzero remainder, and there is none without one
    forms, kernels = [], []
    real_hnf, real_kernel = patcoh.linalg.hnf, patcoh.orbits.integer_kernel
    real_pair = Engine.classify_pair
    monkeypatch.setattr(patcoh.linalg, "hnf", lambda rows: forms.append(rows) or real_hnf(rows))

    def kernel_spy(*args):
        out = real_kernel(*args)
        kernels.append((args, out))
        return out

    monkeypatch.setattr(patcoh.orbits, "integer_kernel", kernel_spy)

    def pair_spy(self, parent, hclass, level, cut, stab, modulus):
        forms.clear()
        kernels.clear()
        out = real_pair(self, parent, hclass, level, cut, stab, modulus)
        ((images, width, modulus), (echelon, _)), = kernels
        assert [tuple(row) for row in images] == list(parent.stabilizer.basis)
        assert (width, modulus) == (self.n, hclass.stabilizer.echelon)
        assert tuple(tuple(row) for _, row in echelon) == out[2].basis
        left = [list(rem) for rem in (remainder(modulus, row) for row in images) if any(rem)]
        index_one = out[2].basis == IntLattice.full(self.n).basis
        assert (not left) == (not forms)
        for form in forms:
            assert len(form) == len(left) + len(modulus)
            assert [row[:width] for row in form[:len(left)]] == left
        shape[0] += 1
        shape[1] += len(out[1])
        shape[2] += index_one
        return out

    monkeypatch.setattr(Engine, "classify_pair", pair_spy)
    found = {}
    for name in ["danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6"]:
        shape = [0, 0, 0]
        classes = sum(analyze(build(name).data).L)
        found[name] = (*shape, classes)
    assert found == {"danzer": (96, 96, 96, 22),
                     "ammann_kramer": (795, 1095, 555, 93),
                     "canonical_d6": (856, 1156, 766, 117),
                     "dual_canonical_d6": (1185, 1995, 915, 155)}
    assert [sum(col) for col in zip(*found.values())] == [2932, 4342, 2332, 387]


def test_analyze_does_no_field_elimination(monkeypatch):
    # each direction entry reads its field rows off its integer key, so
    # analyze calls linalg.rref at no site that imports it, on any of the
    # m = 3 entries
    calls = []
    real = patcoh.linalg.rref
    for module in (patcoh.linalg, patcoh.model, patcoh.orbits, patcoh.invariants):
        if hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref", lambda rows: calls.append(1) or real(rows))
    for name in ["danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6"]:
        assert sum(analyze(build(name).data).L) > 0
    assert calls == []


@pytest.mark.parametrize("fspec", [QQ, quadratic(2), quadratic(5)], ids=["Q", "Qsqrt2", "Qsqrt5"])
def test_entry_from_its_key_matches_the_field_rref(fspec):
    # a field subspace of each dimension 0..m, given by random rows and
    # re-based by a random invertible field matrix: the entry built from
    # the integer key of its restricted columns has the field rref of the
    # rows as its direction, and that rref's cleared restricted columns
    rng = random.Random(167)

    def rat():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    def elem():
        return fspec.elem(rat(), rat() if fspec.degree == 2 else 0)

    m = 3
    basis = tuple(tuple(fspec.one if i == j else fspec.zero for j in range(m)) for i in range(m))
    eng = Engine(ProjectionData(fspec, m, basis, (), "entries"))
    dims = set()
    for _ in range(8):
        for k in range(m + 1):
            rows = [tuple(elem() if rng.random() < 0.7 else fspec.zero for _ in range(m))
                    for _ in range(k)]
            if len(rref(rows)) < k:
                continue
            while True:
                change = [[elem() for _ in range(k)] for _ in range(k)]
                if len(rref(change)) == k:
                    break
            rebased = [tuple(sum((c * row[x] for c, row in zip(ci, rows)), fspec.zero)
                             for x in range(m)) for ci in change]
            canon = tuple(tuple(r) for r in rref(rows))
            key = primitive_rref(clear_denominators(eng.dir_res_cols(rebased))[0])
            entry = eng._entry(key)
            assert entry.direction == canon
            assert (entry.cols, entry.q) == clear_denominators(eng.dir_res_cols(canon))
            dims.add(k)
    assert dims == set(range(m + 1))


def test_infinite_demo_raises_with_witness():
    eng = Engine(build("infinite_demo").data)
    with pytest.raises(InfiniteArrangement) as exc:
        eng.enumerate_arrangement()
    err = exc.value
    assert err.witness_level == 0
    assert err.deficient_subgroup_rank < err.full_rank == 3


def test_resource_cap():
    eng = Engine(build("danzer").data, max_classes=3)
    with pytest.raises(ResourceCapExceeded):
        eng.enumerate_arrangement()


def _ammann_beenker_with(*extra_normals):
    half, neg = ["0", "1/2"], ["0", "-1/2"]
    star = [[["1"], ["0"]], [half, half], [["0"], ["1"]], [neg, half]]
    doc = {"schema": "patcoh/1", "name": "ab_extra", "field": {"kind": "Qsqrt", "D": 2},
           "dim": 2, "generators": star,
           "hyperplanes": [{"normal": v} for v in star + list(extra_normals)]}
    return parse_projection_data(json.dumps(doc))


def penrose(zeta_step=2):
    """The Penrose pattern over Q(sqrt 5): Gamma = Z[zeta] = Z[tau]^2 in the
    basis (1, zeta), zeta = e^{2 pi i k / 5} for k = zeta_step (2 or 1), and
    the five lines through 0 along zeta^j, j < 5, the directions of the
    pentagon's edges.  The window's vertices are projections of Z^5, which
    lie in Gamma, so every window edge is a Gamma-translate of its line
    through 0."""
    one, zero, minus, tau = ["1"], ["0"], ["-1"], ["1/2", "1/2"]
    if zeta_step == 2:
        normals = [[zero, one], [minus, tau], [minus, one], [["-1/2", "-1/2"], one], [minus, zero]]
    else:
        tau_less = ["-1/2", "1/2"]  # tau - 1
        normals = [[zero, one], [minus, zero], [tau_less, one], [minus, one], [one, tau_less]]
    doc = {"schema": "patcoh/1", "name": "penrose", "field": {"kind": "Qsqrt", "D": 5},
           "dim": 2, "generators": [[one, zero], [tau, zero], [zero, one], [zero, tau]],
           "hyperplanes": [{"normal": v} for v in normals]}
    return parse_projection_data(json.dumps(doc))


def _stabilizer_sum(eng, parent, hc, cache):
    """Hermite basis of Stab(parent) + Stab(plane of hc) in Z^n, each by the
    Smith-form `mixed_solve`: y with gamma(y) in span(parent), and y with
    <normal, gamma(y)> = 0."""
    key = parent.direction
    if key not in cache:
        g_res = _res_matrix([restrict_scalars(g) for g in eng.data.gens], eng.dm)
        d_res = _res_matrix(eng.dir_res_cols(parent.direction), eng.dm)
        cache[key] = list(mixed_solve(g_res, d_res, [0] * eng.dm, eng.n).lattice.basis)
    if hc.normal not in cache:
        dots = _res_matrix([restrict_scalars((dot(hc.normal, g),)) for g in eng.data.gens],
                           eng.delta)
        cache[hc.normal] = list(mixed_solve(dots, [], [0] * eng.delta, eng.n).lattice.basis)
    return IntLattice.from_rows(eng.n, cache[key] + cache[hc.normal])


_PAIR_CASES = {"danzer": lambda: build("danzer").data,
               "ammann_kramer": lambda: build("ammann_kramer").data,
               "canonical_d6": lambda: build("canonical_d6").data,
               "dual_canonical_d6": lambda: build("dual_canonical_d6").data,
               "ammann_beenker": _ammann_beenker_with, "penrose": penrose}


@pytest.mark.parametrize("name", [*_PAIR_CASES, "danzer_relative"])
def test_classification_subgroup_is_the_sum_of_the_stabilizers(name, monkeypatch):
    # every proper pair the engine classifies: its H equals the kernel of
    # the cut's shifts ds_i modulo lcd q E (the reference route) and the
    # Hermite basis of Stab(parent) + Stab(plane), both found here; the
    # relative case classifies inside a plane class, whose root hands over
    # the plane's stabilizer
    relative = name == "danzer_relative"
    eng = Engine(build("danzer").data if relative else _PAIR_CASES[name]())
    pairs, real = [], Engine.classify_pair

    def spy(self, *args):
        out = real(self, *args)
        pairs.append((args, out[2]))
        return out

    monkeypatch.setattr(Engine, "classify_pair", spy)
    arr = eng.enumerate_arrangement()
    if relative:
        pairs.clear()
        plane = arr.levels[2][0]
        eng.relative_levels(plane.direction, plane.point, arr.levels[2])
    cache = {}
    for (parent, hc, level, cut, stab, modulus), h in pairs:
        assert h == shift_subgroup(eng, cut), (level, parent.id, hc.id)
        assert h == _stabilizer_sum(eng, parent, hc, cache), (level, parent.id, hc.id)
    roots = {tuple(stab) for (parent, _, _, _, stab, _), _ in pairs if parent.id == -1}
    assert roots == {plane.stabilizer.basis if relative else eng.full.basis}


def test_resource_cap_fires_before_listing_cosets(monkeypatch):
    # the plane normal (1, 10) meets one star line in 200 point classes;
    # with a cap of 10 no coset list above the cap may be built
    data = _ammann_beenker_with([["1"], ["10"]])
    indices = []
    real = patcoh.orbits.coset_reps

    def spy(h_lat):
        indices.append(lattice_index(IntLattice.full(h_lat.ambient), h_lat))
        return real(h_lat)

    monkeypatch.setattr(patcoh.orbits, "coset_reps", spy)
    with pytest.raises(ResourceCapExceeded) as exc:
        Engine(data, max_classes=10).enumerate_arrangement()
    assert indices and max(indices) <= 10
    msg = str(exc.value)
    assert "level 0" in msg and "200" in msg and "hyperplane class" in msg


def test_relative_levels_empty_without_proper_cuts(monkeypatch):
    # a line inside every translated plane of the family contributes
    # nothing, and no such pair reaches classify_pair
    data = build("square_fibonacci").data
    eng = Engine(data)
    hcs = eng.hyperplane_classes()
    vertical = [hc for hc in hcs if hc.normal == (ONE, ZERO)]
    assert vertical
    direction = ((ZERO, ONE),)
    calls = []
    monkeypatch.setattr(Engine, "classify_pair", lambda *args: calls.append(args))
    out = eng.relative_levels(direction, (ZERO, ZERO), vertical)
    assert out == {0: []} and not calls


def test_relative_levels_of_danzer_plane():
    eng = Engine(build("danzer").data)
    arr = eng.enumerate_arrangement()
    plane = arr.levels[2][0]
    rel = eng.relative_levels(plane.direction, plane.point, arr.levels[2])
    assert set(rel) == {1, 0}
    for level, classes in rel.items():
        for cls in classes:
            assert cls.dim == level
