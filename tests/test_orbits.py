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
from patcoh.field import QQ, FElem, dot, quadratic, restrict_scalars
from patcoh.invariants import analyze
from patcoh.linalg import (IntLattice, clear_denominators, coset_reps, mixed_solve,
                           primitive_rref, remainder, rref)
from patcoh.model import (
    Hyperplane,
    ProjectionData,
    canonical_hyperplane,
    parse_projection_data,
)
from patcoh.orbits import Engine, InfiniteArrangement, ResourceCapExceeded
from patcoh.report import compute_report
from reference import (contains, coords_of, dir_res_cols, entry_of, field_class,
                       field_direction, field_label, field_plane, field_point, lattice_index,
                       res_of, shift_subgroup)

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
    """The integer cut of point + span(direction) by the input plane h."""
    return eng.intersect(entry_of(eng, direction), res_of(point), eng._plane(h))


def _class_cut(eng, parent, hc):
    """The cut of a class by a hyperplane class, as build_level makes it."""
    return eng.intersect(parent.entry, parent.res, hc.plane)


def test_intersect_affine_example():
    data = build("danzer").data
    eng = Engine(data)
    # full 3-space cut by {v3 = 0}: the coordinate plane spanned by e1, e2
    direction = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
    point = (ZERO, ZERO, ZERO)
    h = Hyperplane((ZERO, ZERO, ONE), ZERO)
    cut = _cut(eng, direction, point, h)
    assert field_direction(eng, cut.sub) == ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO))
    assert field_point(eng, eng.point(cut, (0,) * eng.n)) == point
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
    cut = _cut(eng, direction, point, h)
    assert field_point(eng, eng.point(cut, (0,) * eng.n)) == (ZERO, ZERO, TAU)


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
    powers = [fspec.one] if fspec.degree == 1 else [fspec.one, fspec.elem(0, 1)]
    for k in range(1, m + 1):
        direction = tuple(tuple(elem() for _ in range(m)) for _ in range(k))
        assert dir_res_cols(direction) == [
            restrict_scalars([t * x for x in u]) for u in direction for t in powers]


def test_same_orbit_fibonacci_points():
    data = build("fibonacci").data
    eng = Engine(data)
    entry = entry_of(eng, ())  # points in a 1-dim internal space
    # 0 and 1 + tau are lattice translates; 0 and 1/3 are not
    assert eng.same_orbit((entry, res_of((ZERO,))), (entry, res_of((ONE + TAU,))))
    assert not eng.same_orbit((entry, res_of((ZERO,))), (entry, res_of((F5.elem("1/3"),))))
    assert eng.same_orbit((entry, res_of((TAU,))), (entry, res_of((TAU,))))


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
                direction, point = field_class(eng, cls)
                d_res = _res_matrix(dir_res_cols(direction), eng.dm)
                base = eng.label(cls.entry, cls.res)
                for k in range(4):
                    # gamma(y) + t.u is in the orbit (k < 2); a small random
                    # offset on top mostly leaves it (k >= 2)
                    y = [rng.randint(-3, 3) for _ in range(eng.n)]
                    delta = gamma_vec(eng, y)
                    for u in direction:
                        t = _rand_felem(rng, eng.fspec)
                        delta = tuple(a + t * x for a, x in zip(delta, u))
                    if k >= 2:
                        delta = tuple(a + _rand_felem(rng, eng.fspec) for a in delta)
                    moved = tuple(p + a for p, a in zip(point, delta))
                    same = eng.label(cls.entry, res_of(moved)) == base
                    sol = mixed_solve(g_res, d_res, restrict_scalars(delta), eng.n)
                    assert same == (sol is not None), (data.name, cls.dim, cls.id, k)
                    assert eng.same_orbit((cls.entry, cls.res),
                                          (cls.entry, res_of(moved))) == same
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
            cut = _class_cut(eng, parent, hc)
            if cut is None:
                continue
            sub, candidates, hsub = eng.classify_pair(parent, hc, level, cut)
            assert len(candidates) == lattice_index(IntLattice.full(eng.n), hsub)
            normal, _ = field_plane(eng, hc)
            w = next(u for u in field_direction(eng, parent.entry) if dot(normal, u))
            a = dot(normal, w)
            d_res = _res_matrix(dir_res_cols(field_direction(eng, sub)), eng.dm)
            coefs = [dot(normal, g) / a for g in data.gens]
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
    entry = eng._entry(IntLattice.full(eng.dm).basis)
    space = patcoh.orbits.SingularClass(-1, eng.m, eng.full, entry, ([[0] * eng.dm], 1))
    return [(eng.m - 1, space, hc) for hc in top] + [
        (level, parent, hc) for level in range(eng.m - 1)
        for parent in arr.levels[level + 1] for hc in top]


@pytest.mark.parametrize("name", ["danzer", "ammann_beenker"])
def test_candidate_keys_are_labels_of_their_points(name):
    # a candidate is the point of its coset rep y, which lies in the parent
    # space and on the plane translated by gamma(y), and its key must equal
    # that point's label; every pair as enumerated and once more with
    # the parent point and the offset moved off the lattice, so that the
    # cut point and its denominators are not trivial; danzer (m = 3,
    # Q(sqrt 5)) and Ammann-Beenker (m = 2, Q(sqrt 2))
    data = build(name).data if name == "danzer" else _ammann_beenker_with()
    eng = Engine(data)
    arr = eng.enumerate_arrangement()
    rng = random.Random(7)
    keys = []
    for level, parent, hc in _enumeration_pairs(eng, arr):
        point = tuple(x + _rand_felem(rng, eng.fspec) for x in field_point(eng, parent.res))
        normal, offset = field_plane(eng, hc)
        moved = (dataclasses.replace(parent, res=res_of(point)),
                 dataclasses.replace(hc, plane=eng._plane(
                     Hyperplane(normal, offset + _rand_felem(rng, eng.fspec)))))
        for parent, hc in ((parent, hc), moved):
            cut = _class_cut(eng, parent, hc)
            if cut is None:
                continue
            sub, candidates, hsub = eng.classify_pair(parent, hc, level, cut)
            (direction, point), (normal, offset) = field_class(eng, parent), field_plane(eng, hc)
            reps = coset_reps(hsub)
            assert len(candidates) == len(reps)
            for (key, res), y in zip(candidates, reps):
                assert res == eng.point(cut, y)
                pt = field_point(eng, res)
                assert key == field_label(eng, field_direction(eng, sub), pt), (
                    level, parent.id, hc.id, y)
                assert dot(normal, pt) == offset + dot(normal, gamma_vec(eng, y))
                step = tuple(a - b for a, b in zip(pt, point))
                assert len(rref(direction + (step,))) == len(direction)
                keys.append(key)
    assert sum(arr.counts()) < len(set(keys)) < len(keys)


@pytest.mark.parametrize("name", ["danzer", "ammann_kramer"])
def test_contains_agrees_with_rref(name):
    # span(sub) lies in span(direction) iff stacking them adds no rank
    eng = Engine(build(name).data)
    arr = eng.enumerate_arrangement()
    dirs = list(dict.fromkeys(field_direction(eng, c.entry)
                              for cs in arr.levels.values() for c in cs))
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
            direction = field_direction(eng, cls.entry)
            assert cls.dim == level
            assert len(direction) == level
            # direction rows are a canonical rref basis
            assert tuple(tuple(r) for r in rref(direction)) == direction


def test_danzer_translate_closure():
    eng = Engine(build("danzer").data)
    arr = eng.enumerate_arrangement()
    rng = random.Random(67)
    for classes in arr.levels.values():
        for cls in classes:
            y = [rng.randint(-3, 3) for _ in range(eng.n)]
            moved = tuple(p + s for p, s in zip(field_point(eng, cls.res), gamma_vec(eng, y)))
            assert eng.same_orbit((cls.entry, cls.res), (cls.entry, res_of(moved)))


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
    # m = 3 catalog entry, with each unordered pair of hyperplane classes
    # classified once at level 1.  An index-1 pair is decided by minors: it makes
    # no integer_kernel, hnf or coset_reps call, and its one coset rep is
    # 0.  Every other pair's lattice question is its one integer_kernel
    # call, of the parent's stabilizer rows modulo the plane's echelon,
    # whose echelon is H; its Hermite form holds exactly the rows with a
    # nonzero remainder, and there is none without one
    forms, kernels, reps = [], [], []
    real_hnf, real_kernel = patcoh.linalg.hnf, patcoh.orbits.integer_kernel
    real_reps, real_pair = patcoh.orbits.coset_reps, Engine.classify_pair
    monkeypatch.setattr(patcoh.linalg, "hnf", lambda rows: forms.append(rows) or real_hnf(rows))
    monkeypatch.setattr(patcoh.orbits, "coset_reps", lambda h: reps.append(h) or real_reps(h))

    def kernel_spy(*args):
        out = real_kernel(*args)
        kernels.append((args, out))
        return out

    monkeypatch.setattr(patcoh.orbits, "integer_kernel", kernel_spy)

    def pair_spy(self, parent, hclass, level, cut):
        forms.clear()
        kernels.clear()
        reps.clear()
        out = real_pair(self, parent, hclass, level, cut)
        index_one = out[2].basis == IntLattice.full(self.n).basis
        shape[0] += 1
        shape[1] += len(out[1])
        shape[2] += index_one
        if index_one:
            assert (forms, kernels, reps) == ([], [], [])
            assert [res for _, res in out[1]] == [self.point(cut, (0,) * self.n)]
            return out
        ((images, width, modulus), (echelon, _)), = kernels
        assert [tuple(row) for row in images] == list(parent.stabilizer.basis)
        assert (width, modulus) == (self.n, hclass.stabilizer.echelon)
        assert tuple(tuple(row) for _, row in echelon) == out[2].basis
        assert reps == [out[2]]
        left = [list(rem) for rem in (remainder(modulus, row) for row in images) if any(rem)]
        assert (not left) == (not forms)
        for form in forms:
            assert len(form) == len(left) + len(modulus)
            assert [row[:width] for row in form[:len(left)]] == left
        return out

    monkeypatch.setattr(Engine, "classify_pair", pair_spy)
    found = {}
    for name in ["danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6"]:
        shape = [0, 0, 0]
        classes = sum(analyze(build(name).data).L)
        found[name] = (*shape, classes)
    assert found == {"danzer": (81, 81, 81, 22),
                     "ammann_kramer": (690, 975, 465, 93),
                     "canonical_d6": (736, 1036, 646, 117),
                     "dual_canonical_d6": (1080, 1845, 825, 155)}
    assert [sum(col) for col in zip(*found.values())] == [2587, 3937, 2017, 387]


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


def test_enumeration_builds_no_field_element(monkeypatch):
    # classes are integer records, so once the engine is built neither the
    # enumeration nor a relative enumeration makes a field element, on the
    # m = 3 entries, Ammann-Beenker and the dense m = 2 pool
    engines = [Engine(build(nm).data) for nm in
               ["danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6"]]
    engines += [Engine(_ammann_beenker_with())] + [Engine(dense_m2(nm)) for nm in DENSE_M2]
    made = []
    real = FElem.__post_init__
    monkeypatch.setattr(FElem, "__post_init__", lambda self: made.append(self) or real(self))
    for eng in engines:
        top = eng.enumerate_arrangement().levels[eng.m - 1]
        assert eng.relative_levels(top[0], top)
    assert made == []
    assert ONE + TAU and len(made) == 1  # the spy sees a field sum


@pytest.mark.parametrize("fspec", [QQ, quadratic(2), quadratic(5)], ids=["Q", "Qsqrt2", "Qsqrt5"])
def test_entry_from_its_key_matches_the_field_rref(fspec):
    # a field subspace of each dimension 0..m, given by random rows and
    # re-based by a random invertible field matrix: the entry built from
    # the integer key of its restricted columns holds that rref's cleared
    # restricted columns, so its columns delta j over q are the field rref
    # of the rows
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
            key = primitive_rref(clear_denominators(dir_res_cols(rebased))[0])
            entry = eng._entry(key)
            assert field_direction(eng, entry) == canon
            assert (entry.cols, entry.q) == clear_denominators(dir_res_cols(canon))
            dims.add(k)
    assert dims == set(range(m + 1))


def test_infinite_demo_raises_with_witness():
    eng = Engine(build("infinite_demo").data)
    with pytest.raises(InfiniteArrangement) as exc:
        eng.enumerate_arrangement()
    err = exc.value
    assert (err.witness_level, err.witness_pair) == (0, (0, 1))
    assert (err.deficient_subgroup_rank, err.full_rank) == (2, 3)


def test_resource_cap():
    eng = Engine(build("danzer").data, max_classes=3)
    with pytest.raises(ResourceCapExceeded):
        eng.enumerate_arrangement()


@pytest.mark.parametrize("cap", [0, -5])
def test_resource_cap_below_one_is_refused(cap):
    # a cap below 1 admits no class at all: the engine refuses it, as the
    # CLI refuses such a PATCOH_MAX_CLASSES, so neither analyze nor
    # compute_report turns it into a resource-cap verdict; a cap of 1 runs
    data = build("danzer").data
    for run in (Engine, analyze, compute_report):
        with pytest.raises(ValueError, match="at least 1"):
            run(data, max_classes=cap)
    with pytest.raises(ResourceCapExceeded):
        Engine(data, max_classes=1).enumerate_arrangement()


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


def _stabilizer_sum(eng, parent, hc, cache):
    """Hermite basis of Stab(parent) + Stab(plane of hc) in Z^n, each by the
    Smith-form `mixed_solve`: y with gamma(y) in span(parent), and y with
    <normal, gamma(y)> = 0."""
    key, (normal, _) = field_direction(eng, parent.entry), field_plane(eng, hc)
    if key not in cache:
        g_res = _res_matrix([restrict_scalars(g) for g in eng.data.gens], eng.dm)
        d_res = _res_matrix(dir_res_cols(key), eng.dm)
        cache[key] = list(mixed_solve(g_res, d_res, [0] * eng.dm, eng.n).lattice.basis)
    if normal not in cache:
        dots = _res_matrix([restrict_scalars((dot(normal, g),)) for g in eng.data.gens],
                           eng.delta)
        cache[normal] = list(mixed_solve(dots, [], [0] * eng.delta, eng.n).lattice.basis)
    return IntLattice.from_rows(eng.n, cache[key] + cache[normal])


_PAIR_CASES = {"danzer": lambda: build("danzer").data,
               "ammann_kramer": lambda: build("ammann_kramer").data,
               "canonical_d6": lambda: build("canonical_d6").data,
               "dual_canonical_d6": lambda: build("dual_canonical_d6").data,
               "ammann_beenker": _ammann_beenker_with, "penrose": penrose,
               **{nm: (lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2}}


@pytest.mark.parametrize("name", [*_PAIR_CASES, "danzer_relative"])
def test_classification_subgroup_is_the_sum_of_the_stabilizers(name, monkeypatch):
    # every proper pair the engine classifies: its H equals the kernel of
    # the cut's shifts ds_i modulo lcd q E (the reference route) and the
    # Hermite basis of Stab(parent) + Stab(plane), both found here; the
    # relative case classifies inside a plane class, whose root hands over
    # the plane's stabilizer.  The minors decide every index-1 pair, and
    # the Hermite form runs on the others; Danzer and Penrose have no
    # other pair
    relative = name == "danzer_relative"
    eng = Engine(build("danzer").data if relative else _PAIR_CASES[name]())
    pairs, kernels = [], []
    real, real_kernel = Engine.classify_pair, patcoh.orbits.integer_kernel

    def spy(self, *args):
        kernels.clear()
        out = real(self, *args)
        assert (out[2] != eng.full) == bool(kernels), (args[2], args[0].id, args[1].id)
        pairs.append((args, out[2]))
        return out

    monkeypatch.setattr(Engine, "classify_pair", spy)
    monkeypatch.setattr(patcoh.orbits, "integer_kernel",
                        lambda *args: kernels.append(args) or real_kernel(*args))
    arr = eng.enumerate_arrangement()
    if relative:
        pairs.clear()
        plane = arr.levels[2][0]
        eng.relative_levels(plane, arr.levels[2])
    cache = {}
    for (parent, hc, level, cut), h in pairs:
        assert h == shift_subgroup(eng, cut), (level, parent.id, hc.id)
        assert h == _stabilizer_sum(eng, parent, hc, cache), (level, parent.id, hc.id)
    roots = {parent.stabilizer.basis for (parent, _, _, _), _ in pairs
             if parent.id == -1 or relative and parent is plane}
    assert roots == {plane.stabilizer.basis if relative else eng.full.basis}
    formed = {h != eng.full for _, h in pairs}
    assert formed == ({False} if name in ("danzer", "danzer_relative", "penrose")
                      else {False, True})


@pytest.mark.parametrize("name", _PAIR_CASES)
def test_each_unordered_pair_of_hyperplane_classes_is_classified_once(name, monkeypatch):
    # at level m-2 the parents are the hyperplane classes, and build_level
    # classifies the pair (i, j) only for j >= i; a copy of the list turns
    # that off.  Both runs accept the same classes in the same order, with
    # the same res, entry and stabilizer, and find the same classes below
    # each parent; the copy classifies every proper pair, twice as many.
    # With the copy at every level, the dumped report is the same
    data = _PAIR_CASES[name]()
    eng = Engine(data)
    top = eng.hyperplane_classes()
    pairs = []
    real = Engine.classify_pair
    monkeypatch.setattr(Engine, "classify_pair",
                        lambda self, *args: pairs.append(args[:2]) or real(self, *args))
    runs = []
    for hclasses in (top, list(top)):
        pairs.clear()
        covers = {}
        classes = eng.build_level(top, hclasses, level=eng.m - 2, covers=covers)
        runs.append((classes, covers, list(pairs)))
    (once, once_covers, once_pairs), (every, every_covers, every_pairs) = runs
    assert once == every and [c.res for c in once] == [c.res for c in every]
    assert all(a.entry is b.entry for a, b in zip(once, every))
    assert once_covers.keys() == every_covers.keys() == {(eng.m - 1, c.id) for c in top}
    assert all({c.id for c in once_covers[k]} == {c.id for c in every_covers[k]}
               for k in once_covers)
    assert all(parent.id < hc.id for parent, hc in once_pairs)
    assert 0 < 2 * len(once_pairs) == len(every_pairs)

    real_build = Engine.build_level
    docs = [compute_report(data, dump_arrangement=True)]
    monkeypatch.setattr(Engine, "build_level", lambda self, parents, hclasses, *args, **kw:
                        real_build(self, parents, list(hclasses), *args, **kw))
    docs.append(compute_report(data, dump_arrangement=True))
    for doc, _ in docs:
        del doc["timing"]
    assert docs[0] == docs[1] and docs[0][0]["status"] == "finite"


def test_plane_image_below_full_rank_takes_the_form(monkeypatch):
    # <(1, 0), gamma> is rational on every generator of Z + Z + sqrt2 Z
    # (in the second coordinate), so the planes x = 0 and x = 1/2 have dots
    # of rank 1 below delta = 2 and minor gcd 0: their pairs take the
    # Hermite form, although their H is Z^3, and the plane y = 0's pairs do
    # not.  Level 0 classifies the pairs (x = 0, y = 0) and (y = 0, x =
    # 1/2), one by minors and one by the form, and takes the pair (x = 1/2,
    # y = 0) from the first; x = 0 and x = 1/2 do not meet
    doc = {"schema": "patcoh/1", "name": "rational_x", "field": {"kind": "Qsqrt", "D": 2},
           "dim": 2, "generators": [[["1"], ["0"]], [["0"], ["1"]], [["0"], ["0", "1"]]],
           "hyperplanes": [{"normal": [["1"], ["0"]]}, {"normal": [["0"], ["1"]]},
                           {"normal": [["1"], ["0"]], "offset": ["1/2"]}]}
    eng = Engine(parse_projection_data(json.dumps(doc)))
    pairs, kernels = [], []
    real, real_kernel = Engine.classify_pair, patcoh.orbits.integer_kernel

    def spy(self, parent, hc, level, cut):
        kernels.clear()
        out = real(self, parent, hc, level, cut)
        rational = field_plane(eng, hc)[0] == (eng.fspec.one, eng.fspec.zero)
        pairs.append((level, rational, hc.plane[0].g, len(kernels), out[2]))
        assert out[2] == _stabilizer_sum(eng, parent, hc, cache)
        return out

    cache = {}
    monkeypatch.setattr(Engine, "classify_pair", spy)
    monkeypatch.setattr(patcoh.orbits, "integer_kernel",
                        lambda *args: kernels.append(args) or real_kernel(*args))
    assert eng.enumerate_arrangement().counts() == [2, 3]
    assert sorted(pairs, key=lambda pair: pair[:2]) == [
        (0, False, 1, 0, eng.full), (0, True, 0, 1, eng.full),
        (1, False, 1, 0, eng.full), (1, True, 0, 1, eng.full), (1, True, 0, 1, eng.full)]


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
    assert str(exc.value) == ("level 0, pair (parent 0, hyperplane class 4): 200 classes, "
                              "more than the cap of 10")


def test_relative_levels_empty_without_proper_cuts(monkeypatch):
    # a line inside every translated plane of the family contributes
    # nothing, and no such pair reaches classify_pair
    data = build("square_fibonacci").data
    eng = Engine(data)
    hcs = eng.hyperplane_classes()
    vertical = [hc for hc in hcs if field_plane(eng, hc)[0] == (ONE, ZERO)]
    assert vertical and field_direction(eng, vertical[0].entry) == ((ZERO, ONE),)
    calls = []
    monkeypatch.setattr(Engine, "classify_pair", lambda *args: calls.append(args))
    out = eng.relative_levels(vertical[0], vertical)
    assert out == {0: []} and not calls


def test_relative_levels_of_danzer_plane():
    eng = Engine(build("danzer").data)
    arr = eng.enumerate_arrangement()
    plane = arr.levels[2][0]
    rel = eng.relative_levels(plane, arr.levels[2])
    assert set(rel) == {1, 0}
    for level, classes in rel.items():
        for cls in classes:
            assert cls.dim == level
