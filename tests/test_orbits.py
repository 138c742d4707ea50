import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import patcoh.invariants
import patcoh.linalg
import patcoh.model
import patcoh.orbits
from patcoh.catalog import build, names
from patcoh.field import FElem, dot, quadratic, restrict_scalars
from patcoh.invariants import analyze
from patcoh.linalg import (IntLattice, clear_denominators, coset_reps, int_det, integer_kernel,
                           primitive_rref, remainder, rref)
from patcoh.model import (
    Hyperplane,
    canonical_hyperplane,
    from_field,
    parse_projection_data,
    serialize_projection_data,
)
from patcoh.orbits import Engine, InfiniteArrangement, ResourceCapExceeded
from patcoh.report import compute_report
from reference import (contains, coords_of, cut_shifts, dir_res_cols, entry_of, field_class,
                       field_direction, field_inverse, field_label, field_plane,
                       field_plane_table, field_point, field_vector, hermite_stabilizer,
                       lattice_from_rows, lattice_index, mixed_solve, res_of, scalar_matrix,
                       shift_subgroup)

F5 = quadratic(5)
TAU = F5.elem("1/2", "1/2")
ONE, ZERO = F5.one, F5.zero


def gamma_vec(eng, y):
    """Sum of y_i * g_i as a field vector."""
    acc = (eng.fspec.zero,) * eng.m
    for yi, g in zip(y, eng.data.gens):
        acc = tuple(a + eng.fspec.elem(yi) * x for a, x in zip(acc, g))
    return acc


def _cut(eng, direction, point, h):
    """The integer cut of point + span(direction) by the input plane h."""
    entry, plane = entry_of(eng, direction), field_plane_table(h, eng.data.gen_ints)
    return eng.intersect(entry, res_of(point), plane, eng.pair_index(entry.stab, plane))


def _class_cut(eng, parent, hc):
    """The cut of a class by a hyperplane class, as build_level makes it."""
    return eng.intersect(parent.entry, parent.res, hc.plane,
                         eng.pair_index(parent.stabilizer, hc.plane))


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
    # coefficients c_i = res_mul(dots_i, inv) / lcd = <normal, g_i>/a are
    # the normal's values on the generators
    assert next(u for u in direction if dot(h.normal, u)) == (ZERO, ZERO, ONE)
    assert [F5.elem(*(Fraction(x, cut.lcd) for x in c)) for c in cut_shifts(eng, cut)] == [
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


@pytest.mark.parametrize("fspec", [quadratic(2), quadratic(5)], ids=["Qsqrt2", "Qsqrt5"])
def test_dir_res_cols_are_restrictions_of_theta_multiples(fspec):
    # a row u gives one column res(theta^k u) per k < delta, theta = sqrt(D),
    # here with theta^k u taken by field products
    rng = random.Random(11)

    def rat():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def elem():
        return fspec.elem(rat(), rat())

    m = 3
    powers = [fspec.one, fspec.elem(0, 1)]
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
    data2 = from_field(data.field, data.m, data.gens,
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
    data2 = from_field(data.field, data.m, gens2, planes2, data.name)
    arr1 = Engine(data).enumerate_arrangement()
    arr2 = Engine(data2).enumerate_arrangement()
    assert arr1.counts() == arr2.counts()
    for level in arr1.levels:
        stabs1 = sorted(c.stabilizer.basis for c in arr1.levels[level])
        stabs2 = sorted(c.stabilizer.basis for c in arr2.levels[level])
        assert stabs1 == stabs2


def _index_reads_and_cuts(monkeypatch):
    """Spy on pair_index and intersect: [index reads, cuts] so far.
    build_level reads each pair's index once and then cuts it or not, so
    the difference counts the pairs it takes without a cut."""
    calls = [0, 0]
    real_index, real_cut = Engine.pair_index, Engine.intersect

    def index_spy(self, *args):
        calls[0] += 1
        return real_index(self, *args)

    def cut_spy(self, *args):
        calls[1] += 1
        return real_cut(self, *args)

    monkeypatch.setattr(Engine, "pair_index", index_spy)
    monkeypatch.setattr(Engine, "intersect", cut_spy)
    return calls


def test_work_shape_of_the_icosahedral_entries(monkeypatch):
    # classified pairs, candidates, index-1 pairs, label calls, classes of
    # analyze and pairs taken without a cut per m = 3 catalog entry, with
    # the hyperplane classes read off their planes' tables (one label per
    # plane, and no pair: the whole space is cut by no plane), with
    # each parent starting from the accepted classes inside it (so each
    # unordered pair of hyperplane classes is classified once at level 1),
    # each distinct point of a level labeled once (and, for the start of a
    # parent that is not a hyperplane class, the parent once and each
    # class that passes its mask once per direction), and each pair whose
    # classes the parent already holds not cut.  No cut is improper: a
    # parent in a translate of the plane is passed over by its mask.  An
    # index-1 pair is decided by minors: it makes
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
    real_label = Engine.label

    def label_spy(self, *args):
        shape[3] += 1
        return real_label(self, *args)

    monkeypatch.setattr(Engine, "label", label_spy)

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
            assert out[1] == [self.point(cut, (0,) * self.n)]
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
    real_cut, improper = Engine.intersect, []

    def cut_spy(self, *args):
        cut = real_cut(self, *args)
        if cut is None:
            improper.append(args)
        return cut

    monkeypatch.setattr(Engine, "intersect", cut_spy)
    calls = _index_reads_and_cuts(monkeypatch)
    found = {}
    for name in ["danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6"]:
        shape = [0, 0, 0, 0]
        calls[:] = [0, 0]
        classes = sum(analyze(build(name).data).L)
        found[name] = (*shape, classes, calls[0] - calls[1])
    assert found == {"danzer": (19, 19, 19, 50, 22, 71),
                     "ammann_kramer": (93, 138, 68, 280, 93, 687),
                     "canonical_d6": (107, 177, 87, 370, 117, 733),
                     "dual_canonical_d6": (127, 232, 92, 534, 155, 1043)}
    assert [sum(col) for col in zip(*found.values())] == [346, 566, 266, 1234, 387, 2534]
    assert improper == []


def test_analyze_does_no_field_elimination(monkeypatch):
    # each direction entry and the normals' rank and supports are read off
    # integer keys, so neither validation nor analyze calls linalg.rref at
    # any site that imports it: compute_report, dumped, on every catalog
    # entry
    calls = []
    real = patcoh.linalg.rref
    for module in (patcoh.linalg, patcoh.model, patcoh.orbits, patcoh.invariants,
                   patcoh.report):
        if hasattr(module, "rref"):
            monkeypatch.setattr(module, "rref", lambda rows: calls.append(1) or real(rows))
    codes = {compute_report(build(name).data, dump_arrangement=True)[1] for name in names()}
    assert calls == [] and codes == {0, 2, 3}
    assert patcoh.linalg.rref([[Fraction(2)]]) and calls == [1]  # the spy sees a call


def test_report_divides_no_field_element(monkeypatch):
    # canonical_hyperplane works on integer numerators, so from parse
    # through a report, validation and dump included, no FElem inverse,
    # division or product is taken on any catalog entry
    texts = [serialize_projection_data(build(name).data) for name in names()]
    calls = []
    for name in ("inverse", "__truediv__", "__rtruediv__", "__mul__"):
        real = getattr(FElem, name)
        monkeypatch.setattr(FElem, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    for text in texts:
        compute_report(parse_projection_data(text), dump_arrangement=True)
    assert calls == []
    assert ONE / TAU == TAU - ONE and calls == ["__truediv__", "inverse", "__mul__"]


def test_enumeration_builds_no_field_element(monkeypatch):
    # classes are integer records, so once the engine is built neither the
    # enumeration nor a relative enumeration makes a field element, on the
    # m = 3 entries, Ammann-Beenker and the dense m = 2 pool
    engines = [Engine(build(nm).data) for nm in
               ["danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6"]]
    engines += [Engine(_ammann_beenker_with())] + [Engine(dense_m2(nm)) for nm in DENSE_M2]
    made = []
    real = FElem.__init__
    monkeypatch.setattr(FElem, "__init__",
                        lambda self, *args: made.append(args) or real(self, *args))
    for eng in engines:
        top = eng.enumerate_arrangement().levels[eng.m - 1]
        assert eng.relative_levels(top[0], top)
    assert made == []
    assert ONE + TAU and len(made) == 1  # the spy sees a field sum


@pytest.mark.parametrize("fspec", [quadratic(2), quadratic(5)], ids=["Qsqrt2", "Qsqrt5"])
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
        return fspec.elem(rat(), rat())

    m = 3
    basis = tuple(tuple(fspec.one if i == j else fspec.zero for j in range(m)) for i in range(m))
    eng = Engine(from_field(fspec, m, basis, (), "entries"))
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
    # the accept cap names the level, the pair that went past it and the
    # cap; the hyperplane pass cuts the whole space by an input plane
    eng = Engine(build("danzer").data, max_classes=3)
    with pytest.raises(ResourceCapExceeded) as exc:
        eng.enumerate_arrangement()
    assert str(exc.value) == ("level 2, pair (the whole space, input plane 3): 4 classes "
                              "at the level, more than the cap of 3")


def test_resource_cap_below_the_top_names_the_parent():
    # below the hyperplane pass the pair is (parent, hyperplane class), as
    # in the index cap's message, in the enumeration and inside a class
    data = build("danzer").data
    with pytest.raises(ResourceCapExceeded) as exc:
        Engine(data, max_classes=10).enumerate_arrangement()
    assert str(exc.value) == ("level 1, pair (parent 2, hyperplane class 4): 11 classes "
                              "at the level, more than the cap of 10")
    top = Engine(data).hyperplane_classes()
    with pytest.raises(ResourceCapExceeded) as exc:
        Engine(data, max_classes=4).relative_levels(top[0], top)
    assert str(exc.value) == ("level 1, pair (parent 0, hyperplane class 5): 5 classes "
                              "at the level, more than the cap of 4")


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


def _translated(data, v):
    """data with every plane moved by the vector v: offset += <nu, v>."""
    return from_field(data.field, data.m, data.gens,
                          tuple(Hyperplane(h.normal, h.offset + dot(h.normal, v))
                                for h in data.planes), data.name)


VALID_ENTRIES = [nm for nm in names() if build(nm).expected.get("status") != "validation_error"]


# valid inputs whose input planes the hyperplane pass and plane_table read
INPUT_PLANE_CASES = {
    **{nm: (lambda nm=nm: build(nm).data) for nm in VALID_ENTRIES},
    "penrose": penrose, "penrose_zeta1": lambda: penrose(1),
    **{nm: (lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2},
    "danzer_translated":
        lambda: _translated(build("danzer").data, (F5.elem("1/3"), F5.elem(0, "1/5"), TAU)),
    "penrose_translated":
        lambda: _translated(penrose(), (F5.elem("2/7", "1/3"), F5.elem("-1/2"))),
}


@pytest.mark.parametrize("make", INPUT_PLANE_CASES.values(), ids=INPUT_PLANE_CASES)
def test_hyperplane_class_point_lies_on_its_input_plane(make):
    data = make()
    eng = Engine(data)
    for hc in eng.hyperplane_classes():
        normal, offset = field_plane(eng, hc)
        direction, point = field_class(eng, hc)
        assert Hyperplane(normal, offset) in data.planes
        assert dot(normal, point) == offset
        assert len(direction) == data.m - 1
        assert not any(dot(normal, u) for u in direction)


def _random_planes(fspec, seed):
    """Random generators and planes off the origin over fspec, unvalidated."""
    rng = random.Random(seed)

    def elem():
        return fspec.elem(*(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in range(fspec.degree)))

    gens = tuple(tuple(elem() for _ in range(2)) for _ in range(4))
    planes = tuple(Hyperplane((elem() or fspec.one, elem()), elem()) for _ in range(5))
    return from_field(fspec, 2, gens, planes, f"random-{fspec!r}")


@pytest.mark.parametrize("make", [*INPUT_PLANE_CASES.values(), _ammann_beenker_with,
                                  *[(lambda f=f: _random_planes(f, 29)) for f in
                                    (quadratic(2), quadratic(3), F5)]],
                         ids=[*INPUT_PLANE_CASES, "ammann_beenker", "random_Qsqrt2",
                              "random_Qsqrt3", "random_Qsqrt5"])
def test_plane_table_matches_the_scalar_matrix_reference(make):
    # den and form against the closed-form scalar matrices of the normal's
    # coordinates (den <nu, x> = form res(x)), cols against field dot
    # products with the generators, g against the minors and the offset
    # against its restriction; the data's own tables, read off its plane
    # records, and its cleared generators are the field route's, in plane
    # order
    data = make()
    gen_ints = clear_denominators([restrict_scalars(g) for g in data.gens])
    gens, qg = gen_ints
    d = data.field.degree
    assert ([list(g) for g in data.gen_ints[0]], data.gen_ints[1]) == gen_ints
    assert len(data.tables) == len(data.planes)
    for h, own in zip(data.planes, data.tables):
        table = field_plane_table(h, gen_ints)
        assert own == table
        form, den = clear_denominators([sum(rows, ())
                                        for rows in zip(*map(scalar_matrix, h.normal))])
        assert table.den == den * qg
        assert [list(f) for f in table.form] == [[qg * x for x in f] for f in form]
        dots = [[table.den * x for x in restrict_scalars((dot(h.normal, g),))]
                for g in data.gens]
        assert table.cols == [*zip(*dots)]
        assert table.g == math.gcd(*(int_det(rows)
                                     for rows in itertools.combinations(zip(*table.cols), d)))
        assert [Fraction(x, table.oden) for x in table.off] == list(restrict_scalars((h.offset,)))
        assert math.gcd(table.oden, *table.off) == 1


@pytest.mark.parametrize("make", [
    lambda: parse_projection_data(serialize_projection_data(build("ammann_kramer").data)),
    lambda: dense_m2("dense-01")], ids=["ammann_kramer", "dense-01"])
def test_one_plane_table_per_input_plane(make, monkeypatch):
    # validation's density check and the engine's hyperplane pass read the
    # same tables: one compute_report builds each input plane's table once,
    # in plane order, whichever module holds the name
    data, calls = make(), []
    real = patcoh.model.plane_table

    def spy(rec, gen_ints, fspec):
        calls.append(rec)
        return real(rec, gen_ints, fspec)

    for module in (patcoh.model, patcoh.orbits, patcoh.invariants):
        if getattr(module, "plane_table", None) is real:
            monkeypatch.setattr(module, "plane_table", spy)
    doc, code = compute_report(data, dump_arrangement=True)
    assert (code, doc["status"]) == (0, "finite")
    assert calls == list(data.records)


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
    return lattice_from_rows(eng.n, cache[key] + cache[normal])


_PAIR_CASES = {"danzer": lambda: build("danzer").data,
               "ammann_kramer": lambda: build("ammann_kramer").data,
               "canonical_d6": lambda: build("canonical_d6").data,
               "dual_canonical_d6": lambda: build("dual_canonical_d6").data,
               "ammann_beenker": _ammann_beenker_with, "penrose": penrose,
               **{nm: (lambda nm=nm: dense_m2(nm)) for nm in DENSE_M2}}


def _resolving(monkeypatch):
    """Spy on classify_pair and build_level: each pair's (level, parent,
    hclass, cut, points, H, classes), classes the class each point resolved
    to, read off results: the one class its build_level call accepted with
    the point's entry and label."""
    pairs = []
    real_pair, real_build = Engine.classify_pair, Engine.build_level

    def pair_spy(self, parent, hc, level, cut):
        out = real_pair(self, parent, hc, level, cut)
        pairs.append((level, parent, hc, cut, out[1], out[2], []))
        return out

    def build_spy(self, *args, **kw):
        start = len(pairs)
        accepted = real_build(self, *args, **kw)
        by_label = {(c.entry, self.label(c.entry, c.res)): c for c in accepted}
        assert len(by_label) == len(accepted)
        for *_, cut, points, _, classes in pairs[start:]:
            classes += [by_label[cut.sub, self.label(cut.sub, res)] for res in points]
        return accepted

    monkeypatch.setattr(Engine, "classify_pair", pair_spy)
    monkeypatch.setattr(Engine, "build_level", build_spy)
    return pairs


@pytest.mark.parametrize("name", ["danzer", "ammann_beenker", "penrose", *DENSE_M2])
def test_candidate_keys_are_labels_of_their_points(name, monkeypatch):
    # a candidate is the point of its coset rep y, which lies in the parent
    # space and on the plane translated by gamma(y).  The test labels every
    # candidate's point itself, from its field value, and that label must
    # be the label of the class build_level resolved the candidate to,
    # also for a candidate whose point the level met before, which takes
    # its class with no label call.  Every pair as enumerated, and once
    # more with the parent point and the offset moved off the lattice, so
    # that the cut point and its denominators are not trivial
    eng = Engine(_PAIR_CASES[name]())
    pairs = _resolving(monkeypatch)
    arr = eng.enumerate_arrangement()
    met = {(level, id(cut.sub), tuple(xs), q) for level, _, _, cut, points, _, _ in pairs
           for (xs,), q in points}
    assert len(met) < sum(len(points) for *_, points, _, _ in pairs)
    rng = random.Random(7)
    for level, parent, hc in _enumeration_pairs(eng, arr):
        point = tuple(x + _rand_felem(rng, eng.fspec) for x in field_point(eng, parent.res))
        normal, offset = field_plane(eng, hc)
        moved = field_plane_table(Hyperplane(normal, offset + _rand_felem(rng, eng.fspec)),
                                  eng.data.gen_ints)
        eng.build_level([dataclasses.replace(parent, res=res_of(point))],
                        [dataclasses.replace(hc, plane=moved)], level)
    keys = []
    for level, parent, hc, cut, points, hsub, classes in pairs:
        (direction, point), (normal, offset) = field_class(eng, parent), field_plane(eng, hc)
        reps = coset_reps(hsub)
        assert len(points) == len(reps) == len(classes)
        for res, y, cls in zip(points, reps, classes):
            assert res == eng.point(cut, y)
            pt = field_point(eng, res)
            key = field_label(eng, field_direction(eng, cut.sub), pt)
            assert cls.entry is cut.sub and cls.dim == level
            assert key == field_label(eng, *field_class(eng, cls)), (level, parent.id, hc.id, y)
            assert dot(normal, pt) == offset + dot(normal, gamma_vec(eng, y))
            step = tuple(a - b for a, b in zip(pt, point))
            assert len(rref(direction + (step,))) == len(direction)
            keys.append(key)
    assert sum(arr.counts()) < len(set(keys)) < len(keys)


@pytest.mark.parametrize("name", ["danzer", "penrose"])
def test_point_of_a_nonzero_rep_is_its_field_point(name):
    # with every plane moved off the origin, point(cut, y) for random
    # nonzero y is p + (c0 + sum y_i <nu, g_i> / a) w in field arithmetic,
    # w the pivot row, a = <nu, w> and c0 = (offset - <nu, p>) / a
    if name == "danzer":
        data = _translated(build("danzer").data, (F5.elem("1/3"), F5.elem(0, "1/5"), TAU))
    else:
        data = _translated(penrose(), (F5.elem("2/7", "1/3"), F5.elem("-1/2")))
    eng = Engine(data)
    rng = random.Random(29)
    checked = 0
    for level, parent, hc in _enumeration_pairs(eng, eng.enumerate_arrangement()):
        cut = _class_cut(eng, parent, hc)
        if cut is None:
            continue
        (direction, p), (normal, offset) = field_class(eng, parent), field_plane(eng, hc)
        w = next(u for u in direction if dot(normal, u))
        a = dot(normal, w)
        for _ in range(3):
            y = [0] * eng.n
            while not any(y):
                y = [rng.randint(-3, 3) for _ in range(eng.n)]
            c = (offset - dot(normal, p)) / a + sum(
                (eng.fspec.elem(yi) * dot(normal, g) for yi, g in zip(y, data.gens)),
                eng.fspec.zero) / a
            assert field_point(eng, eng.point(cut, y)) == tuple(
                x + c * u for x, u in zip(p, w)), (level, parent.id, hc.id, y)
            checked += 1
    assert checked > 30


@pytest.mark.parametrize("fspec", [quadratic(2), quadratic(3), F5],
                         ids=["Qsqrt2", "Qsqrt3", "Qsqrt5"])
def test_intersect_is_the_field_cut(fspec):
    # random directions, points and planes off the origin over each field,
    # unvalidated: intersect's pivot row w is the first rref row u_j with a
    # = <nu, u_j> != 0, inv / lcd is 1 / (den a), the sub-direction is the
    # plane's part of the direction, and point(cut, y) is p + (c0 + sum y_i
    # <nu, g_i>) w / a in field arithmetic, c0 = offset - <nu, p>
    rng = random.Random(f"cut:{fspec!r}")

    def elem():
        return fspec.elem(*(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                            for _ in range(fspec.degree)))

    m, n = 3, 3 * fspec.degree + 1
    data = from_field(fspec, m, tuple(tuple(elem() for _ in range(m)) for _ in range(n)),
                          (), "cuts")
    eng = Engine(data)
    proper = 0
    for _ in range(30):
        k = rng.randint(1, m)
        direction = tuple(tuple(elem() for _ in range(m)) for _ in range(k))
        if len(rref(direction)) < k:
            continue
        p, h = tuple(elem() for _ in range(m)), Hyperplane(tuple(elem() for _ in range(m)), elem())
        if not any(h.normal):
            continue
        cut, rows = _cut(eng, direction, p, h), field_direction(eng, entry_of(eng, direction))
        if cut is None:
            assert not any(dot(h.normal, u) for u in rows)
            continue
        proper += 1
        w = next(u for u in rows if dot(h.normal, u))
        a, den = dot(h.normal, w), field_plane_table(h, eng.data.gen_ints).den
        assert field_vector(eng, cut.wq, cut.q) == w
        assert field_vector(eng, cut.inv, cut.lcd)[0] * fspec.elem(den) * a == fspec.one
        sub = field_direction(eng, cut.sub)
        assert len(sub) == k - 1 and not any(dot(h.normal, u) for u in sub)
        assert contains(eng, direction, sub)
        for y in ([0] * n, [rng.randint(-3, 3) for _ in range(n)]):
            c = h.offset - dot(h.normal, p) + sum(
                (fspec.elem(yi) * dot(h.normal, g) for yi, g in zip(y, data.gens)), fspec.zero)
            assert field_point(eng, eng.point(cut, y)) == tuple(
                x + c / a * u for x, u in zip(p, w))
    assert proper > 10


def _check_annihilator(eng, entry):
    """R integral, killing every column of the entry, of rank dm - len(cols)
    and integral on the generators; its stabilizer the Hermite route's."""
    cols, rows = entry.cols, entry.rows
    gens, qg = eng.data.gen_ints
    assert all(type(x) is int for row in rows for x in row)
    assert not any(sum(r * c for r, c in zip(row, col)) for row in rows for col in cols)
    assert len(primitive_rref(rows)) == len(rows) == eng.dm - len(cols)
    assert not any(sum(r * x for r, x in zip(row, g)) % qg for row in rows for g in gens)
    assert entry.stab == hermite_stabilizer(eng, entry)


@pytest.mark.parametrize("fspec", [quadratic(5)], ids=["Qsqrt5"])
def test_annihilator_read_off_the_key(fspec):
    # random field subspaces of each dimension 0..m, under 2m random
    # generators with denominators: the rows R read off each entry's key
    # annihilate exactly its span, and the stabilizer is the Hermite
    # route's (R the Hermite basis of the columns' integer kernel)
    rng = random.Random(173)

    def elem():
        return fspec.elem(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                          Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    m = 3
    gens = tuple(tuple(elem() for _ in range(m)) for _ in range(2 * m))
    eng = Engine(from_field(fspec, m, gens, (), "annihilators"))
    dims = set()
    for _ in range(12):
        for k in range(m + 1):
            rows = [tuple(elem() if rng.random() < 0.6 else fspec.zero for _ in range(m))
                    for _ in range(k)]
            if len(rref(rows)) == k:
                _check_annihilator(eng, entry_of(eng, rows))
                dims.add(k)
    assert dims == set(range(m + 1))


@pytest.mark.parametrize("name", _PAIR_CASES)
def test_annihilator_of_every_entry_met(name, monkeypatch):
    # every direction entry that analyze builds on the m = 3 entries,
    # Ammann-Beenker, Penrose and the dense m = 2 fixtures, checked as it
    # is built: each cut's from its key, and each hyperplane class's from
    # its plane's table
    met, planes = [], []
    real, real_top = Engine._entry, Engine.hyperplane_classes

    def spy(self, key):
        fresh = key not in self._dirs
        entry = real(self, key)
        if fresh:
            _check_annihilator(self, entry)
            met.append(entry)
        return entry

    def top_spy(self):
        top = real_top(self)
        for hc in top:
            _check_annihilator(self, hc.entry)
            planes.append(hc.entry)
        return top

    monkeypatch.setattr(Engine, "_entry", spy)
    monkeypatch.setattr(Engine, "hyperplane_classes", top_spy)
    assert analyze(_PAIR_CASES[name]()).finite
    assert met and planes and not set(map(id, planes)) & set(map(id, met))


@pytest.mark.parametrize("name", [*_PAIR_CASES, "danzer_relative"])
def test_classification_subgroup_is_the_sum_of_the_stabilizers(name, monkeypatch):
    # every proper pair the engine classifies: its H equals the kernel of
    # the cut's shifts ds_i modulo lcd q E (the reference route) and the
    # Hermite basis of Stab(parent) + Stab(plane), both found here; the
    # cut reads its plane's dots' columns, not a copy, and its coefficients
    # c_i are <normal, g_i> / <normal, w> for the pivot row w; the
    # relative case classifies inside a plane class, whose root hands over
    # the plane's stabilizer.  The whole space is cut by no plane: each
    # hyperplane class's stabilizer, which a pair below reads, is the
    # Hermite kernel of its plane's cols and the Smith-form kernel of its
    # normal's field values on the generators.  The minors decide every
    # index-1 pair, and the Hermite form runs on the others; Danzer and
    # Penrose have no other pair
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
    cache, coefs = {}, {}
    for (parent, hc, level, cut), h in pairs:
        assert cut.cols is hc.plane.cols
        normal, _ = field_plane(eng, hc)
        w = next(u for u in field_direction(eng, parent.entry) if dot(normal, u))
        if (normal, w) not in coefs:
            coefs[normal, w] = [dot(normal, g) / dot(normal, w) for g in eng.data.gens]
        assert [field_vector(eng, c, cut.lcd)[0] for c in cut_shifts(eng, cut)] == (
            coefs[normal, w]), (level, parent.id, hc.id)
        assert h == shift_subgroup(eng, cut), (level, parent.id, hc.id)
        assert h == _stabilizer_sum(eng, parent, hc, cache), (level, parent.id, hc.id)
    roots = {parent.stabilizer.basis for (parent, _, _, _), _ in pairs
             if relative and parent is plane}
    assert roots == ({plane.stabilizer.basis} if relative else set())
    assert pairs and all(parent.dim < eng.m for (parent, _, _, _), _ in pairs)
    for hc in arr.levels[eng.m - 1]:
        normal, _ = field_plane(eng, hc)
        dots = _res_matrix([restrict_scalars((dot(normal, g),)) for g in eng.data.gens],
                           eng.delta)
        assert hc.stabilizer == integer_kernel([*zip(*hc.plane.cols)], eng.delta)[1]
        assert hc.stabilizer == mixed_solve(dots, [], [0] * eng.delta, eng.n).lattice, hc.id
    formed = {h != eng.full for _, h in pairs}
    assert formed == ({False} if name in ("danzer", "danzer_relative", "penrose")
                      else {False, True})


@pytest.mark.parametrize("name", _PAIR_CASES)
def test_each_unordered_pair_of_hyperplane_classes_is_classified_once(name, monkeypatch):
    # at level m-2 the parents are the hyperplane classes, and with the
    # masks of enumerate_arrangement parent i starts from the classes with
    # bit i, which hold every class of the pair (j, i) for j < i, so
    # build_level classifies the pair (i, j) only for j > i; with on=None
    # no class has a bit to start from.  Both runs accept the same classes
    # in the same order, with the same res, entry and stabilizer, and find
    # the same classes below each parent; without masks every proper pair
    # is classified, twice as many.  With a fresh `on` at every level, the
    # dumped report is the same
    data = _PAIR_CASES[name]()
    eng = Engine(data)
    top = eng.hyperplane_classes()
    pairs = []
    real = Engine.classify_pair
    monkeypatch.setattr(Engine, "classify_pair",
                        lambda self, *args: pairs.append(args[:2]) or real(self, *args))
    runs = []
    for on in ({(eng.m - 1, k): 1 << k for k in range(len(top))}, None):
        pairs.clear()
        covers = {}
        classes = eng.build_level(top, top, level=eng.m - 2, covers=covers, on=on)
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
    monkeypatch.setattr(Engine, "build_level", lambda self, *args, covers=None, on=None, **kw:
                        real_build(self, *args, covers=covers, on={}, **kw))
    docs.append(compute_report(data, dump_arrangement=True))
    for doc, _ in docs:
        del doc["timing"]
    assert docs[0] == docs[1] and docs[0][0]["status"] == "finite"


def test_plane_image_below_full_rank_takes_the_form(monkeypatch):
    # <(1, 0), gamma> is rational on every generator of Z + Z + sqrt2 Z
    # (in the second coordinate), so the planes x = 0 and x = 1/2 have dots
    # of rank 1 below delta = 2 and minor gcd 0: their pairs take the
    # Hermite form, although their H is Z^3, and the plane y = 0's pairs do
    # not.  Level 0 classifies the pairs (x = 0, y = 0) by minors, and (y
    # = 0, x = 0) and (y = 0, x = 1/2) by the form, since a plane with
    # minor gcd 0 gives no index to compare with the classes below; it
    # takes the pair (x = 1/2, y = 0) without a cut, as its index 1 counts
    # the class with both bits; x = 0 and x = 1/2 do not meet.  The lines
    # themselves are read off their tables, with no pair
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
        pairs.append((level, rational, hc.plane.g, len(kernels), out[2]))
        assert out[2] == _stabilizer_sum(eng, parent, hc, cache)
        return out

    cache = {}
    monkeypatch.setattr(Engine, "classify_pair", spy)
    monkeypatch.setattr(patcoh.orbits, "integer_kernel",
                        lambda *args: kernels.append(args) or real_kernel(*args))
    assert eng.enumerate_arrangement().counts() == [2, 3]
    assert sorted(pairs, key=lambda pair: pair[:2]) == [
        (0, False, 1, 0, eng.full), (0, True, 0, 1, eng.full), (0, True, 0, 1, eng.full)]


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
