import itertools
import math
import random
from fractions import Fraction

import pytest

import patcoh.linalg
from patcoh.field import quadratic, restrict_scalars
from patcoh.linalg import (
    Coset,
    IntLattice,
    clear_denominators,
    coset_reps,
    hnf,
    int_det,
    integer_kernel,
    mixed_solve,
    primitive_rref,
    rat_rank,
    rational_kernel,
    remainder,
    rref,
    snf,
    wedge_span_rank,
)
from reference import coords_of, lattice_index

F = Fraction


def rand_int_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def rand_unimodular(rng, n, steps=8):
    """Product of random shears and swaps; determinant is +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            m[i], m[j] = m[j], m[i]
        else:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def int_matmul(a, b):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


# -- rational elimination ----------------------------------------------------

def test_rat_rank_examples():
    assert rat_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rat_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rat_rank([]) == 0


def test_rat_rank_icosahedral_star():
    f5 = quadratic(5)
    tau = f5.elem("1/2", "1/2")
    sigma = tau.conj()
    one, zero = f5.one, f5.zero
    star = [
        (one, sigma, zero), (-one, sigma, zero),
        (zero, one, sigma), (zero, -one, sigma),
        (sigma, zero, one), (-sigma, zero, one),
    ]
    rows = [restrict_scalars(v) for v in star]
    assert rat_rank(rows) == 6


def hnf_rank(rows):
    """Rank of an integer matrix: the nonzero rows of its Hermite form."""
    return sum(1 for row in hnf(rows) if any(row))


def test_hnf_rank_examples():
    assert hnf_rank([]) == 0
    assert hnf_rank([[0, 0], [0, 0]]) == 0
    assert hnf_rank([[2, 4], [3, 6]]) == 1
    assert hnf_rank([[0, 1], [1, 0], [1, 1]]) == 2


def test_hnf_rank_matches_rat_rank_random():
    # low-rank products, zero and repeated rows, entries past 2**40
    rng = random.Random(71)
    big = 2 ** 40
    cases = 0
    for _ in range(200):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(nrows, ncols))
        lo, hi = (-big * 9, big * 9) if rng.random() < 0.3 else (-5, 5)
        left = rand_int_matrix(rng, nrows, k, lo, hi)
        right = rand_int_matrix(rng, k, ncols, -3, 3)
        rows = int_matmul(left, right) if k else [[0] * ncols for _ in range(nrows)]
        if rng.random() < 0.5:
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        if rng.random() < 0.5:
            rows.append(list(rng.choice(rows)))
        rng.shuffle(rows)
        expected = rat_rank([[F(x) for x in r] for r in rows])
        assert expected <= k
        assert hnf_rank(rows) == expected, rows
        huge = any(abs(x) > big for r in rows for x in r)
        cases += huge and 0 < expected < min(len(rows), ncols)
    assert cases > 10


def test_rref_canonical_under_row_operations():
    rng = random.Random(23)
    for _ in range(20):
        m = [[F(rng.randint(-5, 5)) for _ in range(4)] for _ in range(3)]
        u = rand_unimodular(rng, 3)
        mixed = [[sum(F(u[i][k]) * m[k][j] for k in range(3)) for j in range(4)]
                 for i in range(3)]
        assert rref(m) == rref(mixed)


def test_rref_over_quadratic_field():
    f5 = quadratic(5)
    tau = f5.elem("1/2", "1/2")
    rows = [(tau, f5.one), (tau * tau, tau)]  # second row = tau * first
    red = rref(rows)
    assert len(red) == 1
    assert red[0] == [f5.one, f5.one / tau]


def primitive_scaled_rref(rows):
    """The Fraction `rref` of integer rows, each row scaled to a primitive
    integer row (its pivot 1 stays positive)."""
    out = []
    for row in rref([[F(x) for x in r] for r in rows]):
        ints = [int(x * math.lcm(*(y.denominator for y in row))) for x in row]
        out.append(tuple(x // math.gcd(*ints) for x in ints))
    return tuple(out)


def test_primitive_rref_examples():
    assert primitive_rref([]) == ()
    assert primitive_rref([[0, 0], [0, 0]]) == ()
    assert primitive_rref([[-2, 4, 6], [1, -2, -3]]) == ((1, -2, -3),)
    assert primitive_rref([[0, 2, 3], [4, 0, 2]]) == ((2, 0, 1), (0, 2, 3))


def test_primitive_rref_is_canonical_for_the_rational_span():
    # integer bases of Q-subspaces (dependent rows, zero rows and entries
    # past 2**40 among them), re-based by random invertible rational
    # matrices and cleared row by row: every basis of one span gives one
    # key, the Fraction rref with primitive integer rows, and spans that
    # differ (their stacked rank exceeds each one's) give different keys
    rng = random.Random(79)
    spans = []
    for _ in range(120):
        ncols, k = rng.randint(1, 5), rng.randint(0, 4)
        lo, hi = (-2 ** 41, 2 ** 41) if rng.random() < 0.2 else (-2, 2)
        basis = rand_int_matrix(rng, k, ncols, lo, hi)
        key = primitive_rref(basis)
        assert key == primitive_scaled_rref(basis), basis
        for _ in range(3):
            while True:
                mix = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(k)]
                       for _ in range(k)]
                if len(rref(mix)) == k:
                    break
            rows = clear_denominators(
                [[sum(c * x for c, x in zip(mrow, col)) for col in zip(*basis)]
                 for mrow in mix])[0] if k else []
            rows = [[x * c for x in row] for row, c in zip(rows, rng.choices([-3, -1, 2], k=k))]
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
            assert primitive_rref(rows) == key, (basis, rows)
        spans.append((ncols, basis, key))
    verdicts = []
    for (na, a, ka), (nb, b, kb) in itertools.combinations(spans, 2):
        if na == nb:
            rank = len(rref([[F(x) for x in r] for r in a + b]))
            verdicts.append(rank == len(ka) == len(kb))
            assert (ka == kb) == verdicts[-1], (a, b)
    assert 20 < sum(verdicts) < len(verdicts) - 20


def test_rational_kernel_example():
    ker = rational_kernel([[F(1), F(1), F(1)]], 3)
    assert len(ker) == 2
    for v in ker:
        assert sum(v) == 0


# -- integer normal forms ----------------------------------------------------

def hnf_with_transform(m):
    """(H, U) with hnf([M | I]) = [H | U], so H = U M."""
    k = len(m[0])
    aug = hnf([list(r) + [int(i == j) for j in range(len(m))] for i, r in enumerate(m)])
    return [r[:k] for r in aug], [r[k:] for r in aug]


def test_hnf_example():
    h, u = hnf_with_transform([[2, 4], [1, 3]])
    assert h == [[1, 1], [0, 2]] == hnf([[2, 4], [1, 3]])
    assert abs(int_det(u)) == 1
    assert int_matmul(u, [[2, 4], [1, 3]]) == h


def test_hnf_canonical_for_row_lattice():
    rng = random.Random(31)
    for _ in range(25):
        m = rand_int_matrix(rng, 3, 4)
        p = rand_unimodular(rng, 3)
        h1 = hnf(m)
        h2 = hnf(int_matmul(p, m))
        assert h1 == h2


def test_hnf_transform_is_unimodular():
    rng = random.Random(37)
    for _ in range(25):
        m = rand_int_matrix(rng, 4, 4)
        h, u = hnf_with_transform(m)
        assert h == hnf(m)
        assert abs(int_det(u)) == 1
        assert int_matmul(u, m) == h


def test_snf_examples():
    d, _, _ = snf([[2, 0], [0, 1]])
    assert [d[0][0], d[1][1]] == [1, 2]
    d, _, _ = snf([[6, 0], [0, 4]])
    assert [d[0][0], d[1][1]] == [2, 12]
    d, _, _ = snf([[0, 0], [0, 0]])
    assert [d[0][0], d[1][1]] == [0, 0]


def test_snf_properties_random():
    rng = random.Random(41)
    for _ in range(25):
        m = rand_int_matrix(rng, 3, 3)
        d, u, v = snf(m)
        assert int_matmul(int_matmul(u, m), v) == d
        assert abs(int_det(u)) == 1 and abs(int_det(v)) == 1
        diag = [d[i][i] for i in range(3)]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0
        assert abs(diag[0] * diag[1] * diag[2]) == abs(int_det(m))


def test_int_det_examples():
    assert int_det([[1, 2], [3, 4]]) == -2
    assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert int_det([]) == 1


# -- integer kernels and lattices --------------------------------------------

def kernel_of(rows, ncols):
    """{x in Z^ncols : A x = 0}, A rational, by `integer_kernel` of A's
    columns cleared of denominators, as the engine's `_direction` does."""
    cols, _ = clear_denominators(rows)
    return integer_kernel([[r[j] for r in cols] for j in range(ncols)], len(cols))[1]


def test_integer_kernel_examples():
    lat = kernel_of([[F(1, 2), F(-1, 3)]], 2)
    assert lat.basis == ((2, 3),)
    assert kernel_of([[F(0), F(0)]], 2).rank == 2
    assert kernel_of([[F(1), F(0)], [F(0), F(1)]], 2).rank == 0
    # no equations at all: every vector is in the kernel, and the basis is I
    assert integer_kernel([(), (), ()], 0) == ([], IntLattice.full(3))
    # images modulo a lattice, given by its Hermite echelon: echelon of
    # both, kernel of the images mod it
    modulus = integer_kernel([[2, 0], [0, 4]], 2)[0]
    echelon, lat = integer_kernel([[1, 0], [0, 1], [1, 1]], 2, modulus)
    assert echelon == [(0, [1, 0]), (1, [0, 1])]
    assert lat.basis == ((1, 1, 3), (0, 2, 2), (0, 0, 4))


def smith_kernel(rows, ncols):
    """Integer kernel by the Smith form: the columns of V past the rank."""
    int_rows = []
    for r in rows:
        if any(r):
            scale = math.lcm(*(F(x).denominator for x in r))
            int_rows.append([int(x * scale) for x in r])
    if not int_rows:
        return IntLattice.full(ncols)
    d, _, v = snf(int_rows)
    rank = sum(1 for i in range(min(len(d), ncols)) if d[i][i] != 0)
    return IntLattice.from_rows(
        ncols, [[v[i][j] for i in range(ncols)] for j in range(rank, ncols)])


def test_integer_kernel_membership_random():
    rng = random.Random(43)
    for _ in range(20):
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(2)]
        lat = kernel_of(rows, 3)
        for vec in lat.basis:
            assert all(sum(r[j] * vec[j] for j in range(3)) == 0 for r in rows)
        # exhaustive small box: membership matches the equations
        for vec in itertools.product(range(-3, 4), repeat=3):
            solves = all(sum(r[j] * vec[j] for j in range(3)) == 0 for r in rows)
            assert (coords_of(lat, vec) is not None) == solves
    # systems the size of a classification pair's (up to 6 x 12), int or
    # Fraction entries, low rank, zero and repeated rows: the same lattice
    # as the Smith form's
    deficient = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 12)
        k = rng.randint(0, min(nrows, ncols))
        rows = (int_matmul(rand_int_matrix(rng, nrows, k, -6, 6),
                           rand_int_matrix(rng, k, ncols, -6, 6))
                if k else [[0] * ncols for _ in range(nrows)])
        if rng.random() < 0.5:
            rows = [[F(x, rng.randint(1, 4)) for x in r] for r in rows]
        if rng.random() < 0.5:
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        if rng.random() < 0.5:
            rows.append(list(rng.choice(rows)))
        lat = kernel_of(rows, ncols)
        assert lat == smith_kernel(rows, ncols), rows
        assert lat == IntLattice.from_rows(ncols, lat.basis)
        for vec in lat.basis:
            assert all(sum(r[j] * vec[j] for j in range(ncols)) == 0 for r in rows)
        deficient += 0 < lat.rank < ncols
    assert deficient > 20


def test_integer_kernel_modulus_against_brute_force():
    # random images modulo a random lattice: over a box, y is in the kernel
    # iff sum y_i images_i lies in the modulus lattice, decided by the Smith
    # form through mixed_solve; the echelon is the Hermite basis of images
    # and modulus together
    rng = random.Random(61)
    inside = outside = 0
    for _ in range(25):
        k, width = rng.randint(1, 3), rng.randint(1, 3)
        images = rand_int_matrix(rng, k, width, -4, 4)
        modulus = rand_int_matrix(rng, rng.randint(1, 3), width, -3, 3)
        echelon, lat = integer_kernel(images, width, integer_kernel(modulus, width)[0])
        assert lat.ambient == k and lat == IntLattice.from_rows(k, lat.basis)
        assert [tuple(row) for _, row in echelon] == list(
            IntLattice.from_rows(width, images + modulus).basis)
        assert all(row[p] > 0 and not any(row[:p]) for p, row in echelon)
        mod_cols = [[F(r[j]) for r in modulus] for j in range(width)]
        for y in itertools.product(range(-2, 3), repeat=k):
            v = [F(sum(yi * im[j] for yi, im in zip(y, images))) for j in range(width)]
            member = mixed_solve(mod_cols, [[]] * width, v, len(modulus)) is not None
            assert (coords_of(lat, y) is not None) == member, (images, modulus, y)
            inside += member
            outside += not member
    assert inside > 100 and outside > 100


def unreduced_kernel(images, width, modulus):
    """`integer_kernel` read off the Hermite form of [images | I ; modulus
    | 0] with the images as given, none reduced first."""
    k = len(images)
    h = hnf([[*row, *(int(i == j) for j in range(k))] for i, row in enumerate(images)]
            + [[*row, *[0] * k] for _, row in modulus])
    echelon = [(next(j for j, x in enumerate(r) if x), r[:width]) for r in h if any(r[:width])]
    return echelon, IntLattice(k, tuple(tuple(r[width:]) for r in h
                                        if any(r) and not any(r[:width])))


def test_integer_kernel_images_equal_their_remainders(monkeypatch):
    # images far outside the modulus box, drawn so that all, none or some
    # of them are lattice vectors (the others a lattice vector plus a small
    # offset off the lattice): their remainders lie in the box and differ
    # from them by lattice vectors, an image reduces to zero exactly when
    # it is a lattice vector, and the images, their remainders and the
    # unreduced form all give the same echelon and kernel; the form that
    # integer_kernel takes holds exactly the images with a nonzero
    # remainder, and it takes none when every image is a lattice vector
    rng = random.Random(73)
    forms = []
    real_hnf = patcoh.linalg.hnf
    monkeypatch.setattr(patcoh.linalg, "hnf", lambda rows: forms.append(rows) or real_hnf(rows))
    modes = {"all": 0, "none": 0, "some": 0}
    for trial in range(90):
        mode = ("all", "none", "some")[trial % 3]
        k, width = rng.randint(1, 5), rng.randint(1, 4)
        raw = rand_int_matrix(rng, rng.randint(1, 4), width, -6, 6)
        modulus = integer_kernel(raw, width)[0]
        lattice = IntLattice.from_rows(width, raw)
        if mode != "all" and lattice.rank == width and all(row[p] == 1 for p, row in modulus):
            continue  # the lattice is Z^width: every image is a member
        inside = [mode == "all" or (mode == "some" and i % 2 == 0) for i in range(k)]
        images = []
        for member in inside:
            coeffs = [rng.randint(-10**6, 10**6) for _ in raw]
            small = [0] * width
            while not member and coords_of(lattice, small) is not None:
                small = [rng.randint(-1, 1) for _ in range(width)]
            images.append([sum(c * r[j] for c, r in zip(coeffs, raw)) + e
                           for j, e in enumerate(small)])
        rems = [remainder(modulus, row) for row in images]
        for row, rem, member in zip(images, rems, inside):
            assert all(0 <= rem[p] < mrow[p] for p, mrow in modulus)
            assert coords_of(lattice, [a - b for a, b in zip(row, rem)]) is not None
            assert (not any(rem)) == member
        forms.clear()
        out = integer_kernel(images, width, modulus)
        left = [rem for rem, member in zip(rems, inside) if not member]
        assert [[row[:width] for row in form[:len(left)]] for form in forms] == (
            [left] if left else [])
        assert out == integer_kernel(rems, width, modulus)
        assert out == unreduced_kernel(images, width, modulus)
        modes[mode] += 1
    assert min(modes.values()) > 20
    # an empty modulus and zero images: no form, an empty echelon, and
    # the kernel is all of Z^k
    for k, width in [(1, 1), (3, 2), (4, 5)]:
        zeros = [[0] * width for _ in range(k)]
        assert integer_kernel(zeros, width) == unreduced_kernel(zeros, width, ()) == (
            [], IntLattice.full(k))


def test_lattice_reduce_is_canonical():
    lat = IntLattice.from_rows(2, [[2, 0], [0, 3]])
    rng = random.Random(47)
    for _ in range(30):
        v = [rng.randint(-20, 20), rng.randint(-20, 20)]
        shift = [rng.randint(-5, 5), rng.randint(-5, 5)]
        moved = [v[j] + 2 * shift[0] * (j == 0) + 3 * shift[1] * (j == 1)
                 for j in range(2)]
        assert lat.reduce(v) == lat.reduce(moved)
    assert lat.reduce((5, -4)) == (1, 2)


# -- mixed integer-rational solving ------------------------------------------

def test_mixed_solve_examples():
    # x1/2 - x2/3 = 0, no rational unknowns
    sol = mixed_solve([[F(1, 2), F(-1, 3)]], [], [F(0)], 2)
    assert sol is not None and sol.base == (0, 0)
    assert sol.lattice.basis == ((2, 3),)
    # x = 1/2 has no integer solution
    assert mixed_solve([[F(1)]], [], [F(1, 2)], 1) is None
    # x + t = 1/2 with rational t: every integer x works
    sol = mixed_solve([[F(1)]], [[F(1)]], [F(1, 2)], 1)
    assert sol is not None and sol.lattice.rank == 1


def brute_force_box(a_rows, b_rows, c, k, box=8):
    """All x in [-box, box]^k admitting a rational t with A x + B t = c."""
    r = len(a_rows)
    s = len(b_rows[0]) if (b_rows and b_rows[0]) else 0
    hits = set()
    for x in itertools.product(range(-box, box + 1), repeat=k):
        resid = [c[i] - sum(a_rows[i][j] * x[j] for j in range(k)) for i in range(r)]
        if s == 0:
            ok = not any(resid)
        else:
            bmat = [list(b_rows[i]) for i in range(r)]
            ok = rat_rank(bmat) == rat_rank([row + [resid[i]] for i, row in enumerate(bmat)])
        if ok:
            hits.add(x)
    return hits


def test_mixed_solve_against_brute_force():
    rng = random.Random(97)
    checked = 0
    while checked < 110:
        k = rng.randint(1, 2)
        r = rng.randint(1, 3)
        s = rng.randint(0, 2)
        a_rows = [[F(rng.randint(-5, 5)) for _ in range(k)] for _ in range(r)]
        b_rows = [[F(rng.randint(-5, 5)) for _ in range(s)] for _ in range(r)]
        c = [F(rng.randint(-5, 5)) for _ in range(r)]
        sol = mixed_solve(a_rows, b_rows, c, k)
        expected = brute_force_box(a_rows, b_rows, c, k)
        box_pts = itertools.product(range(-8, 9), repeat=k)
        if sol is None:
            assert not expected
        else:
            got = {x for x in box_pts
                   if coords_of(sol.lattice,
                                [a - b for a, b in zip(x, sol.base)]) is not None}
            assert got == expected
        checked += 1


# -- indices, cosets, wedges -------------------------------------------------

def test_lattice_index_examples():
    z2 = IntLattice.full(2)
    sub = IntLattice.from_rows(2, [[2, 0], [0, 3]])
    assert lattice_index(z2, sub) == 6
    line = IntLattice.from_rows(2, [[1, 0]])
    assert lattice_index(z2, line) is None
    with pytest.raises(ValueError):
        lattice_index(sub, z2)


def test_coset_reps_examples():
    sub = IntLattice.from_rows(2, [[2, 0], [0, 3]])
    reps = coset_reps(sub)
    assert reps == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert coset_reps(IntLattice.from_rows(1, [[5]])) == [
        (0,), (1,), (2,), (3,), (4,)]
    with pytest.raises(ValueError):
        coset_reps(IntLattice.from_rows(2, [[1, 0]]))


def test_coset_reps_are_a_transversal():
    rng = random.Random(53)
    for n in range(1, 5):
        checked = 0
        while checked < 15:
            rows = rand_int_matrix(rng, n, n, -4, 4)
            # the pairwise check below is quadratic in the index
            if not 0 < abs(int_det(rows)) <= 60:
                continue
            sub = IntLattice.from_rows(n, rows)
            reps = coset_reps(sub)
            assert len(reps) == lattice_index(IntLattice.full(n), sub)
            # the order fixes class ids, hence the canonical digests
            assert reps == sorted(reps)
            # pairwise inequivalent
            for x, y in itertools.combinations(reps, 2):
                assert coords_of(sub, [a - b for a, b in zip(x, y)]) is None
            checked += 1


def test_wedge_span_rank_examples():
    e12 = IntLattice.from_rows(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    e34 = IntLattice.from_rows(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert wedge_span_rank([e12], 2) == 1
    assert wedge_span_rank([e12, e34], 2) == 2
    assert wedge_span_rank([e12, e34], 1) == 4
    assert wedge_span_rank([e12, e34], 3) == 0
    assert wedge_span_rank([e12], 0) == 1
    assert wedge_span_rank([], 0) == 0


def test_wedge_span_rank_basis_invariance():
    rng = random.Random(59)
    for _ in range(10):
        rows = rand_int_matrix(rng, 2, 4, -3, 3)
        lat = IntLattice.from_rows(4, rows)
        if lat.rank != 2:
            continue
        u = rand_unimodular(rng, 2)
        lat2 = IntLattice.from_rows(4, int_matmul(u, [list(r) for r in lat.basis]))
        for p in (1, 2):
            assert wedge_span_rank([lat], p) == wedge_span_rank([lat2], p)
