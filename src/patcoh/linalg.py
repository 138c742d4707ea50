"""Exact rational and integer linear algebra.

Ranks and kernels over Q (ranks, and a canonical key of a rational span, by
fraction-free elimination, `primitive_rref`), the Hermite normal form over
Z (the lattice normal form: integer kernels and lattice bases are read off
it; images modulo a lattice are first reduced by its echelon rows,
`remainder`, and only those left nonzero enter the form), coset
representatives read off the Hermite box, and ranks of spans of exterior
powers.  The Smith form and the rational annihilator serve only
`mixed_solve`, the reference solver the engine is tested against, so the
two share no normal form.
Matrices are lists of row tuples; rational entries are Fractions, integer
entries are plain ints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


# ---------------------------------------------------------------------------
# generic elimination (works over Fraction and over FElem)

def rref(rows) -> list[list]:
    """Reduced row echelon form over a field; zero rows dropped.

    Canonical: two matrices have the same row space iff their rrefs agree.
    Entries only need +, -, *, 1 / x and truthiness-at-zero, so this serves
    both Fraction matrices and quadratic-field matrices; each pivot is
    inverted once and its row multiplied by the inverse.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col]:
                pr = i
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        mat[pivot_row] = [x * inv for x in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [r for r in mat[:pivot_row]]


def primitive_rref(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The rref over Q of integer rows, each row scaled to a primitive integer
    row with a positive pivot (fraction-free Gauss-Jordan: a row cleared at a
    pivot is divided by its gcd): a hashable key canonical for their Q-span."""
    mat, r = [list(row) for row in rows], 0
    for c in range(len(mat[0]) if mat else 0):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is not None:
            g = math.gcd(*mat[p]) * (1 if mat[p][c] > 0 else -1)
            piv = [x // g for x in mat[p]]
            mat[p], mat[r] = mat[r], piv
            for i, row in enumerate(mat):
                if i != r and row[c]:
                    row = [piv[c] * x - row[c] * y for x, y in zip(row, piv)]
                    g = math.gcd(*row) or 1
                    mat[i] = [x // g for x in row]
            r += 1
    return tuple(map(tuple, mat[:r]))


def rat_rank(rows) -> int:
    return len(primitive_rref(clear_denominators(rows)[0]))


def rational_kernel(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x in Q^ncols : M x = 0}."""
    red = rref(rows)
    pivots = []
    for r in red:
        for j, x in enumerate(r):
            if x:
                pivots.append(j)
                break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        basis.append(tuple(v))
    return basis


def left_annihilator(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {c : c M = 0} for M given by `rows` (len(rows) x ncols)."""
    transposed = [tuple(r[i] for r in rows) for i in range(ncols)]
    return rational_kernel(transposed, len(rows))


# ---------------------------------------------------------------------------
# integer normal forms

def _ident(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form H = U M, U unimodular (the identity
    block of the form of [M | I]; see `integer_kernel`).

    Row echelon with positive pivots and entries above each pivot reduced
    into [0, pivot); canonical for the row lattice.  H keeps the shape of M
    (zero rows at the bottom).
    """
    h = [list(r) for r in rows]
    nrows, r = len(h), 0
    for c in range(len(h[0]) if h else 0):
        if r == nrows:
            break
        # clear column c below row r by gcd steps
        while True:
            nz = [i for i in range(r, nrows) if h[i][c] != 0]
            if len(nz) <= 1:
                break
            p = min(nz, key=lambda i: abs(h[i][c]))
            for i in nz:
                if i == p:
                    continue
                q = h[i][c] // h[p][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[p])]
        if not nz:
            continue
        p = nz[0]
        h[r], h[p] = h[p], h[r]
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
    return h


def snf(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: D = U M V, U and V unimodular, d1 | d2 | ... >= 0.

    Each pass moves an entry of least absolute value in the remaining
    block to (k, k) and reduces its row and column by it once; a nonzero
    remainder is smaller, so the pass repeats with it as pivot.  Taking
    the least entry every time keeps the other entries from growing."""
    d = [list(r) for r in rows]
    nrows = len(d)
    ncols = len(d[0]) if nrows else 0
    u = _ident(nrows)
    v = _ident(ncols)
    k = 0
    while k < min(nrows, ncols):
        # pivot: an entry of least absolute value in the remaining block
        piv = min(((abs(d[i][j]), i, j) for i in range(k, nrows)
                   for j in range(k, ncols) if d[i][j]), default=None)
        if piv is None:
            break
        _, i0, j0 = piv
        d[k], d[i0] = d[i0], d[k]
        u[k], u[i0] = u[i0], u[k]
        for row in d:
            row[k], row[j0] = row[j0], row[k]
        for row in v:
            row[k], row[j0] = row[j0], row[k]
        p = d[k][k]
        for i in range(k + 1, nrows):
            q = d[i][k] // p
            if q:
                d[i] = [x - q * y for x, y in zip(d[i], d[k])]
                u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        for j in range(k + 1, ncols):
            q = d[k][j] // p
            if q:
                for row in d:
                    row[j] -= q * row[k]
                for row in v:
                    row[j] -= q * row[k]
        if (any(d[i][k] for i in range(k + 1, nrows))
                or any(d[k][j] for j in range(k + 1, ncols))):
            continue  # a remainder below |p| is the next pivot
        if p < 0:
            for row in d:
                row[k] = -row[k]
            for row in v:
                row[k] = -row[k]
        # enforce d_k | d[i][j]: adding row i leaves a smaller remainder
        bad = next((i for i in range(k + 1, nrows)
                    if any(d[i][j] % d[k][k] for j in range(k + 1, ncols))), None)
        if bad is not None:
            d[k] = [x + y for x, y in zip(d[k], d[bad])]
            u[k] = [x + y for x, y in zip(u[k], u[bad])]
            continue
        k += 1
    return d, u, v


def int_matvec(a: Sequence[Sequence[int]], x: Sequence) -> list:
    return [sum(p * q for p, q in zip(row, x)) for row in a]


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant by Bareiss fraction-free elimination."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# lattices and cosets

@dataclass(frozen=True)
class IntLattice:
    """Sublattice of Z^ambient, basis rows Z-independent and in HNF."""

    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(ambient: int, rows: Sequence[Sequence[int]]) -> "IntLattice":
        nonzero = tuple(tuple(r) for r in hnf(rows) if any(r))
        return IntLattice(ambient, nonzero)

    @staticmethod
    def full(n: int) -> "IntLattice":
        return IntLattice(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def echelon(self) -> list[tuple[int, tuple[int, ...]]]:
        """The basis as Hermite echelon rows (pivot column, row)."""
        return [(next(j for j, x in enumerate(row) if x), row) for row in self.basis]

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of vec modulo this lattice (HNF box)."""
        return tuple(remainder(self.echelon, vec))


@dataclass(frozen=True)
class Coset:
    """Affine solution set base + lattice inside Z^k."""

    base: tuple[int, ...]
    lattice: IntLattice


def clear_denominators(rows) -> tuple[list[list[int]], int]:
    """(N, q) with rows = N / q: N integral and q the least common
    denominator of the entries, Fractions or ints."""
    q = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (q // x.denominator) for x in row] for row in rows], q


def remainder(echelon, v: Sequence[int], q: int = 1) -> Sequence[int]:
    """v reduced by q times the echelon rows (pivot, row), top to bottom
    with the floor at each pivot, into the box [0, q row[pivot])."""
    for p, row in echelon:
        k = v[p] // (q * row[p])
        if k:
            kq = k * q
            v = [a - kq * b for a, b in zip(v, row)]
    return v


def integer_kernel(images: Sequence[Sequence[int]], width: int,
                   modulus: Sequence = ()) -> tuple[list, IntLattice]:
    """(echelon, kernel) of integer rows `images` of length `width` modulo
    `modulus`, Hermite echelon rows (pivot column, row) as returned here.

    Each image is first replaced by its `remainder`, a unimodular row
    operation.  An image in span_Z(modulus) reduces to zero and gives the
    unit row e_i of the kernel; the others enter one Hermite form of
    [images | I ; modulus | 0].  Its rows nonzero on the first `width`
    columns are the Hermite basis of span_Z(images, modulus) there; its
    other nonzero rows carry kernel rows in their identity block, zero on
    every unit row's column, so with the unit rows, sorted by pivot, they
    are the Hermite basis of the kernel {integer y : sum y_i images_i in
    span_Z(modulus)}.  With no image left the echelon is the modulus."""
    k = len(images)
    rems = [remainder(modulus, row) for row in images]
    left = [i for i, row in enumerate(rems) if any(row)]
    kernel = [(0,) * i + (1,) + (0,) * (k - 1 - i) for i, row in enumerate(rems) if not any(row)]
    if not left:
        return list(modulus), IntLattice(k, tuple(kernel))
    echelon = []
    for row in hnf([[*rems[i], *(int(i == j) for j in left)] for i in left]
                   + [[*row, *[0] * len(left)] for _, row in modulus]):
        head = row[:width]
        if any(head):
            echelon.append((next(j for j, x in enumerate(head) if x), head))
        elif any(row):
            tail = dict(zip(left, row[width:]))
            kernel.append(tuple(tail.get(i, 0) for i in range(k)))
    return echelon, IntLattice(k, tuple(sorted(kernel, reverse=True)))


def mixed_solve(a_rows, b_rows, c, k: int) -> Coset | None:
    """Solve {x in Z^k : exists t in Q^s, A x + B t = c}.

    a_rows: r x k rational, b_rows: r x s rational, c: length-r rational.
    Eliminates t by projecting onto a rational complement of col(B), then
    solves the pure-integer affine system by SNF.  Returns None when empty.
    """
    r = len(a_rows)
    if r == 0:
        return Coset(tuple([0] * k), IntLattice.full(k))
    s = len(b_rows[0]) if (b_rows and b_rows[0]) else 0
    if s:
        proj = left_annihilator(b_rows, s)
    else:
        proj = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
    if not proj:
        return Coset(tuple([0] * k), IntLattice.full(k))
    m_rows = []
    rhs = []
    for p in proj:
        m_rows.append([sum(p[i] * Fraction(a_rows[i][j]) for i in range(r)) for j in range(k)])
        rhs.append(sum(p[i] * Fraction(c[i]) for i in range(r)))
    # clear denominators row by row
    int_m: list[list[int]] = []
    int_b: list[int] = []
    for row, b in zip(m_rows, rhs):
        scale = math.lcm(b.denominator, *(x.denominator for x in row))
        int_m.append([int(x * scale) for x in row])
        int_b.append(int(b * scale))
    d, u, v = snf(int_m)
    ub = int_matvec(u, int_b)
    rank = 0
    y0 = [0] * k
    for i in range(min(len(d), k)):
        if d[i][i] != 0:
            rank = i + 1
    for i in range(len(ub)):
        if i < rank:
            q, rem = divmod(ub[i], d[i][i])
            if rem != 0:
                return None
            y0[i] = q
        elif ub[i] != 0:
            return None
    x0 = int_matvec(v, y0)
    gens = [tuple(v[i][j] for i in range(k)) for j in range(rank, k)]
    lat = IntLattice.from_rows(k, gens)
    return Coset(lat.reduce(x0), lat)


def coset_reps(h_lat: IntLattice) -> list[tuple[int, ...]]:
    """One representative per coset of H in Z^n, lexicographic.

    H's basis is a row HNF, so for full rank it is upper triangular with
    positive diagonal and the box prod [0, h_ii) holds exactly one point
    of each coset: the HNF-reduced one.
    """
    if h_lat.rank < h_lat.ambient:
        raise ValueError("infinite index")
    return list(itertools.product(*(range(row[i]) for i, row in enumerate(h_lat.basis))))


def wedge_span_rank(lats: Sequence[IntLattice], p: int, minors: dict | None = None) -> int:
    """Rank over Q of the span of all p-fold wedges of the lattices' bases.

    Coordinates in Lambda^p Z^n indexed by lexicographic p-subsets; entries
    are p x p minors, kept per (lattice, p) in `minors` across calls when
    given.  p = 0 gives 1 for a nonempty family.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return 1 if lats else 0
    minors = {} if minors is None else minors
    rows = []
    for lat in lats:
        if lat.rank < p:
            continue
        wedges = minors.get((lat, p))
        if wedges is None:
            col_subsets = list(itertools.combinations(range(lat.ambient), p))
            wedges = minors[(lat, p)] = [
                [int_det([[lat.basis[i][j] for j in cols_sel] for i in rows_sel])
                 for cols_sel in col_subsets]
                for rows_sel in itertools.combinations(range(lat.rank), p)]
        rows += wedges
    return sum(1 for row in hnf(rows) if any(row))
