"""Exact rational and integer linear algebra.

Ranks and kernels over Q (ranks, and a canonical key of a rational span, by
fraction-free elimination, `primitive_rref`), the Hermite normal form over Z
(the lattice normal form: integer kernels and lattice bases are read off it;
images modulo a lattice are first reduced by its echelon rows, `remainder`,
and only those left nonzero enter the form), coset representatives read off
the Hermite box, the index of a full-rank row lattice from its maximal
minors, and ranks of spans of exterior powers, where a lattice of rank r
enters through one vector, its top wedge (its r x r minors, or for a
kernel the Hodge dual of its equations' minors), whose contractions span
its p-fold wedges.  No command runs the field `rref`, the Smith form or
the rational annihilator: the benchmark's tracer wraps them by name, and
the mixed integer-rational solver of the tests (`tests/reference.py`),
which the engine is checked against, is built on them, so the two share
no normal form.  Matrices are lists of row tuples; rational entries are
Fractions, integer entries are plain ints.
"""

from __future__ import annotations

import functools
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


def minors(vectors: Sequence[Sequence[int]], k: int) -> list[int]:
    """The determinants of the k-subsets of integer vectors of length k, in
    lexicographic order: the maximal minors of the k-row matrix whose
    columns they are.  A closed form for k = 2, the degree of every field
    and the rank of the lines' stabilizers; `int_det` otherwise."""
    if k == 2:
        return [a * y - b * x for (a, b), (x, y) in itertools.combinations(vectors, 2)]
    return [int_det(sub) for sub in itertools.combinations(vectors, k)]


def minor_gcd(rows: Sequence[Sequence[int]], d: int) -> int:
    """gcd of the d x d minors of integer rows of length d: the index of
    their row lattice in Z^d, or 0 when its rank is below d."""
    return math.gcd(*minors(rows, d))


# ---------------------------------------------------------------------------
# lattices and cosets

@dataclass(frozen=True)
class IntLattice:
    """Sublattice of Z^ambient, basis rows Z-independent and in HNF."""

    ambient: int
    basis: tuple[tuple[int, ...], ...]

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


def coset_reps(h_lat: IntLattice) -> list[tuple[int, ...]]:
    """One representative per coset of H in Z^n, lexicographic.

    H's basis is a row HNF, so for full rank it is upper triangular with
    positive diagonal and the box prod [0, h_ii) holds exactly one point
    of each coset: the HNF-reduced one.
    """
    if h_lat.rank < h_lat.ambient:
        raise ValueError("infinite index")
    return list(itertools.product(*(range(row[i]) for i, row in enumerate(h_lat.basis))))


def kernel_top_wedge(rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """A nonzero multiple of the top wedge of {x in Q^n : rows x = 0}, for k
    independent integer rows: the Hodge dual of the rows' top wedge (their
    maximal `minors`), omega[I] = sign(I^c, I) minor(rows, I^c), where
    sign(I^c, I) = (-1)^sum(I^c) up to the global sign (-1)^(k(k-1)/2).
    The complements I^c of the lexicographic (n - k)-subsets I run through
    the k-subsets in reverse order."""
    return [(-1) ** sum(c) * w for c, w in
            zip(itertools.combinations(range(n), len(rows)), minors(zip(*rows), len(rows)))][::-1]


def wedge_span_rank(lats: Sequence[IntLattice], p: int, tops: dict | None = None) -> int:
    """Rank over Q of the span of all p-fold wedges of the lattices' bases.

    A lattice of rank r >= p enters through its top wedge omega over the
    lexicographic r-subsets: `tops[lattice]`, which may be any nonzero
    multiple, else the maximal `minors` of its basis, stored in `tops`.
    Its p-fold wedges span the contractions of omega by the coordinate
    (r - p)-forms e^J: the row of J holds sign * omega[K u J] at each
    p-subset K disjoint from J, sign = (-1)^(sum of the positions of J in
    K u J), up to the sign (-1)^(t(t-1)/2), t = r - p, shared by all rows.
    Subsets are keyed by bit masks.  The rank is that of one fraction-free
    forward elimination, in place: each pivot row clears its column in the
    rows left, and each changed row is divided by its gcd (folded pairwise:
    `math.gcd(*row)` would build a tuple per call, and Python keeps up to
    2,000 freed tuples of each length).  p = 0 gives 1 for a nonempty family.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return 1 if lats else 0
    tops = {} if tops is None else tops
    n = next((lat.ambient for lat in lats if lat.rank >= p), 0)  # 0: no row, no column
    col = {sum(1 << i for i in k): c for c, k in enumerate(itertools.combinations(range(n), p))}
    rows = []
    for lat in lats:
        r = lat.rank
        if r < p:
            continue
        if lat not in tops:
            tops[lat] = minors(zip(*lat.basis), r)
        by_j: dict = {}
        for subset, w in zip(itertools.combinations(range(n), r), tops[lat]):
            if not w:
                continue
            whole = sum(1 << i for i in subset)
            for pos in itertools.combinations(range(r), r - p):
                j = sum(1 << subset[i] for i in pos)
                if j not in by_j:
                    by_j[j] = [0] * len(col)
                by_j[j][col[whole ^ j]] = (-1) ** sum(pos) * w
        rows += by_j.values()
    rank = 0
    while rows:
        piv = rows.pop()
        c = next((c for c, x in enumerate(piv) if x), None)
        if c is None:
            continue
        rank += 1
        for row in rows:
            a, b = piv[c], row[c]
            if b:
                row[:] = [a * x - b * y for x, y in zip(row, piv)]
                g = functools.reduce(math.gcd, row)
                if g > 1:
                    row[:] = [x // g for x in row]
    return rank
