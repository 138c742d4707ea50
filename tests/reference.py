"""Slower references that the engine's results are checked against, and
the field values of the engine's integer records."""

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from patcoh.catalog import F5, TAU, icosahedral_star
from patcoh.field import FElem, FieldSpec, dot, res_mul, restrict_scalars, theta_powers
from patcoh.invariants import InternalConsistencyError, binom
from patcoh.linalg import (IntLattice, clear_denominators, hnf, int_det, integer_kernel,
                           left_annihilator, minor_gcd, primitive_rref, remainder, rref, snf)
from patcoh.model import Hyperplane, ParseError, PlaneRecord, PlaneTable, canonical_hyperplane
from patcoh.orbits import SingularClass


def scalar_matrix(lam):
    """Multiplication by lam on restricted coordinates, as a delta x delta
    matrix, from the closed form of the product in Q(sqrt(D))."""
    d = lam.field.D
    return ((lam.a, lam.b * d), (lam.b, lam.a))


def dir_res_cols(direction):
    """Rational basis (as columns) of the restricted span of a field
    subspace: each field basis vector u contributes res(theta^k u) for k <
    delta, theta the field generator.  Column k of scalar_matrix(x) is
    res(theta^k x), so the columns of u are read off one scalar matrix per
    coordinate, stacked."""
    return [col for row in direction
            for col in zip(*(r for x in row for r in scalar_matrix(x)))]


def entry_of(eng, direction):
    """The engine's entry of a field direction, under the key
    `primitive_rref` of its cleared restricted columns."""
    return eng._entry(primitive_rref(clear_denominators(dir_res_cols(direction))[0]))


def hermite_stabilizer(eng, entry):
    """Gamma cap span(entry's direction) by the Hermite route: R the Hermite
    basis of the integer kernel of the direction's restricted columns, and
    the stabilizer the kernel of y -> R res(gamma(y)), whose images R G_i
    are integral for res(g_i) = G_i / q_G."""
    _, kernel = integer_kernel([[c[i] for c in entry.cols] for i in range(eng.dm)],
                               len(entry.cols))
    gens, _ = eng.data.gen_ints
    images = [[sum(r * x for r, x in zip(row, g)) for row in kernel.basis] for g in gens]
    return integer_kernel(images, len(kernel.basis))[1]


def field_canonical_hyperplane(h):
    """The scalar class representative of (normal, offset) by field
    arithmetic: every coordinate times the inverse of the normal's first
    nonzero coordinate."""
    lead = next((x for x in h.normal if x), None)
    if lead is None:
        raise ValueError("hyperplane normal is zero")
    inv = lead.inverse()
    return Hyperplane(tuple(x * inv for x in h.normal), h.offset * inv)


def field_normal_supports(data):
    """The supports of the rows of one field `rref` of the normals taken as
    the columns of an m x k matrix, in order: one per rank."""
    red = rref([[h.normal[i] for h in data.planes] for i in range(data.m)])
    return [{j for j, x in enumerate(row) if x} for row in red]


def res_of(point):
    """res = ([X], q) of a field point, res(point) = X / q."""
    return clear_denominators([restrict_scalars(point)])


def field_label(eng, direction, point):
    """The engine's label of point + span(direction), given as field values."""
    return eng.label(entry_of(eng, direction), res_of(point))


def field_vector(eng, xs, q):
    """The field vector with restricted coordinates xs / q."""
    d = eng.delta
    return tuple(eng.fspec.elem(*(Fraction(x, q) for x in xs[i:i + d]))
                 for i in range(0, len(xs), d))


def field_direction(eng, entry):
    """The field rref rows u_j of a direction entry: res(u_j) is its column
    delta j over q."""
    return tuple(field_vector(eng, col, entry.q) for col in entry.cols[::eng.delta])


def field_point(eng, res):
    """The field point of res = ([X], q)."""
    (xs,), q = res
    return field_vector(eng, xs, q)


def field_class(eng, cls):
    """(direction, point) of a class as field vectors."""
    return field_direction(eng, cls.entry), field_point(eng, cls.res)


def field_plane(eng, hc):
    """(normal, offset) of a hyperplane class, read back off the `PlaneTable`
    it carries: den <nu, x> = form res(x), so res(den nu_k) is the form's
    column delta k, and res(offset) = off / oden."""
    plane = hc.plane
    normal = tuple(field_vector(eng, [row[k] for row in plane.form], plane.den)[0]
                   for k in range(0, eng.dm, eng.delta))
    return normal, field_vector(eng, plane.off, plane.oden)[0]


def coords_of(lat, vec):
    """Row coordinates of vec in the lattice `lat` (Hermite basis), or None
    if vec is not a member."""
    v = list(vec)
    coords = []
    for row in lat.basis:
        p = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[p], row[p])
        if r != 0:
            return None
        coords.append(q)
        v = [x - q * y for x, y in zip(v, row)]
    if any(v):
        return None
    return coords


def lattice_index(s_lat, h_lat):
    """[S : H]; None when infinite.  Raises if H is not contained in S."""
    if s_lat.ambient != h_lat.ambient:
        raise ValueError("ambient mismatch")
    coords = []
    for row in h_lat.basis:
        c = coords_of(s_lat, row)
        if c is None:
            raise ValueError("H is not a sublattice of S")
        coords.append(c)
    if h_lat.rank < s_lat.rank:
        return None
    return abs(int_det(coords))


def contains(eng, direction, sub_dir) -> bool:
    """True iff span(sub_dir) lies in span(direction): the annihilator
    rows of `direction` kill every restricted column of `sub_dir`."""
    rows = entry_of(eng, direction).rows
    return not any(sum(p * c for p, c in zip(row, col) if p)
                   for col in entry_of(eng, sub_dir).cols for row in rows)


def label_incidence(eng, arrangement):
    """The incidence poset by scanning label pairs: beta < alpha iff
    dir(beta) lies in dir(alpha) and p_beta has the label of p_alpha in
    dir(alpha), i.e. some Gamma-translate of beta lies in alpha.  Maps
    (level, id) of every class to the classes below it, as
    `invariants.incidence` does.  Each label is `field_label`'s: the entry
    of the field direction and res of the class's field point, each built
    once and read for every pair."""
    by_dir = {level: {} for level in arrangement.levels}
    for level, classes in arrangement.levels.items():
        for cls in classes:
            by_dir[level].setdefault(field_direction(eng, cls.entry), []).append(cls)
    entries = {direction: entry_of(eng, direction)
               for dirs in by_dir.values() for direction in dirs}
    points = {(cls.dim, cls.id): res_of(field_point(eng, cls.res))
              for classes in arrangement.levels.values() for cls in classes}
    below = {}
    for level in sorted(arrangement.levels):
        for direction, alphas in by_dir[level].items():
            entry, labels = entries[direction], {}
            for alpha in alphas:
                below[(level, alpha.id)] = []
                labels[eng.label(entry, points[(level, alpha.id)])] = alpha
            for sub_level in range(level):
                for sub_dir, betas in by_dir[sub_level].items():
                    if not contains(eng, direction, sub_dir):
                        continue  # dir(beta) does not lie in dir(alpha)
                    for beta in betas:
                        alpha = labels.get(eng.label(entry, points[(sub_level, beta.id)]))
                        if alpha is not None:
                            below[(level, alpha.id)].append(beta)
    return below


def cut_shifts(eng, cut):
    """The numerators cs_i = res_mul(dots_i, inv) of a cut's coefficients
    c_i = cs_i / lcd, dots_i = den <nu, g_i> read off the plane's dots'
    columns that the cut holds: moving the plane by gamma(y) moves the cut
    point by (sum y_i c_i) w."""
    return [res_mul(dots, cut.inv, eng.fspec) for dots in zip(*cut.cols)]


def shift_subgroup(eng, cut):
    """A pair's classification subgroup from the shifts of its cut: moving
    the plane by gamma(y) moves the cut point's R-image by sum y_i ds_i /
    (lcd q), ds_i = rw cs_i with rw_kl = q R_k res(theta^l w), R the rows of
    the sub-direction and w the pivot row (its column q res(w) is cut.wq),
    so H is the kernel of the ds_i modulo lcd q E, E the echelon rows of
    the sub-direction's frame."""
    w = field_vector(eng, cut.wq, cut.q)
    rw = [[cut.q * sum(r * c for r, c in zip(row, col)) for col in dir_res_cols((w,))]
          for row in cut.sub.rows]
    assert all(x.denominator == 1 for row in rw for x in row)
    ds = [[int(sum(r * c for r, c in zip(rwk, cs))) for rwk in rw]
          for cs in cut_shifts(eng, cut)]
    modulus = [(p, [cut.lcd * cut.q * x for x in row]) for p, row in cut.sub.echelon]
    return integer_kernel(ds, len(rw), modulus)[1]


def searched_axis_normals(kind):
    """The icosahedral axis normals found by search, in the order of the
    search: the five-fold axes are the star w_i, the two-fold ones w_i +- w_j,
    and a three-fold one is w_i + s_j w_j + s_k w_k for every signed triple
    whose physical images (Galois conjugates) pair to +tau two by two, the
    sign of w_i fixed at +1 since antipodal triples give the same line.  Each
    vector is canonicalized and the first of each line kept."""
    w = icosahedral_star()
    if kind == "five_fold":
        vecs = list(w)
    elif kind == "two_fold":
        vecs = [tuple(a + sign * b for a, b in zip(w[i], w[j]))
                for i, j in itertools.combinations(range(6), 2)
                for sign in (F5.one, -F5.one)]
    elif kind == "three_fold":
        v = [tuple(x.conj() for x in wi) for wi in w]  # physical star
        vecs = []
        for i, j, k in itertools.combinations(range(6), 3):
            for sj, sk in itertools.product((1, -1), repeat=2):
                trio = [v[i],
                        tuple(x if sj == 1 else -x for x in v[j]),
                        tuple(x if sk == 1 else -x for x in v[k])]
                if all(dot(a, b) == TAU for a, b in itertools.combinations(trio, 2)):
                    vecs.append(tuple(w[i][c] + w[j][c] * F5.elem(sj) + w[k][c] * F5.elem(sk)
                                      for c in range(3)))
    else:
        raise ValueError(f"unknown axis kind {kind!r}")
    lines = []
    for vec in vecs:
        normal = canonical_hyperplane(Hyperplane(vec, F5.zero)).normal
        if normal not in lines:
            lines.append(normal)
    return lines


def maximal_minors(lat):
    """The r x r minors of a rank-r lattice's basis over the column r-subsets
    in lexicographic order, each by `int_det`."""
    return [int_det([[row[j] for j in cols] for row in lat.basis])
            for cols in itertools.combinations(range(lat.ambient), lat.rank)]


def wedge_span_rank_by_minors(lats, p):
    """Rank over Q of the span of all p-fold wedges of the lattices' bases,
    with every p x p minor of every basis taken by `int_det`: each p-subset
    of a basis gives the row of its minors over the lexicographic column
    p-subsets, and the rank is read off their Hermite form."""
    if p == 0:
        return 1 if lats else 0
    rows = [[int_det([[lat.basis[i][j] for j in cols] for i in sel])
             for cols in itertools.combinations(range(lat.ambient), p)]
            for lat in lats if lat.rank >= p
            for sel in itertools.combinations(range(lat.rank), p)]
    return sum(1 for row in hnf(rows) if any(row))


def rank_formulas_by_codimension(m, nu, d, e, L, tilde_L1, wedges):
    """D_0 .. D_d written out per codimension, one branch each for m = 1, 2
    and 3, with the arguments and errors of `invariants.rank_formulas`."""

    def wp(p):
        if wedges is None or p < 1:
            raise InternalConsistencyError("wedge rank index out of range")
        return wedges[p - 1] if p - 1 < len(wedges) else 0

    out = []
    if m == 1:
        out.append((nu - 1) + e)
        for p in range(1, d + 1):
            out.append(binom(nu, p + 1))
    elif m == 2:
        out.append(binom(2 * nu, 2) - 2 * nu + 1 + L[1] * (nu - 1) + e - wp(1))
        for p in range(1, d + 1):
            out.append(binom(2 * nu, p + 2) + L[1] * binom(nu, p + 1)
                       - wp(p + 1) - wp(p))
    elif m == 3:
        if tilde_L1 is None:
            raise InternalConsistencyError("m = 3 rank formulas need tilde_L1")
        d0 = sum((-1) ** j * binom(3 * nu, 3 - j) for j in range(4))
        d0 += L[2] * sum((-1) ** j * binom(2 * nu, 2 - j) for j in range(3))
        d0 += tilde_L1 * sum((-1) ** j * binom(nu, 1 - j) for j in range(2))
        d0 += e - wp(1)
        out.append(d0)
        for p in range(1, d + 1):
            out.append(binom(3 * nu, p + 3) + L[2] * binom(2 * nu, p + 2)
                       + tilde_L1 * binom(nu, p + 1) - wp(p) - wp(p + 1))
    else:
        raise ValueError(f"no rank formulas for m = {m}")
    return out


def field_inverse(rows):
    """Inverse of a square invertible matrix of field elements, read off the
    field `rref` of [rows | I]."""
    field, m = rows[0][0].field, len(rows)
    red = rref([[*row, *(field.one if i == j else field.zero for j in range(m))]
                for i, row in enumerate(rows)])
    if len(red) < m:
        raise ValueError("the matrix is singular")
    return [tuple(row[m:]) for row in red]


def lattice_from_rows(ambient, rows):
    """The lattice spanned by integer rows, its basis their nonzero Hermite
    rows."""
    return IntLattice(ambient, tuple(tuple(r) for r in hnf(rows) if any(r)))


def lattice_reduce(lat, vec):
    """Canonical representative of vec modulo the lattice (Hermite box)."""
    return tuple(remainder(lat.echelon, vec))


def int_matvec(a, x):
    return [sum(p * q for p, q in zip(row, x)) for row in a]


@dataclass(frozen=True)
class Coset:
    """Affine solution set base + lattice inside Z^k."""

    base: tuple
    lattice: IntLattice


def mixed_solve(a_rows, b_rows, c, k):
    """Solve {x in Z^k : exists t in Q^s, A x + B t = c}.

    a_rows: r x k rational, b_rows: r x s rational, c: length-r rational.
    Eliminates t by projecting onto a rational complement of col(B), then
    solves the pure-integer affine system by the Smith form.  Returns None
    when empty.
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
    int_m = []
    int_b = []
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
    lat = lattice_from_rows(k, gens)
    return Coset(lattice_reduce(lat, x0), lat)


def field_parse_rat(s):
    """A rational string's value by `Fraction`'s route alone, with the
    parser's messages: the oracle of the parser's integer reading."""
    if not isinstance(s, str):
        raise ParseError(f"rational must be a string 'p/q' or 'p', got {s!r}")
    try:
        if "e" in s or "E" in s:  # Fraction would build 10**exponent
            raise ValueError("no exponent allowed")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from exc


def field_parse(text):
    """(field, m, generators, planes, name) of a valid input text by the
    field route: each coordinate a `Fraction`, each element an `FElem`, and
    each plane canonicalized by field arithmetic."""
    doc = json.loads(text)
    fspec = FieldSpec(doc["field"]["D"])

    def elem(obj):
        obj = [obj] if isinstance(obj, str) else obj
        b = field_parse_rat(obj[1]) if len(obj) == 2 else Fraction(0)
        return FElem(field_parse_rat(obj[0]), b, fspec)

    gens = tuple(tuple(map(elem, g)) for g in doc["generators"])
    planes = tuple(field_canonical_hyperplane(Hyperplane(tuple(map(elem, p["normal"])),
                                                         elem(p.get("offset", ["0"]))))
                   for p in doc["hyperplanes"])
    return fspec, doc["dim"], gens, planes, doc.get("name", "")


def field_record(h):
    """The `PlaneRecord` of a canonical plane given by field values: its
    normal and offset restricted and cleared together."""
    (xs,), den = clear_denominators([restrict_scalars((*h.normal, h.offset))])
    d = h.offset.field.degree
    return PlaneRecord(tuple(xs[:-d]), tuple(xs[-d:]), den)


def field_plane_table(h, gen_ints):
    """The `PlaneTable` of a plane given by field values: its normal and
    offset restricted and cleared apart, the form res(theta^l nu_k) of the
    cleared normal at column (k, l), g the minor gcd of the dots' Hermite
    rows, and the echelon and stabilizer by routes of their own: the
    nonzero Hermite rows of the dots, and the Smith-form `mixed_solve`
    kernel of their columns."""
    fspec = h.offset.field
    d, powers = fspec.degree, theta_powers(fspec)
    (nu,), qn = clear_denominators([restrict_scalars(h.normal)])
    form = [*zip(*(res_mul(t, nu[c:c + d], fspec) for c in range(0, len(nu), d) for t in powers))]
    gens, qg = gen_ints
    dots = [[sum(map(operator.mul, f, g)) for f in form] for g in gens]
    (off,), oden = clear_denominators([restrict_scalars((h.offset,))])
    rows = hnf(dots)
    echelon = [(next(j for j, x in enumerate(row) if x), row) for row in rows if any(row)]
    stab = mixed_solve([*zip(*dots)], [], [0] * d, len(gens)).lattice
    return PlaneTable(qn * qg, [[qg * x for x in f] for f in form], [*zip(*dots)],
                      minor_gcd(rows[:d], d), off, oden, echelon, stab)


def cut_hyperplane_classes(eng):
    """The hyperplane classes as the whole space (the identity key's entry,
    point 0) cut by each input plane's table, in plane order: each cut's
    one coset rep y = 0 gives the point, and a plane whose point has a
    label under the cut's entry met before is a translate of an earlier
    one.  A class keeps the table of its first plane."""
    space, classes, seen = eng._entry(IntLattice.full(eng.dm).basis), [], set()
    for table in eng.data.tables:
        cut = eng.intersect(space, ([[0] * eng.dm], 1), table, 1)
        res = eng.point(cut, (0,) * eng.n)
        at = (cut.sub, eng.label(cut.sub, res))
        if at not in seen:
            seen.add(at)
            classes.append(SingularClass(len(classes), eng.m - 1, cut.sub.stab, cut.sub, res,
                                         table))
    return classes
