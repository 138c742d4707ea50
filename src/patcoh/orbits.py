"""Orbit enumeration of singular spaces under lattice translation.

Singular l-spaces are intersections of Gamma-translated hyperplanes.  The
engine enumerates one representative per translation-orbit class, level by
level (each level cuts the previous one by translated hyperplanes), with
stabilizer sublattices attached.  Each lattice question is at most one
Hermite form, read for its echelon and kernel at once (`integer_kernel`).
Each direction has one cached entry (`Engine._entry`) under the integer key
`primitive_rref` of its cleared restricted columns, and the entry is read
off the key: the columns, their kernel R and the one frame R * (Gamma
image), whose echelon labels reduce by and whose kernel is the stabilizer.
A cut finds its sub-direction's key from integers, so the engine does no
field elimination.  A pair's classification subgroup (its
index counts the pair's classes; a rank deficiency, infinitely many) is the
sum of the parent's and the plane's stabilizers.  Minors of the plane's
integer table decide when that sum is all of Z^n; any other sum is one
Hermite form.  A cut is an integer affine map on restricted coordinates:
each coset representative's point is one integer vector (`Engine.point`),
and its label (`Engine.label`) is the dedup key, so deduplication is a
set lookup, and a candidate's class lies one level below.  At level m-2
both sides of a pair are hyperplane classes, and the intersections of
translates of two planes do not depend on their order, so each unordered
pair is classified once.  A class is an integer record, so the level loop
builds no field element: fields are read only off the input data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Sequence

from .field import res_mul, restrict_scalars
from .linalg import (IntLattice, clear_denominators, coset_reps, integer_kernel, minor_gcd,
                     primitive_rref, remainder)
from .model import ProjectionData, pairing_table

DEFAULT_MAX_CLASSES = 100_000


class InfiniteArrangement(Exception):
    """Raised when a classification subgroup is rank-deficient: infinitely
    many orbit classes, hence the top cohomology is infinitely generated."""

    def __init__(self, level: int, parent_id: int, hclass_id: int,
                 subgroup_rank: int, full_rank: int):
        self.witness_level = level
        self.witness_pair = (parent_id, hclass_id)
        self.deficient_subgroup_rank = subgroup_rank
        self.full_rank = full_rank
        super().__init__(
            f"classification subgroup at level {level} (parent {parent_id}, "
            f"hyperplane class {hclass_id}) has rank {subgroup_rank} < {full_rank}"
        )


class ResourceCapExceeded(Exception):
    pass


@dataclass(frozen=True)
class SingularClass:
    """One orbit class of singular spaces, in integers: its stabilizer in Z^n,
    its direction's entry, a point as res = ([X], q), res(point) = X / q, and
    for a hyperplane class its plane (normal tables, offset numerators over
    the offset denominator)."""

    id: int
    dim: int
    stabilizer: IntLattice
    entry: _Direction | None = dc_field(compare=False, repr=False)
    res: tuple | None = dc_field(compare=False, repr=False)
    plane: tuple | None = dc_field(default=None, compare=False, repr=False)


@dataclass(eq=False)
class _Direction:
    """Engine cache entry of one direction, under the key primitive_rref(cols):
    its restricted columns cols / q (column delta j is res(u_j) for the
    field rref rows u_j), its annihilator rows R, and the echelon and kernel
    of its frame, the lattice R * (Gamma image)."""

    cols: list[list[int]]
    q: int
    rows: list[tuple[int, ...]]
    echelon: list  # Hermite rows (pivot, row) of R * (Gamma image)
    stab: IntLattice  # Gamma cap span(direction) in Z^n


class _Normal(NamedTuple):
    """Integer tables of one normal nu: `pairing_table`'s den, form and dots,
    the map Z^n -> Z^delta whose kernel is the plane's stabilizer, and g, the
    `minor_gcd` of dots, its image's index in Z^delta (0 below rank delta)."""

    den: int
    form: list[list[int]]
    dots: list[list[int]]
    g: int


class _Cut(NamedTuple):
    """A proper cut of p + span(direction) by a hyperplane with normal nu,
    in integers, for the classification of its translates.  The pivot row
    w of the direction has <nu, w> != 0.  The cut point is p + c0 w, and
    translating the plane by gamma(y) adds (sum y_i c_i) w, with c0 =
    c0_num / (lcd s) and c_i = cs_i / lcd as field numerators.  res = (X,
    q_p) is res(p) = X / q_p, and wq = q res(w) is w's column of the
    direction's entry.  sub is the sub-direction's entry (found by its
    integer key)."""

    sub: _Direction
    res: tuple
    wq: list[int]
    lcd: int
    q: int
    s: int
    c0_num: list[int]
    cs: list[list[int]]


@dataclass
class Arrangement:
    """The global orbit classes, and the covering relation found with them."""
    data: ProjectionData
    levels: dict[int, list[SingularClass]]  # keys m-1 .. 0
    covers: dict = dc_field(default_factory=dict)  # (level, id) -> classes one level down

    def counts(self) -> list[int]:
        """[L_0, L_1, ..., L_{m-1}]."""
        return [len(self.levels[l]) for l in sorted(self.levels)]


class Engine:
    """Enumeration engine bound to one validated projection data set."""

    def __init__(self, data: ProjectionData, max_classes: int = DEFAULT_MAX_CLASSES):
        if max_classes < 1:
            raise ValueError(f"the class cap must be at least 1, not {max_classes}")
        self.data = data
        self.max_classes = max_classes
        self.fspec = data.field
        self.delta = data.field.degree
        self.m = data.m
        self.n = data.n
        self.dm = self.delta * self.m
        self.full = IntLattice.full(self.n)
        self.gen_ints = clear_denominators([restrict_scalars(g) for g in data.gens])
        self._dirs: dict = {}  # primitive_rref of a direction's columns -> _Direction
        self._theta_powers = [[int(i == l) for i in range(self.delta)] for l in range(self.delta)]

    # -- directions and orbit labels ------------------------------------------

    def _entry(self, key) -> _Direction:
        """The direction's cached entry, built from its key the first time.

        The key rows over their pivots are the rref over Q of the restricted
        columns; coordinates are interleaved (a_i, b_i), so that rref is
        res(theta^l u_j), l < delta, for the field rref rows u_j in order, and
        u_j is key row delta j over its pivot.  The columns are the key rows
        over the lcm q of the pivots, cols / q, so res(u_j) is column delta j
        over q; the rows R, the Hermite basis of their integer kernel, span
        their annihilator, so projecting by R eliminates the direction.  Each
        row is scaled by the least s that makes its values on the generators
        res(g_i) = G_i / q_G integral as well.  The frame is one
        `integer_kernel` of the images R res(g_i), whose kernel {y : R
        res(gamma(y)) = 0} is Gamma cap span(direction)."""
        entry = self._dirs.get(key)
        if entry is None:
            pivots = [next(x for x in row if x) for row in key]
            q = math.lcm(*pivots)
            cols = [[x * (q // p) for x in row] for row, p in zip(key, pivots)]
            _, kernel = integer_kernel([[c[i] for c in cols] for i in range(self.dm)],
                                       len(cols))
            gens, qg = self.gen_ints
            rows, vals = [], []
            for r in kernel.basis:
                v = [sum(map(operator.mul, r, g)) for g in gens]
                s = qg // math.gcd(qg, *v)
                rows.append(tuple(s * ri for ri in r))
                vals.append(tuple(s * x // qg for x in v))
            echelon, stab = integer_kernel([[v[i] for v in vals] for i in range(self.n)],
                                           len(vals))
            entry = self._dirs[key] = _Direction(cols, q, rows, echelon, stab)
        return entry

    def stabilizer(self, entry: _Direction) -> IntLattice:
        """Gamma cap span(entry's direction), as coefficient vectors in Z^n:
        the kernel of its frame."""
        return entry.stab

    def label(self, entry: _Direction, res) -> tuple:
        """Canonical key of the Gamma-orbit of p + span(entry's direction),
        res = ([X], q) with res(p) = X / q.

        Two points share an orbit iff their difference lies in
        span(direction) + Gamma image, i.e. iff R res(p) agrees modulo the
        frame's lattice L = R (Gamma image).  v = R X is reduced by q times
        the echelon rows of L, top to bottom, taking the floor at each
        pivot; that leaves one representative of v / q modulo L (each pivot
        entry in [0, q h_p)).  The key is (q, v) divided by its gcd, so equal
        keys mean equal v / q, whichever basis R is."""
        (xs,), q = res
        v = remainder(entry.echelon, [sum(map(operator.mul, r, xs)) for r in entry.rows], q)
        g = math.gcd(q, *v)
        return (q // g, *(a // g for a in v))

    def same_orbit(self, a, b) -> bool:
        """a, b: (entry, res) pairs.  Same Gamma-orbit of affine spaces?"""
        return a[0] is b[0] and self.label(*a) == self.label(*b)

    # -- intersections and per-pair classification ---------------------------

    def _plane(self, h):
        """(normal tables, offset numerators, offset denominator) of the input
        plane h: the normal's `pairing_table` and the `minor_gcd` of its
        dots, and res(offset) = off / oden."""
        den, form, dots = pairing_table(h.normal, self.gen_ints)
        (off,), oden = clear_denominators([restrict_scalars((h.offset,))])
        return _Normal(den, form, dots, minor_gcd(dots, self.delta)), off, oden

    def intersect(self, entry: _Direction, res, plane) -> _Cut | None:
        """Cut the parent p + span(entry's direction) by the hyperplane
        `plane` that a hyperplane class carries, or None when the direction
        lies in it; res = ([X], q_p) with res(p) = X / q_p.

        With the direction's restricted columns cols / q from its entry, the
        normal's form gives alpha_j = den q <normal, u_j> per row u_j.  The
        first row with alpha != 0 is the pivot w, 1/a = den q conj(alpha) /
        norm(alpha), and the sub-direction is spanned by the other rows u_j
        less (alpha_j / alpha) w, alpha_j / alpha = F_j / (lcd q).  Its entry
        is `_entry` of its key, the `primitive_rref` of the integer columns
        lcd q cols[delta j + l] - sum_i res(theta^l F_j)_i cols[delta pivot +
        i], l < delta.  The form also gives <normal, p> for c0 = (offset -
        <normal, p>)/a, over s = q_p times the offset's denominator, and
        the dots give the c_i = <normal, g_i>/a."""
        nrec, off, oden = plane
        d, fspec = self.delta, self.fspec
        cols, q = entry.cols, entry.q
        alphas = [[sum(map(operator.mul, f, col)) for f in nrec.form] for col in cols[::d]]
        pivot = next((j for j, al in enumerate(alphas) if any(al)), None)
        if pivot is None:
            return None
        a = alphas[pivot]
        conj = a[:1] + [-x for x in a[1:]]
        norm = res_mul(a, conj, fspec)[0]
        inv = [nrec.den * q * x * (1 if norm > 0 else -1) for x in conj]
        g = math.gcd(norm, *inv)
        inv, lcd = [x // g for x in inv], nrec.den * abs(norm) // g
        ratios = [res_mul(al, inv, fspec) for al in alphas]
        pcols = cols[d * pivot: d * pivot + d]
        sub = self._entry(primitive_rref([
            [lcd * q * x - sum(map(operator.mul, t, ys)) for x, *ys in zip(col, *pcols)]
            for j, f in enumerate(ratios) if j != pivot
            for col, t in zip(cols[d * j: d * j + d],
                              [res_mul(e, f, fspec) for e in self._theta_powers])]))
        (xs,), qp = res
        nu_p = [sum(map(operator.mul, f, xs)) for f in nrec.form]
        c0 = res_mul([o * nrec.den * qp - oden * e for o, e in zip(off, nu_p)], inv, fspec)
        return _Cut(sub, res, pcols[0], lcd, q, qp * oden, c0,
                    [res_mul(nd, inv, fspec) for nd in nrec.dots])

    def point(self, cut: _Cut, y: Sequence[int]) -> tuple:
        """Coset rep y's point as res ([X], q): with c = lcd s (c0 + sum y_i
        c_i), the point is p + c w / (lcd s), so its numerators are lcd s q X
        + q_p res_mul(c, q res(w)) over q_p lcd s q, divided by their gcd,
        so q is the least common denominator."""
        (xs,), qp = cut.res
        c = [x + cut.s * sum(map(operator.mul, y, col))
             for x, col in zip(cut.c0_num, zip(*cut.cs))]
        big, d = cut.lcd * cut.s * cut.q, self.delta
        cw = [t for i in range(0, self.dm, d) for t in res_mul(c, cut.wq[i:i + d], self.fspec)]
        nums = [big * x + qp * t for x, t in zip(xs, cw)]
        g = math.gcd(qp * big, *nums)
        return [[x // g for x in nums]], qp * big // g

    def classify_pair(self, parent: SingularClass, hclass: SingularClass, level: int,
                      cut: _Cut):
        """Orbit classes among {rep(parent) cut by translated hclass}, for
        the proper `cut` of the pair (from `intersect`).

        Coset reps y, y' give one Gamma-orbit iff (c(y) - c(y')) w is in
        Gamma image + span(sub).  That lattice element lies in span(parent);
        pairing with nu, zero on span(sub), puts y - y' in the plane's
        stabilizer.  So H = Stab(parent) + Stab(hclass) in Z^n.  The plane's
        `dots` map Z^n onto VG with kernel Stab(hclass), so [Z^n : H] is
        [VG : dots(Stab(parent))]: when VG has full rank, H = Z^n iff the
        `minor_gcd` of the images of the parent's stabilizer rows is VG's,
        and the one coset rep is y = 0.  Otherwise H is the echelon of
        `integer_kernel` of those rows modulo the echelon of the plane's
        stabilizer.  A candidate is a coset rep's point, res from `point`,
        keyed by its `label` in the sub-direction.  Returns (the
        sub-direction's entry, [(label, res) per coset rep, in the order of
        `coset_reps`], H); raises InfiniteArrangement when H is
        rank-deficient."""
        stab, nrec = parent.stabilizer.basis, hclass.plane[0]
        if nrec.g and nrec.g == minor_gcd([[sum(map(operator.mul, s, col))
                                            for col in zip(*nrec.dots)] for s in stab],
                                          self.delta):
            hsub, reps = self.full, [(0,) * self.n]
        else:
            h, _ = integer_kernel(stab, self.n, hclass.stabilizer.echelon)
            if len(h) < self.n:
                raise InfiniteArrangement(level, parent.id, hclass.id, len(h), self.n)
            # the cosets of H are pairwise distinct classes, so an index above
            # the cap trips it whatever the other pairs add: stop before listing
            index = math.prod(row[p] for p, row in h)
            if index > self.max_classes:
                raise ResourceCapExceeded(
                    f"level {level}, pair (parent {parent.id}, hyperplane class "
                    f"{hclass.id}): {index} classes, more than the cap of {self.max_classes}")
            hsub = IntLattice(self.n, tuple(tuple(row) for _, row in h))
            reps = coset_reps(hsub)
        return cut.sub, [(self.label(cut.sub, res), res)
                         for res in (self.point(cut, y) for y in reps)], hsub

    # -- level-wise enumeration ----------------------------------------------

    def build_level(self, parents, hclasses, level: int,
                    covers: dict | None = None) -> list[SingularClass]:
        """Classes at `level` from cutting each parent, by the entry and res
        it carries, with all translated hyperplane classes, deduplicated
        under Gamma on the candidates' labels; an accepted class gets its
        cut's entry and its candidate's res.  An hclass carries its plane's
        tables and its stabilizer in Z^n.  A level m-1 class is a hyperplane
        class, with its hclass's normal tables and the offset den <nu, p> =
        form res(p) in lowest terms.  The classes, new or seen, that a
        parent's candidate labels resolve to are one level below it:
        `covers`, if given, gets them once each under (parent.dim,
        parent.id).

        When `parents` is `hclasses` (level m-2), the pair of parent i and
        hclass j cuts translates of the same two planes as the pair (j, i),
        so it resolves to the same classes: it is classified only for j >=
        i, and for j < i the parent takes the classes that (j, i) resolved
        to.  The accepted classes come out as if every pair were
        classified, and H is symmetric, so the first pair to trip the
        index cap or a rank deficiency is the same; only the order within
        a `covers` list may differ."""
        accepted: list[SingularClass] = []
        seen: dict = {}  # direction entry -> {label: class accepted for it}
        mirror = {} if parents is hclasses else None  # (i, j) -> (j, i)'s classes
        for i, parent in enumerate(parents):
            below: dict = {}  # class id -> class
            for j, hc in enumerate(hclasses):
                if mirror is not None and j < i:
                    below.update(mirror.pop((i, j), {}))
                    continue
                cut = self.intersect(parent.entry, parent.res, hc.plane)
                if cut is None:
                    continue  # the parent's direction lies in the hyperplane
                sub, candidates, _ = self.classify_pair(parent, hc, level, cut)
                classes = seen.setdefault(sub, {})
                found: dict = {}  # class id -> class, for this pair
                for key, res in candidates:
                    cls = classes.get(key)
                    if cls is None:
                        plane = None
                        if level == self.m - 1:  # a hyperplane class: its offset from res
                            nrec, ((xs,), qp) = hc.plane[0], res
                            off = [sum(map(operator.mul, f, xs)) for f in nrec.form]
                            g = math.gcd(nrec.den * qp, *off)
                            plane = nrec, [o // g for o in off], nrec.den * qp // g
                        cls = classes[key] = SingularClass(len(accepted), level,
                                                           self.stabilizer(sub), sub, res, plane)
                        accepted.append(cls)
                        if len(accepted) > self.max_classes:
                            raise ResourceCapExceeded(
                                f"more than {self.max_classes} classes at level {level}")
                    found[cls.id] = cls
                below.update(found)
                if mirror is not None:
                    mirror[(j, i)] = found
            if covers is not None:
                covers[(parent.dim, parent.id)] = list(below.values())
        return accepted

    def hyperplane_classes(self) -> list[SingularClass]:
        """Gamma-orbit classes of the translated input planes (level m-1), one
        `_plane` each, cut from the full space: the identity key's entry."""
        space = self._entry(IntLattice.full(self.dm).basis)
        parent = SingularClass(-1, self.m, space.stab, space, ([[0] * self.dm], 1))
        pseudo = [SingularClass(i, self.m - 1, self.full, None, None, self._plane(h))
                  for i, h in enumerate(self.data.planes)]
        # under the full space as parent H = Z^n, whatever a pseudo class carries
        return self.build_level([parent], pseudo, level=self.m - 1)

    def enumerate_arrangement(self) -> Arrangement:
        """All global orbit classes, level m-1 down to 0, and the classes
        one level below each class above level 0 (from `build_level`).

        Raises InfiniteArrangement on the first rank-deficient
        classification subgroup, which forces infinitely many classes."""
        top = self.hyperplane_classes()
        arr = Arrangement(self.data, {self.m - 1: top})
        for level in range(self.m - 2, -1, -1):
            arr.levels[level] = self.build_level(arr.levels[level + 1], top, level=level,
                                                 covers=arr.covers)
        return arr

    def relative_levels(self, alpha: SingularClass, hclasses) -> dict[int, list[SingularClass]]:
        """Orbit classes of singular spaces inside the representative space
        of the class alpha, under Stab(alpha): all levels below alpha.dim,
        enumerated with alpha itself as the root.  A Gamma-translate that
        keeps a subspace of alpha inside alpha lies in Gamma cap span(alpha)
        = Stab(alpha), so these are the Gamma-orbit classes inside alpha,
        and the enumeration runs under Gamma."""
        out: dict[int, list[SingularClass]] = {}
        prev = [alpha]
        for level in range(alpha.dim - 1, -1, -1):
            prev = out[level] = self.build_level(prev, hclasses, level=level)
        return out
