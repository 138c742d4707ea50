"""Orbit enumeration of singular spaces under lattice translation.

Singular l-spaces are intersections of Gamma-translated hyperplanes.  The
engine enumerates one representative per translation-orbit class, level by
level (each level cuts the previous one by translated hyperplanes), with
stabilizer sublattices attached.  Each lattice question is at most one
Hermite form, read for its echelon and kernel at once (`integer_kernel`).
Each direction has one cached entry (`Engine._entry`) under the integer key
`primitive_rref` of its cleared restricted columns, and the entry is read
off the key: its field rows, the columns, their kernel R, R's values on the
generators and one frame per group (`_frame`).  A cut finds its
sub-direction's key from integers, so the engine does no field elimination.
A pair's classification subgroup (its index counts the pair's classes; a
rank deficiency, infinitely many) is the sum of the parent's and the
plane's stabilizers.  A cut is an integer affine map on restricted
coordinates, so its candidates' labels (`Engine.label`) are affine in the
coset representative.  So deduplication is a set lookup, a field point is
built, from integer numerators, only for an accepted class, and a
candidate's class lies one level below.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NamedTuple, Sequence

from .field import FElem, dot, res_mul, restrict_scalars, scalar_matrix
from .linalg import (IntLattice, clear_denominators, coset_reps, integer_kernel, primitive_rref,
                     remainder)
from .model import ProjectionData

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
    """One orbit class of singular spaces: canonical direction, a
    representative point, and the stabilizer in generator coordinates."""

    id: int
    dim: int
    direction: tuple[tuple[FElem, ...], ...]  # canonical rref rows, dim x m
    point: tuple[FElem, ...]
    stabilizer: IntLattice
    normal: tuple[FElem, ...] | None = None  # hyperplane classes only
    offset: FElem | None = None


@dataclass(eq=False)
class _Direction:
    """Engine cache entry of one direction, under the key primitive_rref(cols):
    its rows, its restricted columns cols / q, its annihilator rows R, their
    values on the generators (one row per R row) and its frames."""

    direction: tuple[tuple[FElem, ...], ...]
    cols: list[list[int]]
    q: int
    rows: list[tuple[int, ...]]
    vals: list[tuple[int, ...]]
    frames: dict  # group basis -> (echelon, kernel)


class _Normal(NamedTuple):
    """Integer tables of one normal nu, as field numerators (a,) or (a, b)
    over den: den <nu, x> = form res(x), and dots[i] = den <nu, g_i>."""

    den: int
    form: list[list[int]]
    dots: list[list[int]]


class _Cut(NamedTuple):
    """A proper cut of p + span(direction) by a hyperplane with normal nu,
    in integers, for the classification of its translates.  The pivot row
    w of the direction has <nu, w> != 0.  The cut point is p + c0 w, and
    translating the plane by gamma(y) adds (sum y_i c_i) w, with c0 =
    c0_num / (lcd s) and c_i = cs_i / lcd as field numerators.  res = (X,
    q_p) is res(p) = X / q_p, and wq = q res(w) is w's column of the
    direction's entry.  sub is the sub-direction's entry (found by its
    integer key), with rows R; rw_k = (q R_k res(theta^l w), l < delta), and
    the R-image of p + c w / (lcd s) is (base + c rw) / (lcd s q)."""

    sub: _Direction
    res: tuple
    wq: list[int]
    lcd: int
    q: int
    s: int
    rw: list[list[int]]
    c0_num: list[int]
    cs: list[list[int]]
    base: list[int]


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

    # -- basic geometry helpers ---------------------------------------------

    def dir_res_cols(self, direction) -> list[tuple[Fraction, ...]]:
        """Rational basis (as columns) of the restricted span of a field
        subspace: each field basis vector u contributes res(theta^k u) for
        k < delta, theta the field generator.  Column k of scalar_matrix(x)
        is res(theta^k x), so the columns of u are read off one scalar
        matrix per coordinate, stacked."""
        return [col for row in direction
                for col in zip(*(r for x in row for r in scalar_matrix(x)))]

    def _direction(self, direction) -> _Direction:
        """The cached entry of a field direction, under the key
        `primitive_rref` of its cleared restricted columns."""
        return self._entry(primitive_rref(clear_denominators(self.dir_res_cols(direction))[0]))

    def _entry(self, key) -> _Direction:
        """The direction's cached entry, built from its key the first time.

        The key rows over their pivots are the rref over Q of the restricted
        columns; coordinates are interleaved (a_i, b_i), so that rref is
        res(theta^l u_j), l < delta, for the field rref rows u_j in order, and
        u_j is key row delta j over its pivot.  The columns are the key rows
        over the lcm q of the pivots, cols / q; the rows R, the Hermite basis
        of their integer kernel, span their annihilator, so projecting by R
        eliminates the direction.  Each row is scaled by the least s that
        makes its values on the generators res(g_i) = G_i / q_G integral as
        well."""
        entry = self._dirs.get(key)
        if entry is None:
            d, pivots = self.delta, [next(x for x in row if x) for row in key]
            q = math.lcm(*pivots)
            cols = [[x * (q // p) for x in row] for row, p in zip(key, pivots)]
            direction = tuple(tuple(self.fspec.elem(*(Fraction(x, p) for x in row[i:i + d]))
                                    for i in range(0, self.dm, d))
                              for row, p in zip(key[::d], pivots[::d]))
            _, kernel = integer_kernel([[c[i] for c in cols] for i in range(self.dm)],
                                       len(cols))
            gens, qg = self.gen_ints
            rows, vals = [], []
            for r in kernel.basis:
                v = [sum(map(operator.mul, r, g)) for g in gens]
                s = qg // math.gcd(qg, *v)
                rows.append(tuple(s * ri for ri in r))
                vals.append(tuple(s * x // qg for x in v))
            entry = self._dirs[key] = _Direction(direction, cols, q, rows, vals, {})
        return entry

    def _frame(self, entry: _Direction, group: IntLattice):
        """(echelon, kernel) of the lattice R * (group image), kept in the
        direction's entry per group basis, from one `integer_kernel` call.

        Its images are R res(gamma(b)) = sum b_i vals_i, one per group
        basis vector b, so the echelon is the Hermite basis that `label`
        reduces by, and the kernel is the Hermite lattice of the group
        coordinates y with R res(gamma(y)) = 0: group cap span(direction)."""
        frame = entry.frames.get(group.basis)
        if frame is None:
            frame = entry.frames[group.basis] = integer_kernel(
                [[sum(bi * v for bi, v in zip(b, vrow) if bi) for vrow in entry.vals]
                 for b in group.basis], len(entry.vals))
        return frame

    def stabilizer(self, entry: _Direction) -> IntLattice:
        """Gamma cap span(entry's direction), as coefficient vectors in Z^n:
        the kernel of the full lattice's frame."""
        return self._frame(entry, self.full)[1]

    def label(self, direction, point, group: IntLattice) -> tuple:
        """Canonical key of the group-orbit of point + span(direction).

        Two points share an orbit iff their difference lies in
        span(direction) + group image, i.e. iff R res(point) agrees modulo
        the frame's lattice L = R (group image).  With res(point) = X / q,
        v = R X is reduced by q times the echelon rows of L, top to bottom,
        taking the floor at each pivot; that leaves one representative of
        v / q modulo L (each pivot entry in [0, q h_p)).  The key is (q, v)
        divided by its gcd, so equal keys mean equal v / q.  The entries
        depend on which basis R is, but which points share a key does not."""
        entry = self._direction(direction)
        (xs,), q = clear_denominators([restrict_scalars(point)])
        return self._key(self._frame(entry, group)[0],
                         [sum(map(operator.mul, row, xs)) for row in entry.rows], q)

    @staticmethod
    def _key(echelon, v: list[int], q: int) -> tuple:
        """`label`'s key of v / q: the `remainder` of v modulo q times the
        echelon rows, then (q, v) divided by its gcd."""
        v = remainder(echelon, v, q)
        g = math.gcd(q, *v)
        return (q // g, *(a // g for a in v))

    def same_orbit(self, a, b, group: IntLattice) -> bool:
        """a, b: (direction, point) pairs.  Same group-orbit of affine spaces?"""
        return a[0] == b[0] and self.label(*a, group) == self.label(*b, group)

    # -- intersections and per-pair classification ---------------------------

    def _plane(self, h):
        """(normal tables, offset numerators, offset denominator) of h; with the
        form F / den_F and generators G / q_G, the tables are den_F q_G, q_G F, F G_i."""
        form, den = clear_denominators(
            [[x for c in h.normal for x in scalar_matrix(c)[r]] for r in range(self.delta)])
        gens, qg = self.gen_ints
        (off,), oden = clear_denominators([restrict_scalars((h.offset,))])
        return _Normal(den * qg, [[qg * x for x in f] for f in form],
                       [[sum(map(operator.mul, f, g)) for f in form] for g in gens]), off, oden

    def intersect(self, entry: _Direction, res, plane) -> _Cut | None:
        """Cut the parent p + span(entry's direction) by the hyperplane
        `plane` (from `_plane`), or None when the direction lies in it; res
        = (X, q_p) is res(p) cleared by `clear_denominators`.

        With the direction's restricted columns cols / q from its entry, the
        normal's form gives alpha_j = den q <normal, u_j> per row u_j.  The
        first row with alpha != 0 is the pivot w, 1/a = den q conj(alpha) /
        norm(alpha), and the sub-direction is spanned by the other rows u_j
        less (alpha_j / alpha) w, alpha_j / alpha = F_j / (lcd q).  Its entry
        is `_entry` of its key, the `primitive_rref` of the integer columns
        lcd q cols[delta j + l] - sum_i res(theta^l F_j)_i cols[delta pivot +
        i], l < delta.  The form also gives <normal, p> for c0 = (offset -
        <normal, p>)/a, over s = q_p times the offset's denominator."""
        nrec, off, oden = plane
        d, fspec = self.delta, self.fspec
        cols, q = entry.cols, entry.q
        alphas = [[sum(map(operator.mul, f, cols[d * j])) for f in nrec.form]
                  for j in range(len(entry.direction))]
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
        rw = [[sum(map(operator.mul, row, col)) for col in pcols] for row in sub.rows]
        (xs,), qp = res
        nu_p = [sum(map(operator.mul, f, xs)) for f in nrec.form]
        c0 = res_mul([o * nrec.den * qp - oden * e for o, e in zip(off, nu_p)], inv, fspec)
        base = [lcd * oden * q * sum(map(operator.mul, row, xs)) for row in sub.rows]
        return _Cut(sub, res, pcols[0], lcd, q, qp * oden, rw, c0,
                    [res_mul(nd, inv, fspec) for nd in nrec.dots], base)

    @staticmethod
    def _num(cut: _Cut, y: Sequence[int]) -> list[int]:
        """c = lcd s (c0 + sum y_i c_i): coset rep y's cut point is p + c w / (lcd s)."""
        return [x + cut.s * sum(map(operator.mul, y, col))
                for x, col in zip(cut.c0_num, zip(*cut.cs))]

    def point(self, cut: _Cut, y: Sequence[int]) -> tuple[FElem, ...]:
        """The field point of coset rep y, from one numerator vector: lcd s q
        X + q_p res_mul(c, q res(w)) over q_p lcd s q, c = `_num`."""
        (xs,), qp = cut.res
        c, big, d = self._num(cut, y), cut.lcd * cut.s * cut.q, self.delta
        cw = [t for i in range(0, self.dm, d) for t in res_mul(c, cut.wq[i:i + d], self.fspec)]
        coords = [Fraction(big * x + qp * t, qp * big) for x, t in zip(xs, cw)]
        return tuple(self.fspec.elem(*coords[i:i + d]) for i in range(0, self.dm, d))

    def classify_pair(self, parent: SingularClass, hclass, group: IntLattice,
                      level: int, cut: _Cut, stab, modulus):
        """Orbit classes among {rep(parent) cut by translated hclass}, for
        the proper `cut` of the pair (from `intersect`).

        Coset reps y, y' give one group-orbit iff (c(y) - c(y')) w is in
        group image + span(sub).  That group element lies in span(parent);
        pairing with nu, zero on span(sub), puts y - y' in the plane's
        stabilizer.  So H = Stab_group(parent) + Stab(hclass) in Z^n: the
        echelon of `integer_kernel` of the rows `stab` of the one modulo the
        echelon `modulus` of the other.  A candidate's key, base + c rw
        over lcd s q (c = `_num`) reduced as `label` reduces, equals
        label(sub_direction, point(cut, y), group).  Returns (sub_direction,
        [(key, y) per coset rep y], H); raises InfiniteArrangement when H
        is rank-deficient."""
        h, _ = integer_kernel(stab, self.n, modulus)
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
        echelon, big = self._frame(cut.sub, group)[0], cut.lcd * cut.s * cut.q
        return cut.sub.direction, [
            (self._key(echelon, [b + sum(map(operator.mul, c, t))
                                 for b, t in zip(cut.base, cut.rw)], big), y)
            for y in coset_reps(hsub) for c in (self._num(cut, y),)], hsub

    # -- level-wise enumeration ----------------------------------------------

    def build_level(self, parents, hclasses, group: IntLattice, level: int,
                    covers: dict | None = None) -> list[SingularClass]:
        """Classes at `level` from cutting parent representatives by all
        translated hyperplane classes, deduplicated under `group` on the
        candidate keys; the field point is built for accepted classes
        only.  An hclass carries its plane's stabilizer in Z^n.  Classes at
        level m-1 are the hyperplane classes and carry their normal and
        offset.  The classes, new or seen, that a parent's candidate keys
        resolve to are the ones one level below it: `covers`, if given,
        gets them once each under (parent.dim, parent.id)."""
        accepted: list[SingularClass] = []
        seen: dict = {}  # direction entry -> {key: class accepted for it}
        planes = [(hc, self._plane(hc), hc.stabilizer.echelon) for hc in hclasses]
        for parent in parents:
            entry = self._direction(parent.direction)
            res = clear_denominators([restrict_scalars(parent.point)])
            stab = [[sum(map(operator.mul, k, col)) for col in zip(*group.basis)]
                    for k in self._frame(entry, group)[1].basis]  # Stab_group(parent) in Z^n
            below: dict = {}  # class id -> class
            for hc, plane, modulus in planes:
                cut = self.intersect(entry, res, plane)
                if cut is None:
                    continue  # the parent's direction lies in the hyperplane
                sub_dir, candidates, _ = self.classify_pair(parent, hc, group, level, cut,
                                                            stab, modulus)
                classes = seen.setdefault(cut.sub, {})
                for key, y in candidates:
                    cls = classes.get(key)
                    if cls is None:
                        pt = self.point(cut, y)
                        hyper = (hc.normal, dot(hc.normal, pt)) if level == self.m - 1 else ()
                        cls = classes[key] = SingularClass(len(accepted), level, sub_dir, pt,
                                                           self.stabilizer(cut.sub), *hyper)
                        accepted.append(cls)
                        if len(accepted) > self.max_classes:
                            raise ResourceCapExceeded(
                                f"more than {self.max_classes} classes at level {level}")
                    below[cls.id] = cls
            if covers is not None:
                covers[(parent.dim, parent.id)] = list(below.values())
        return accepted

    def hyperplane_classes(self) -> list[SingularClass]:
        """Gamma-orbit classes of the translated input planes (level m-1)."""
        zero, one = self.fspec.zero, self.fspec.one
        ident = tuple(tuple(one if i == j else zero for j in range(self.m))
                      for i in range(self.m))
        parent = SingularClass(-1, self.m, ident, (zero,) * self.m, self.full)
        pseudo = [SingularClass(i, self.m - 1, (), h.normal, self.full,
                                normal=h.normal, offset=h.offset)
                  for i, h in enumerate(self.data.planes)]
        # under the full space as parent H = Z^n, whatever a pseudo class carries
        return self.build_level([parent], pseudo, self.full, self.m - 1)

    def enumerate_arrangement(self) -> Arrangement:
        """All global orbit classes, level m-1 down to 0, and the classes
        one level below each class above level 0 (from `build_level`).

        Raises InfiniteArrangement on the first rank-deficient
        classification subgroup, which forces infinitely many classes."""
        top = self.hyperplane_classes()
        arr = Arrangement(self.data, {self.m - 1: top})
        for level in range(self.m - 2, -1, -1):
            arr.levels[level] = self.build_level(arr.levels[level + 1], top, self.full,
                                                 level, covers=arr.covers)
        return arr

    def relative_levels(self, direction, point, group: IntLattice,
                        hclasses) -> dict[int, list[SingularClass]]:
        """Orbit classes of singular spaces inside one representative space,
        under a subgroup: all levels below dim(direction)."""
        out: dict[int, list[SingularClass]] = {}
        prev = [SingularClass(-1, len(direction), direction, point, group)]
        for level in range(len(direction) - 1, -1, -1):
            prev = out[level] = self.build_level(prev, hclasses, group, level)
        return out
