"""Orbit enumeration of singular spaces under lattice translation.

Singular l-spaces are intersections of Gamma-translated hyperplanes.  The
engine enumerates one representative per translation-orbit class, level by
level (each level cuts the previous one by translated hyperplanes), with
stabilizer sublattices attached.  Orbit questions are decided purely by
integer linear algebra on translation coefficients: a per-pair
classification subgroup whose index is the number of classes contributed,
and whose rank deficiency certifies an infinite class count.  Whether two
spaces share an orbit is one comparison of canonical hashable labels
(`Engine.label`), so deduplication is a set lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .field import FElem, dot, restrict_scalars
from .linalg import (
    IntLattice,
    coset_reps,
    integer_kernel,
    left_annihilator,
    rref,
    snf,
)
from .model import Hyperplane, ProjectionData

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


@dataclass
class Arrangement:
    data: ProjectionData
    levels: dict[int, list[SingularClass]]  # keys m-1 .. 0

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
        self.gen_cols = [restrict_scalars(g) for g in data.gens]
        self._label_maps: dict = {}
        self._stabilizers: dict = {}
        self._group_cols: dict = {}
        self._projs: dict = {}
        self._proj_groups: dict = {}
        self._proj_ws: dict = {}
        self._normal_dots: dict = {}

    # -- basic geometry helpers ---------------------------------------------

    def gamma_vec(self, y: Sequence[int]) -> tuple[FElem, ...]:
        """Sum of y_i * g_i as a field vector."""
        acc = [self.fspec.zero] * self.m
        for yi, g in zip(y, self.data.gens):
            if yi:
                c = self.fspec.elem(yi)
                acc = [a + c * x for a, x in zip(acc, g)]
        return tuple(acc)

    def dir_res_cols(self, direction) -> list[tuple[Fraction, ...]]:
        """Rational basis (as columns) of the restricted span of a field
        subspace: each field basis vector u contributes res(u) and, over
        Q(sqrt D), res(sqrt(D) u), read off sqrt(D) (a + b sqrt D) =
        D b + a sqrt D."""
        cols = []
        big_d = self.fspec.D
        for row in direction:
            cols.append(restrict_scalars(row))
            if self.delta == 2:
                cols.append(tuple(c for x in row for c in (big_d * x.b, x.a)))
        return cols

    def group_image_cols(self, group: IntLattice) -> list[tuple[Fraction, ...]]:
        key = group.basis
        if key not in self._group_cols:
            cols = []
            for b in group.basis:
                cols.append(tuple(
                    sum(Fraction(bi) * self.gen_cols[i][j] for i, bi in enumerate(b))
                    for j in range(self.dm)))
            self._group_cols[key] = cols
        return self._group_cols[key]

    def _proj_rows(self, direction) -> list[tuple[Fraction, ...]]:
        """Rows spanning the annihilator of the restricted span of a
        direction; projecting by them eliminates the direction subspace."""
        if direction not in self._projs:
            bcols = self.dir_res_cols(direction)
            if bcols:
                brows = [tuple(c[i] for c in bcols) for i in range(self.dm)]
                proj = left_annihilator(brows, len(bcols))
            else:
                proj = [tuple(Fraction(int(i == j)) for j in range(self.dm))
                        for i in range(self.dm)]
            self._projs[direction] = proj
        return self._projs[direction]

    def _proj_group(self, direction, group: IntLattice) -> list[list[Fraction]]:
        """P * (group image columns), cached: one row per annihilator row."""
        key = (direction, group.basis)
        if key not in self._proj_groups:
            proj = self._proj_rows(direction)
            gcols = self.group_image_cols(group)
            self._proj_groups[key] = [
                [sum(p[i] * col[i] for i in range(self.dm)) for col in gcols]
                for p in proj
            ]
        return self._proj_groups[key]

    def _proj_w(self, direction, w) -> list[tuple[Fraction, ...]]:
        """P applied to the restricted images of w and sqrt(D)*w, cached.

        res(c*w) = c.a * res(w) + c.b * res(sqrt(D)*w), so these two columns
        turn field coefficients into projected point shifts."""
        key = (direction, w)
        if key not in self._proj_ws:
            proj = self._proj_rows(direction)
            cols = self.dir_res_cols((w,))
            self._proj_ws[key] = [
                tuple(sum(p[i] * col[i] for i in range(self.dm)) for col in cols)
                for p in proj
            ]
        return self._proj_ws[key]

    def _ndots(self, normal) -> list[FElem]:
        """<normal, g_i> for all generators, cached per normal."""
        if normal not in self._normal_dots:
            self._normal_dots[normal] = [dot(normal, g) for g in self.data.gens]
        return self._normal_dots[normal]

    def stabilizer(self, direction) -> IntLattice:
        """Gamma cap span(direction), as coefficient vectors in Z^n."""
        key = direction
        if key not in self._stabilizers:
            self._stabilizers[key] = integer_kernel(
                self._proj_group(direction, self.full), self.n)
        return self._stabilizers[key]

    def _label_map(self, group: IntLattice, direction):
        """(rows, big, moduli) behind label(), cached per (group, direction).

        P (the annihilator rows of `direction`) times the group image is
        cleared of denominators row by row (diag(scale)) and brought to
        Smith form D = U M V.  U diag(scale) P is stored as the integer
        matrix rows over one common denominator big; moduli holds the
        nonzero SNF diagonal entries, then 0 for the rows past the rank."""
        key = (group.basis, direction)
        if key not in self._label_maps:
            proj = self._proj_rows(direction)
            pg = self._proj_group(direction, group)
            scales = [math.lcm(*(x.denominator for x in row)) for row in pg]
            d, u, _ = snf([[x.numerator * (s // x.denominator) for x in row]
                           for row, s in zip(pg, scales)])
            rank = sum(1 for i in range(min(len(d), group.rank)) if d[i][i] != 0)
            scaled = [[s * x for x in p] for p, s in zip(proj, scales)]
            frows = [[sum(ui * row[c] for ui, row in zip(urow, scaled) if ui)
                      for c in range(self.dm)] for urow in u]
            big = math.lcm(*(x.denominator for row in frows for x in row))
            rows = [tuple(x.numerator * (big // x.denominator) for x in row)
                    for row in frows]
            moduli = [d[i][i] if i < rank else 0 for i in range(len(u))]
            self._label_maps[key] = (rows, big, moduli)
        return self._label_maps[key]

    def label(self, direction, point, group: IntLattice) -> tuple:
        """Canonical key of the group-orbit of point + span(direction).

        The rational vector v = U diag(scale) P res(point), with entry i
        reduced modulo the SNF diagonal d_i for i below the rank and kept as
        is beyond it: two points give the same v iff their difference lies
        in span(direction) + group image, i.e. iff the spaces share an
        orbit.  v is computed in integers: with res(point) = X / q and the
        map rows R / big, entry i is (R_i . X mod d_i big q) / (big q).
        The key is (den, v_1 den, ...) with den the least common
        denominator of v, so equal keys mean equal v."""
        rows, big, moduli = self._label_map(group, direction)
        x = restrict_scalars(point)
        q = math.lcm(*(xi.denominator for xi in x))
        xs = [xi.numerator * (q // xi.denominator) for xi in x]
        den = big * q
        key = [den]
        for row, mod in zip(rows, moduli):
            v = sum(r * xi for r, xi in zip(row, xs) if r)
            key.append(v % (mod * den) if mod else v)
        g = math.gcd(*key)
        return tuple(v // g for v in key)

    def contains(self, direction, sub_dir) -> bool:
        """True iff span(sub_dir) lies in span(direction): the annihilator
        rows of `direction` kill every restricted column of `sub_dir`."""
        proj = self._proj_rows(direction)
        return not any(sum(p * c for p, c in zip(prow, col) if p)
                       for col in self.dir_res_cols(sub_dir) for prow in proj)

    def same_orbit(self, a, b, group: IntLattice) -> bool:
        """a, b: (direction, point) pairs.  Same group-orbit of affine spaces?"""
        return a[0] == b[0] and self.label(*a, group) == self.label(*b, group)

    # -- intersections and per-pair classification ---------------------------

    @staticmethod
    def proper(direction, normal) -> bool:
        """True iff the direction is not contained in the hyperplane."""
        return any(dot(normal, u) for u in direction)

    def intersect_affine(self, direction, point, h: Hyperplane):
        """Cut an affine space by a hyperplane it properly intersects.

        Returns (sub_direction in canonical rref, sub_point, lin_scale)
        where translating the hyperplane by x moves the intersection point
        by (<normal, x>/a) * w; lin_scale = (a, w) carries that map.
        """
        alphas = [dot(h.normal, u) for u in direction]
        pivot = next((j for j, al in enumerate(alphas) if al), None)
        if pivot is None:
            raise ValueError("improper intersection: direction lies in the hyperplane")
        a = alphas[pivot]
        w = direction[pivot]
        sub = []
        for j, u in enumerate(direction):
            if j == pivot:
                continue
            f = alphas[j] / a
            sub.append([x - f * y for x, y in zip(u, w)])
        sub_dir = tuple(tuple(r) for r in rref(sub))
        c0 = (h.offset - dot(h.normal, point)) / a
        sub_point = tuple(x + c0 * y for x, y in zip(point, w))
        return sub_dir, sub_point, (a, w)

    def classify_pair(self, parent: SingularClass, hclass, group: IntLattice,
                      level: int):
        """Orbit classes among {rep(parent) cut by translated hclass}.

        Returns (sub_direction, [candidate points], subgroup H).  Raises
        InfiniteArrangement when H is rank-deficient.
        """
        h = Hyperplane(hclass.normal, hclass.offset)
        sub_dir, sub_point, (a, w) = self.intersect_affine(
            parent.direction, parent.point, h)
        # linear part of y -> intersection point: (<normal, g(y)>/a) * w
        inv_a = a.inverse()
        coefs = [nd * inv_a for nd in self._ndots(h.normal)]
        pw = self._proj_w(sub_dir, w)
        pg = self._proj_group(sub_dir, group)
        rows = []
        for pwr, pgr in zip(pw, pg):
            if self.delta == 2:
                lin = [pwr[0] * c.a + pwr[1] * c.b for c in coefs]
            else:
                lin = [pwr[0] * c.a for c in coefs]
            rows.append(lin + [-x for x in pgr])
        kernel = integer_kernel(rows, self.n + group.rank)
        hsub = IntLattice.from_rows(self.n, [r[: self.n] for r in kernel.basis])
        if hsub.rank < self.n:
            raise InfiniteArrangement(level, parent.id, hclass.id, hsub.rank, self.n)
        # the cosets of hsub are pairwise distinct classes, so an index above
        # the cap trips it whatever the other pairs add: stop before listing
        index = math.prod(row[i] for i, row in enumerate(hsub.basis))
        if index > self.max_classes:
            raise ResourceCapExceeded(
                f"level {level}, pair (parent {parent.id}, hyperplane class "
                f"{hclass.id}): {index} classes, more than the cap of {self.max_classes}")
        reps = coset_reps(hsub)
        points = []
        for y in reps:
            shift = self.fspec.zero
            for yi, c in zip(y, coefs):
                if yi:
                    shift = shift + self.fspec.elem(yi) * c
            points.append(tuple(x + shift * yw for x, yw in zip(sub_point, w)))
        return sub_dir, points, hsub

    # -- level-wise enumeration ----------------------------------------------

    def build_level(self, parents, hclasses, group: IntLattice, level: int,
                    with_normals: bool = False) -> list[SingularClass]:
        """Classes at `level` from cutting parent representatives by all
        translated hyperplane classes, deduplicated under `group`."""
        accepted: list[SingularClass] = []
        seen: dict = {}  # direction -> labels of the classes accepted so far
        for parent in parents:
            for hc in hclasses:
                if not self.proper(parent.direction, hc.normal):
                    continue
                sub_dir, points, _ = self.classify_pair(parent, hc, group, level)
                labels = seen.setdefault(sub_dir, set())
                for pt in points:
                    key = self.label(sub_dir, pt, group)
                    if key in labels:
                        continue
                    labels.add(key)
                    kwargs = {}
                    if with_normals:
                        kwargs = {"normal": hc.normal, "offset": dot(hc.normal, pt)}
                    accepted.append(SingularClass(
                        len(accepted), level, sub_dir, pt,
                        self.stabilizer(sub_dir), **kwargs))
                    if len(accepted) > self.max_classes:
                        raise ResourceCapExceeded(
                            f"more than {self.max_classes} classes at level {level}")
        return accepted

    def _full_space_parent(self) -> SingularClass:
        one = self.fspec.one
        zero = self.fspec.zero
        ident = tuple(tuple(one if i == j else zero for j in range(self.m))
                      for i in range(self.m))
        origin = tuple(zero for _ in range(self.m))
        return SingularClass(-1, self.m, ident, origin, self.full)

    def hyperplane_classes(self) -> list[SingularClass]:
        """Gamma-orbit classes of the translated input planes (level m-1)."""
        parent = self._full_space_parent()
        pseudo = [SingularClass(i, self.m - 1, (), h.normal, self.full,
                                normal=h.normal, offset=h.offset)
                  for i, h in enumerate(self.data.planes)]
        # pseudo classes only carry (normal, offset); direction unused because
        # the parent is the full space
        return self.build_level([parent], pseudo, self.full, self.m - 1,
                                with_normals=True)

    def enumerate_arrangement(self) -> Arrangement:
        """All global orbit classes, level m-1 down to 0.

        Raises InfiniteArrangement on the first rank-deficient
        classification subgroup, which forces infinitely many classes."""
        levels: dict[int, list[SingularClass]] = {}
        top = self.hyperplane_classes()
        levels[self.m - 1] = top
        for level in range(self.m - 2, -1, -1):
            levels[level] = self.build_level(levels[level + 1], top, self.full, level)
        return Arrangement(self.data, levels)

    def relative_levels(self, direction, point, group: IntLattice,
                        hclasses) -> dict[int, list[SingularClass]]:
        """Orbit classes of singular spaces inside one representative space,
        under a subgroup: all levels below dim(direction)."""
        k = len(direction)
        parent = SingularClass(-1, k, direction, point, group)
        out: dict[int, list[SingularClass]] = {}
        prev = [parent]
        for level in range(k - 1, -1, -1):
            prev = self.build_level(prev, hclasses, group, level)
            out[level] = prev
        return out
