"""Orbit enumeration of singular spaces under lattice translation.

Singular l-spaces are intersections of Gamma-translated hyperplanes.  The
engine enumerates one representative per translation-orbit class, level by
level (each level cuts the previous one by translated hyperplanes), with
stabilizer sublattices attached.  Orbit questions are decided purely by
integer linear algebra on translation coefficients: a per-pair
classification subgroup whose index is the number of classes contributed,
and whose rank deficiency certifies an infinite class count.  Whether two
spaces share an orbit is one comparison of canonical hashable labels
(`Engine.label`), so deduplication is a set lookup.  Each direction has
one cached entry (`Engine._direction`): its annihilator rows R, read off
a Hermite transform, R's values on the generators, and one Hermite frame
per group (`Engine._frame`).  Labels, stabilizers and classification
subgroups all come from that entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .field import FElem, dot, restrict_scalars
from .linalg import IntLattice, coset_reps, hnf, integer_kernel, rref
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


@dataclass
class _Direction:
    """Engine cache entry of one direction: its annihilator rows R, their
    values on the generators (one row per R row) and its frames."""

    rows: list[tuple[int, ...]]
    vals: list[tuple[int, ...]]
    frames: dict  # group basis -> (echelon, kernel)


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
        self._dirs: dict = {}  # direction -> _Direction
        # <normal, g_i> per input normal: the only normals a pair is cut by
        self._normal_dots = {h.normal: [dot(h.normal, g) for g in data.gens]
                             for h in data.planes}

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

    def _direction(self, direction) -> _Direction:
        """The direction's cached entry, built the first time it is met.

        The rows R, the integer kernel of the restricted columns, span
        their annihilator, so projecting by R eliminates the direction.
        Each row is scaled so that its values on the generators res(g_i),
        kept one row per R row, are integral as well."""
        entry = self._dirs.get(direction)
        if entry is None:
            rows, vals = [], []
            for r in integer_kernel(self.dir_res_cols(direction), self.dm):
                v = [sum(ri * gi for ri, gi in zip(r, g) if ri) for g in self.gen_cols]
                s = math.lcm(*(x.denominator for x in v))
                rows.append(tuple(s * ri for ri in r))
                vals.append(tuple(x.numerator * (s // x.denominator) for x in v))
            entry = self._dirs[direction] = _Direction(rows, vals, {})
        return entry

    def _frame(self, entry: _Direction, group: IntLattice):
        """(echelon, kernel) of the lattice R * (group image), kept in the
        direction's entry per group basis, from one Hermite form H = U M.

        M has one row R res(gamma(b)) = sum b_i vals_i per group basis
        vector b, so the nonzero rows of H, each with its pivot column, are
        the echelon basis that `label` reduces by.  The rows of U under the
        zero rows of H span the group coordinates y with R res(gamma(y)) =
        0, i.e. group cap span(direction); kernel is their Hermite lattice."""
        frame = entry.frames.get(group.basis)
        if frame is None:
            h, u = hnf([[sum(bi * v for bi, v in zip(b, vrow) if bi) for vrow in entry.vals]
                        for b in group.basis])
            echelon = [(next(j for j, x in enumerate(hr) if x), hr) for hr in h if any(hr)]
            kernel = IntLattice.from_rows(
                group.rank, [ur for hr, ur in zip(h, u) if not any(hr)])
            frame = entry.frames[group.basis] = (echelon, kernel)
        return frame

    def _proj_w(self, rows, w) -> tuple[list[list[int]], int]:
        """([R X_0, R X_1], q) for annihilator rows R, with X_0 = q res(w)
        and X_1 = q res(sqrt(D) w) integral (X_1 only over Q(sqrt D)).

        res(c w) = c.a res(w) + c.b res(sqrt(D) w), so these columns turn
        field coefficients into projected point shifts."""
        cols = self.dir_res_cols((w,))
        q = math.lcm(*(x.denominator for col in cols for x in col))
        return [[sum(r * x.numerator * (q // x.denominator) for r, x in zip(row, col) if r)
                 for row in rows] for col in cols], q

    def stabilizer(self, direction) -> IntLattice:
        """Gamma cap span(direction), as coefficient vectors in Z^n: the
        kernel of the full lattice's frame."""
        return self._frame(self._direction(direction), self.full)[1]

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
        echelon, _ = self._frame(entry, group)
        x = restrict_scalars(point)
        q = math.lcm(*(xi.denominator for xi in x))
        xs = [xi.numerator * (q // xi.denominator) for xi in x]
        v = [sum(r * xi for r, xi in zip(row, xs) if r)
             for row in entry.rows]
        for p, hrow in echelon:
            k = v[p] // (q * hrow[p])
            if k:
                kq = k * q
                v = [a - kq * b for a, b in zip(v, hrow)]
        g = math.gcd(q, *v)
        return (q // g, *(a // g for a in v))

    def contains(self, direction, sub_dir) -> bool:
        """True iff span(sub_dir) lies in span(direction): the annihilator
        rows of `direction` kill every restricted column of `sub_dir`."""
        rows = self._direction(direction).rows
        return not any(sum(p * c for p, c in zip(row, col) if p)
                       for col in self.dir_res_cols(sub_dir) for row in rows)

    def same_orbit(self, a, b, group: IntLattice) -> bool:
        """a, b: (direction, point) pairs.  Same group-orbit of affine spaces?"""
        return a[0] == b[0] and self.label(*a, group) == self.label(*b, group)

    # -- intersections and per-pair classification ---------------------------

    def intersect_affine(self, direction, point, h):
        """Cut an affine space by a hyperplane h (anything with a normal and
        an offset), or None when the direction lies in the hyperplane.

        Returns (sub_direction in canonical rref, sub_point, lin_scale)
        where translating the hyperplane by x moves the intersection point
        by (<normal, x>/a) * w; lin_scale = (a, w) carries that map.
        """
        alphas = [dot(h.normal, u) for u in direction]
        pivot = next((j for j, al in enumerate(alphas) if al), None)
        if pivot is None:
            return None
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
                      level: int, cut):
        """Orbit classes among {rep(parent) cut by translated hclass}.

        `cut` is intersect_affine(parent.direction, parent.point, hclass),
        which build_level has already found proper.  Translating hclass by
        gamma(y) moves the cut point by (sum y_i c_i) w, with c_i =
        <normal, g_i>/a = (A_i + B_i sqrt D)/lcd.  By `_proj_w` that shift
        has R-image sum y_i (A_i R X_0 + B_i R X_1) / (lcd q), so the y that
        keep the cut in its group-orbit form the subgroup H: the y-part of
        the integer kernel of [A_i R X_0 + B_i R X_1 | -lcd q E^T], E the
        echelon rows of the sub-direction's frame.

        Returns (sub_direction, [candidate points], H).  Raises
        InfiniteArrangement when H is rank-deficient.
        """
        sub_dir, sub_point, (a, w) = cut
        inv_a = a.inverse()
        coefs = [nd * inv_a for nd in self._normal_dots[hclass.normal]]
        lcd = math.lcm(*(x.denominator for c in coefs for x in (c.a, c.b)))
        nums = [[x.numerator * (lcd // x.denominator) for x in (c.a, c.b)[:self.delta]]
                for c in coefs]  # (A_i, B_i)
        entry = self._direction(sub_dir)
        rw, q = self._proj_w(entry.rows, w)
        echelon, _ = self._frame(entry, group)
        scale = -lcd * q
        rows = [[sum(k * col[t] for k, col in zip(ks, rw)) for ks in nums]
                + [scale * hrow[t] for _, hrow in echelon]
                for t in range(len(rw[0]))]
        kernel = integer_kernel(rows, self.n + len(echelon))
        hsub = IntLattice.from_rows(self.n, [r[: self.n] for r in kernel])
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
                cut = self.intersect_affine(parent.direction, parent.point, hc)
                if cut is None:
                    continue  # the parent's direction lies in the hyperplane
                sub_dir, points, _ = self.classify_pair(parent, hc, group, level, cut)
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
