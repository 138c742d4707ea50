"""Orbit enumeration of singular spaces under lattice translation.

Singular l-spaces are intersections of Gamma-translated hyperplanes.  The
engine enumerates one representative per translation-orbit class, level by
level, with stabilizer sublattices attached.  The top level, the
hyperplane classes, is read off each input plane's table
(`Engine.hyperplane_classes`): its direction's key, entry and stabilizer,
its point, and its label, with no cut.  Each lower level cuts the one
above by translated hyperplanes.  Each lattice question is at most one
Hermite form, read for its echelon and kernel at once (`integer_kernel`).
Each direction has one cached entry under the integer key
`primitive_rref` of its cleared restricted columns: the columns, rows R
spanning their annihilator over Q, and the one frame R * (Gamma image),
whose echelon labels reduce by and whose kernel is the stabilizer.  A
plane's direction takes its table's form as R and its table's Hermite
form as the frame; a cut's new direction takes its parent's rows and the
plane's form as R (`Engine._entry`).  A cut finds its new direction's key
from integers, so the engine does no field elimination.  A pair's
classification subgroup (its index counts the pair's classes; a rank
deficiency, infinitely many) is the sum of the parent's and the plane's
stabilizers.  Minors of the plane's integer table give its index when the
plane's image has full rank, for every plane at once per parent
direction (`Engine.pair_indices`); index 1 is all of Z^n, and any other
sum is one Hermite form.  A cut is an integer affine map on restricted
coordinates: each coset representative's point is one integer vector in
lowest terms (`Engine.point`).  A level labels each distinct point once
(`Engine.label`), the dedup key, so deduplication is a set lookup, and a
candidate's class lies one level below.  A pair whose classes its parent
already holds is not cut: `Engine.build_level` states that rule, on bit
masks of hyperplane classes and the pair's index; each parent starts
from the classes accepted so far that lie in it, so each unordered pair
at level m-2 is classified once.  A class is an integer record, and a
hyperplane class carries its input plane's (`model.PlaneTable`), so the
level loop builds no field element: the engine reads the input's
cleared generators and plane tables off the data (`ProjectionData.gen_ints`
and `tables`), and the field's product and inverse are `field.res_mul`
and `field.res_adjugate` on numerators.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Sequence

from .field import res_adjugate, res_mul, theta_powers
from .linalg import IntLattice, coset_reps, integer_kernel, minor_gcd, primitive_rref, remainder
from .model import PlaneTable, ProjectionData

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


class SingularClass:
    """One orbit class of singular spaces, in integers: its id at its level
    `dim`, its `stabilizer` in Z^n, its direction's `entry`, a point as res
    = ([X], q), res(point) = X / q, and for a hyperplane class its input
    plane's `PlaneTable` (`plane`, else None).  Equal to another, and
    hashed, by (id, dim, stabilizer) alone."""

    __slots__ = ("id", "dim", "stabilizer", "entry", "res", "plane")

    def __init__(self, id, dim, stabilizer, entry, res, plane=None):
        self.id, self.dim, self.stabilizer = id, dim, stabilizer
        self.entry, self.res, self.plane = entry, res, plane

    def __eq__(self, other) -> bool:
        return (other.__class__ is SingularClass and self.id == other.id
                and self.dim == other.dim and self.stabilizer == other.stabilizer)

    def __hash__(self) -> int:
        return hash((self.id, self.dim, self.stabilizer))


class _Direction:
    """Engine cache entry of one direction, under the key primitive_rref(cols):
    its restricted columns cols / q (column delta j is res(u_j) for the
    field rref rows u_j), rows R spanning its annihilator over Q (a
    plane's form, or its parent's rows and its plane's form), and the
    echelon (Hermite rows (pivot, row)) and kernel `stab` (Gamma cap
    span(direction) in Z^n) of its frame, the lattice R * (Gamma image).
    Each entry is equal only to itself."""

    __slots__ = ("cols", "q", "rows", "echelon", "stab")

    def __init__(self, cols, q, rows, echelon, stab):
        self.cols, self.q, self.rows, self.echelon, self.stab = cols, q, rows, echelon, stab


def _key_columns(key) -> tuple[dict[int, list[int]], int]:
    """(cols, q) of a direction's key, the rref over Q of its restricted
    columns as primitive rows: q is the lcm of the pivots, and cols maps
    each row's pivot to the row over that pivot, times q, so cols / q are
    the rref rows."""
    heads = [next(i for i, x in enumerate(row) if x) for row in key]
    q = math.lcm(*(row[i] for row, i in zip(key, heads)))
    return {i: [x * (q // row[i]) for x in row] for row, i in zip(key, heads)}, q


class _Cut(NamedTuple):
    """A proper cut of p + span(direction) by a hyperplane with normal nu,
    in integers, for the classification of its translates.  The pivot row
    w of the direction has a = <nu, w> != 0.  The cut point is p + c0 w,
    and translating the plane by gamma(y) adds (sum y_i c_i) w, with c0 =
    c0_num / (lcd s) and c_i = <nu, g_i> / a = res_mul(dots_i, inv) / lcd
    as field numerators, dots_i read off the plane's `cols`.  res = (X,
    q_p) is res(p) = X / q_p, and wq = q res(w) is w's column of the
    direction's entry.  sub is the sub-direction's entry (found by its
    integer key), and index the pair's index (`pair_indices`)."""

    sub: _Direction
    res: tuple
    wq: list[int]
    lcd: int
    q: int
    s: int
    c0_num: list[int]
    inv: list[int]
    cols: list[tuple[int, ...]]
    index: int


class Arrangement:
    """The global orbit classes, and the covering relation found with them."""

    def __init__(self, data: ProjectionData, levels: dict[int, list[SingularClass]]) -> None:
        self.data = data
        self.levels = levels  # keys m-1 .. 0
        self.covers: dict = {}  # (level, id) -> classes one level down

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
        self._dirs: dict = {}  # primitive_rref of a direction's columns -> _Direction
        self._theta_powers = theta_powers(self.fspec)

    # -- directions and orbit labels ------------------------------------------

    def _entry(self, key, parent: _Direction, plane: PlaneTable) -> _Direction:
        """The cached entry of the direction with this key, `parent`'s
        direction cut by the plane of `plane`, built from the two the first
        time.  cols / q are the key rows over the lcm q of their pivots
        (`_key_columns`), res(theta^l u_j), l < delta, for the field rref
        rows u_j.  Its rows R are the parent's followed by the plane's form:
        the cut is proper, so they are independent and ker R = span(parent)
        cap plane = span(direction), so `label` is exact.  Their images R
        res(g_i), res(g_i) = G_i / q_G (`gen_ints`), are the parent's,
        integral as every entry's rows are on Gamma, and the plane's dots.
        The frame is one `integer_kernel` of them, whose kernel is Gamma cap
        span(direction)."""
        entry = self._dirs.get(key)
        if entry is None:
            cols, q = _key_columns(key)
            gens, qg = self.data.gen_ints
            rows = [*parent.rows, *plane.form]
            echelon, stab = integer_kernel(
                [[*(sum(map(operator.mul, r, g)) // qg for r in parent.rows), *dots]
                 for g, dots in zip(gens, zip(*plane.cols))], len(rows))
            entry = self._dirs[key] = _Direction([*cols.values()], q, rows, echelon, stab)
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
        entry in [0, q h_p)).  The key is (q, v) over its gcd, so equal keys
        mean equal v / q."""
        (xs,), q = res
        v = remainder(entry.echelon, [sum(map(operator.mul, r, xs)) for r in entry.rows], q)
        g = math.gcd(q, *v)
        return (q // g, *(a // g for a in v))

    def same_orbit(self, a, b) -> bool:
        """a, b: (entry, res) pairs.  Same Gamma-orbit of affine spaces?"""
        return a[0] is b[0] and self.label(*a) == self.label(*b)

    # -- intersections and per-pair classification ---------------------------

    def intersect(self, entry: _Direction, res, plane, index: int) -> _Cut | None:
        """Cut the parent p + span(entry's direction) by the input plane
        whose `PlaneTable` a hyperplane class carries (`plane`), or None when
        the direction lies in it; res = ([X], q_p) with res(p) = X / q_p.
        The cut carries `index`, the pair's index (`pair_indices`), which
        `build_level` reads to decide whether to cut at all (its docstring
        has the rule).

        With the direction's restricted columns cols / q from its entry, the
        plane's form gives alpha_j = den q <normal, u_j> per row u_j.  The
        first row with alpha != 0 is the pivot w, 1/a = den q adj(alpha) /
        norm(alpha) by `res_adjugate`, and the sub-direction is spanned by the other rows u_j
        less (alpha_j / alpha) w, alpha_j / alpha = F_j / (lcd q).  Its entry
        is `_entry` of its key, built from the parent's entry and the plane
        the first time; the key is the `primitive_rref` of the integer columns
        lcd q cols[delta j + l] - sum_i res(theta^l F_j)_i cols[delta pivot +
        i], l < delta.  The form also gives <normal, p> for c0 = (offset -
        <normal, p>)/a, over s = q_p oden."""
        d, fspec = self.delta, self.fspec
        cols, q = entry.cols, entry.q
        alphas = [[sum(map(operator.mul, f, col)) for f in plane.form] for col in cols[::d]]
        pivot = next((j for j, al in enumerate(alphas) if any(al)), None)
        if pivot is None:
            return None
        adj, norm = res_adjugate(alphas[pivot], fspec)
        inv = [plane.den * q * x * (1 if norm > 0 else -1) for x in adj]
        g = math.gcd(norm, *inv)
        inv, lcd = [x // g for x in inv], plane.den * abs(norm) // g
        ratios = [res_mul(al, inv, fspec) for al in alphas]
        pcols = cols[d * pivot: d * pivot + d]
        sub = self._entry(primitive_rref([
            [lcd * q * x - sum(map(operator.mul, t, ys)) for x, *ys in zip(col, *pcols)]
            for j, f in enumerate(ratios) if j != pivot
            for col, t in zip(cols[d * j: d * j + d],
                              [res_mul(e, f, fspec) for e in self._theta_powers])]),
                          entry, plane)
        (xs,), qp = res
        nu_p = [sum(map(operator.mul, f, xs)) for f in plane.form]
        c0 = res_mul([o * plane.den * qp - plane.oden * e for o, e in zip(plane.off, nu_p)],
                     inv, fspec)
        return _Cut(sub, res, pcols[0], lcd, q, qp * plane.oden, c0, inv, plane.cols, index)

    def point(self, cut: _Cut, y: Sequence[int]) -> tuple:
        """Coset rep y's point as res ([X], q): with c = lcd s (c0 + sum y_i
        c_i), the point is p + c w / (lcd s), so its numerators are lcd s q X
        + q_p res_mul(c, q res(w)) over q_p lcd s q, divided by their gcd,
        so q is the least common denominator and equal points are equal.
        For y != 0, lcd s sum y_i c_i is s res_mul(sum y_i dots_i, inv)."""
        (xs,), qp = cut.res
        c = cut.c0_num
        if any(y):
            t = res_mul([sum(map(operator.mul, y, col)) for col in cut.cols], cut.inv, self.fspec)
            c = [x + cut.s * v for x, v in zip(c, t)]
        big, d = cut.lcd * cut.s * cut.q, self.delta
        cw = [t for i in range(0, self.dm, d) for t in res_mul(c, cut.wq[i:i + d], self.fspec)]
        nums = [big * x + qp * t for x, t in zip(xs, cw)]
        g = math.gcd(qp * big, *nums)
        return [[x // g for x in nums]], qp * big // g

    def pair_indices(self, stab: IntLattice, planes: Sequence[PlaneTable]) -> list[int]:
        """[Z^n : H] for H = stab + Stab(plane), per plane, read off minors,
        or 0 when they do not decide it.  A plane's `dots` map Z^n onto VG
        with kernel Stab(plane), so [Z^n : H] is [VG : dots(stab)]: when VG
        has full rank (g != 0), the `minor_gcd` of the images of stab's rows
        over g, which is 0 when the images have rank below delta.  With a
        nonzero index the normal is not 0 on stab, so the pair is proper.
        The images under every plane's dots are taken in one pass."""
        d = self.delta
        images = [[sum(map(operator.mul, s, col)) for plane in planes for col in plane.cols]
                  for s in stab.basis]
        return [minor_gcd([v[d * j:d * j + d] for v in images], d) // plane.g if plane.g else 0
                for j, plane in enumerate(planes)]

    def classify_pair(self, parent: SingularClass, hclass: SingularClass, level: int,
                      cut: _Cut):
        """Orbit classes among {rep(parent) cut by translated hclass}, for
        the proper `cut` of the pair (from `intersect`).

        Coset reps y, y' give one Gamma-orbit iff (c(y) - c(y')) w is in
        Gamma image + span(sub).  That lattice element lies in span(parent);
        pairing with nu, zero on span(sub), puts y - y' in the plane's
        stabilizer.  So H = Stab(parent) + Stab(hclass) in Z^n.  When the
        cut's index is 1, H = Z^n and the one coset rep is y = 0.
        Otherwise H is the echelon of `integer_kernel` of the parent's
        stabilizer rows modulo the echelon of the plane's stabilizer.  A
        candidate is a coset rep's point, res from `point`.  Returns (the
        sub-direction's entry, [res per coset rep, in the order of
        `coset_reps`], H); raises InfiniteArrangement when H is
        rank-deficient."""
        if cut.index == 1:
            hsub, reps = self.full, [(0,) * self.n]
        else:
            h, _ = integer_kernel(parent.stabilizer.basis, self.n, hclass.stabilizer.echelon)
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
        return cut.sub, [self.point(cut, y) for y in reps], hsub

    # -- level-wise enumeration ----------------------------------------------

    def build_level(self, parents, hclasses, level: int,
                    covers: dict | None = None, on: dict | None = None) -> list[SingularClass]:
        """Classes at `level` from cutting each parent, by the entry and res
        it carries, with all translated hyperplane classes, deduplicated
        under Gamma on the labels of the candidates' points, each distinct
        point labeled once; an accepted class gets its cut's entry and its
        candidate's res.  An hclass carries its input plane's `PlaneTable`
        and its stabilizer in Z^n.  The classes one level below a parent
        are those its candidates resolve to, new or seen, and those it
        starts from (below): `covers`, if given, gets them once each under
        (parent.dim, parent.id).

        `on` maps (dim, id) of a class to a bit mask, bit j for hclasses[j],
        that holds only j with some translate of hclasses[j] containing the
        class: a class the pair (parent, hclasses[j]) yields gets the
        parent's bits and bit j.  A parent with bit j lies in a translate of
        hclasses[j], so that pair is not proper and is passed over.  Every
        other pair is decided in one place: its index is read first (off
        the parent direction's `pair_indices` row), and when it equals the number of classes below the
        parent so far that have bit j, and that number is not 0, the pair
        is not cut, as those classes are all of its classes.  Each such
        beta has a translate beta' in rep(parent) and in some h_j + gamma,
        and the parent is not in the plane's direction (the index is not
        0), so beta' = rep(parent) cut by h_j + gamma: a class of the pair.
        Distinct classes are distinct cosets of H, so there are no others.
        Such a pair adds no class and changes no mask, and its index is at
        most the class cap with H of full rank, so neither cap nor a rank
        deficiency can fire there.  Any other pair is cut by `intersect`
        with the index read.  Pass `on` from one level to the next, as
        `covers`.

        Each parent with bits starts from the classes accepted so far that
        lie in it (a root of `relative_levels` has no bits and starts
        empty): those whose mask holds all of the parent's bits and,
        unless the parent is a hyperplane class, whose `label`
        under the parent's direction entry is the parent's own.  The start
        is exact.  A hyperplane class with bit i is a translate of the
        plane of hclasses[i], and a class with bit i has a translate inside
        it.  Any other parent's direction is its root's cut by the planes
        of its bits, so a class whose mask holds them all has its direction
        in the parent's, and it lies in a translate of the parent iff its
        point does, which `label`, the exact Gamma-orbit key of the point
        plus the parent's direction, decides.  Each class in the parent is
        a class of a pair (parent, j) for one of its planes j not through
        the parent, so the skip above stays exact.  At level m-2 the start
        of hclasses[i] holds every class of each pair (j, i) with j < i,
        all of which have bits i and j, and the pair (i, j) cuts
        translates of the same two planes, so it has the same classes and
        is not cut unless its plane has no index from minors: each
        unordered pair is classified once.  Below it, a class found on a
        parent through another pair needs no cut to be recorded there.  A
        pair not cut adds no class, so the accepted classes, their order
        and the first pair to trip the class cap or a rank deficiency are
        those of cutting every pair; only the order within a `covers` list
        may differ, and no answer reads that order."""
        accepted: list[SingularClass] = []
        seen: dict = {}  # (direction entry, label) -> class accepted for it
        known: dict = {}  # (direction entry, q, *X) of a point -> its class
        labels: dict = {}  # (direction entry, class id) -> label of the class's point

        def label_of(entry, cls):
            at = (entry, cls.id)
            if at not in labels:
                labels[at] = self.label(entry, cls.res)
            return labels[at]

        # the `pair_indices` row of each distinct parent direction entry
        indices = {e: self.pair_indices(stab, [hc.plane for hc in hclasses])
                   for e, stab in {p.entry: p.stabilizer for p in parents}.items()}
        on = {} if on is None else on
        for parent in parents:
            mask = on.get((parent.dim, parent.id), 0)
            # class id -> class, started from the classes in the parent
            below = {c.id: c for c in accepted if on[level, c.id] & mask == mask} if mask else {}
            if below and parent.dim < self.m - 1:
                own = self.label(parent.entry, parent.res)
                below = {i: c for i, c in below.items() if label_of(parent.entry, c) == own}
            for j, hc in enumerate(hclasses):
                bit = 1 << j
                if mask & bit:
                    continue  # the parent lies in a translate of the hyperplane
                index = indices[parent.entry][j]
                if index and index == sum(on[level, b] >> j & 1 for b in below):
                    continue  # every class of the pair is below already: no cut
                cut = self.intersect(parent.entry, parent.res, hc.plane, index)
                if cut is None:
                    continue  # the parent's direction lies in the hyperplane
                sub, points, _ = self.classify_pair(parent, hc, level, cut)
                for res in points:
                    (xs,), q = res
                    cls = known.get(at := (sub, q, *xs))
                    if cls is None:  # a new point: label it
                        cls = known[at] = seen.get(key := (sub, self.label(sub, res)))
                    if cls is None:
                        cls = known[at] = seen[key] = SingularClass(
                            len(accepted), level, self.stabilizer(sub), sub, res)
                        accepted.append(cls)
                        if len(accepted) > self.max_classes:
                            raise ResourceCapExceeded(
                                f"level {level}, pair (parent {parent.id}, hyperplane class "
                                f"{hc.id}): {len(accepted)} classes at the level, more "
                                f"than the cap of {self.max_classes}")
                    below[cls.id] = cls
                    on[level, cls.id] = on.get((level, cls.id), 0) | mask | bit
            if covers is not None:
                covers[(parent.dim, parent.id)] = list(below.values())
        return accepted

    def hyperplane_classes(self) -> list[SingularClass]:
        """Gamma-orbit classes of the translated input planes (level m-1), each
        read off its plane's table in `data.tables`, in plane order.

        A plane's record is canonical, nu_k = 1 at its lead coordinate k, so
        its form is den I on the lead block, and each other coordinate c
        gives the row den e_c - sum_l form[l][c] e_(delta k + l) of the
        form's kernel, the plane's direction: its key is their
        `primitive_rref`.  The direction's entry takes the form as its rows
        R, which span the direction's annihilator, and the table's echelon
        and stabilizer as its frame, since R res(g_i) are the plane's dots.
        The point is the offset over nu_k on the lead block, and a plane is
        a translate of an earlier one iff they share the entry and the
        `label` of their points.  Each class is the one class of the whole
        space cut by its plane (index 1, one coset rep, the cut point on the
        lead coordinate); a class keeps the table of its first plane."""
        level, d = self.m - 1, self.delta
        accepted: list[SingularClass] = []
        seen: set = set()  # (direction entry, label) of each accepted class
        for i, table in enumerate(self.data.tables):
            lead = next(c for c, x in enumerate(table.form[0]) if x)
            kernel = []
            for c in range(self.dm):
                if not lead <= c < lead + d:
                    row = [table.den * (j == c) for j in range(self.dm)]
                    row[lead:lead + d] = [-f[c] for f in table.form]
                    kernel.append(row)
            key = primitive_rref(kernel)
            entry = self._dirs.get(key)
            if entry is None:
                cols, q = _key_columns(key)
                entry = self._dirs[key] = _Direction([*cols.values()], q, table.form,
                                                     table.echelon, table.stab)
            xs = [0] * self.dm
            xs[lead:lead + d] = table.off
            res = ([xs], table.oden)
            at = (entry, self.label(entry, res))
            if at in seen:
                continue  # a translate of an earlier plane
            seen.add(at)
            accepted.append(SingularClass(len(accepted), level, entry.stab, entry, res, table))
            if len(accepted) > self.max_classes:
                raise ResourceCapExceeded(
                    f"level {level}, pair (the whole space, input plane {i}): "
                    f"{len(accepted)} classes at the level, more than the cap of "
                    f"{self.max_classes}")
        return accepted

    def enumerate_arrangement(self) -> Arrangement:
        """All global orbit classes, level m-1 down to 0, and the classes
        one level below each class above level 0 (from `build_level`).

        Raises InfiniteArrangement on the first rank-deficient
        classification subgroup, which forces infinitely many classes."""
        top = self.hyperplane_classes()
        arr = Arrangement(self.data, {self.m - 1: top})
        on = {(self.m - 1, k): 1 << k for k in range(len(top))}
        for level in range(self.m - 2, -1, -1):
            arr.levels[level] = self.build_level(arr.levels[level + 1], top, level=level,
                                                 covers=arr.covers, on=on)
        return arr

    def relative_levels(self, alpha: SingularClass, hclasses) -> dict[int, list[SingularClass]]:
        """Orbit classes of singular spaces inside the representative space
        of the class alpha, under Stab(alpha): all levels below alpha.dim,
        enumerated with alpha itself as the root.  A Gamma-translate that
        keeps a subspace of alpha inside alpha lies in Gamma cap span(alpha)
        = Stab(alpha), so these are the Gamma-orbit classes inside alpha,
        and the enumeration runs under Gamma."""
        out: dict[int, list[SingularClass]] = {}
        prev, on = [alpha], {}
        for level in range(alpha.dim - 1, -1, -1):
            prev = out[level] = self.build_level(prev, hclasses, level=level, on=on)
        return out
