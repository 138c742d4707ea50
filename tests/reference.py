"""Slower references that the engine's results are checked against."""

from patcoh.linalg import int_det, integer_kernel


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
    rows = eng._direction(direction).rows
    return not any(sum(p * c for p, c in zip(row, col) if p)
                   for col in eng._direction(sub_dir).cols for row in rows)


def label_incidence(eng, arrangement):
    """The incidence poset by scanning label pairs: beta < alpha iff
    dir(beta) lies in dir(alpha) and p_beta has the label of p_alpha in
    dir(alpha) under the full lattice, i.e. some Gamma-translate of beta
    lies in alpha.  Maps (level, id) of every class to the classes below
    it, as `invariants.incidence` does."""
    full = eng.full
    by_dir = {level: {} for level in arrangement.levels}
    for level, classes in arrangement.levels.items():
        for cls in classes:
            by_dir[level].setdefault(cls.direction, []).append(cls)
    below = {}
    for level in sorted(arrangement.levels):
        for direction, alphas in by_dir[level].items():
            labels = {}
            for alpha in alphas:
                below[(level, alpha.id)] = []
                labels[eng.label(direction, alpha.point, full)] = alpha
            for sub_level in range(level):
                for sub_dir, betas in by_dir[sub_level].items():
                    if not contains(eng, direction, sub_dir):
                        continue  # dir(beta) does not lie in dir(alpha)
                    for beta in betas:
                        alpha = labels.get(eng.label(direction, beta.point, full))
                        if alpha is not None:
                            below[(level, alpha.id)].append(beta)
    return below


def shift_subgroup(eng, cut, group):
    """A pair's classification subgroup from the shifts of its cut: moving
    the plane by gamma(y) moves the cut point's R-image by sum y_i ds_i /
    (lcd q), ds_i = rw cs_i, so H is the kernel of the ds_i modulo lcd q E,
    E the echelon rows of the sub-direction's frame under `group`."""
    echelon, _ = eng._frame(cut.sub, group)
    ds = [[sum(r * c for r, c in zip(rwk, cs)) for rwk in cut.rw] for cs in cut.cs]
    modulus = [(p, [cut.lcd * cut.q * x for x in row]) for p, row in echelon]
    return integer_kernel(ds, len(cut.rw), modulus)[1]
