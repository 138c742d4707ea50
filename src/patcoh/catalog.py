"""Built-in data sets: icosahedral tilings, the Fibonacci chain, and the
validation fixtures.  Golden expectations are attached where known."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .field import FElem, dot, quadratic
from .model import (Hyperplane, PlaneRecord, ProjectionData, from_field, gen_ints_of,
                    hyperplane_of, record_of)

F5 = quadratic(5)
TAU = F5.elem("1/2", "1/2")       # golden ratio (1+sqrt5)/2
SIGMA = TAU.conj()                # (1-sqrt5)/2


class CatalogEntry(NamedTuple):
    name: str
    description: str
    data: ProjectionData
    expected: dict


def icosahedral_star() -> tuple[tuple[FElem, ...], ...]:
    """Internal-space images w_1..w_6 of the standard basis of Z^6 under the
    icosahedral projection; Galois conjugation gives the physical star."""
    one, zero = F5.one, F5.zero
    s = SIGMA
    return (
        (one, s, zero),
        (-one, s, zero),
        (zero, one, s),
        (zero, -one, s),
        (s, zero, one),
        (-s, zero, one),
    )


def _lines(vectors) -> list[PlaneRecord]:
    """Distinct lines through the origin, as the records of the planes
    through 0 normal to them, in order of each line's first vector."""
    return list(dict.fromkeys(record_of(Hyperplane(tuple(v), F5.zero)) for v in vectors))


def axis_planes(kind: str) -> list[PlaneRecord]:
    """Records of the lattice planes perpendicular to the icosahedral
    2-fold, 3-fold, or 5-fold axes, one per axis line.

    The physical star v_i = conj(w_i) holds one of each antipodal pair of
    icosahedron vertices, and a vertex pairs to tau = |v|^2 / sqrt5 with its
    five neighbours, so s_ij v_j neighbours v_i for s_ij the sign of <v_i,
    v_j>.  Up to -1, which keeps the axis, a face has +v_i first: for
    i < j < k, v_i, s_ij v_j, s_ik v_k is a face iff s_ij s_ik s_jk = +1,
    and its 3-fold axis is conj(w_i + s_ij w_j + s_ik w_k)."""
    w = icosahedral_star()
    if kind == "five_fold":
        return _lines(w)
    if kind == "two_fold":
        vecs = []
        for i, j in itertools.combinations(range(6), 2):
            vecs.append(tuple(a + b for a, b in zip(w[i], w[j])))
            vecs.append(tuple(a - b for a, b in zip(w[i], w[j])))
        return _lines(vecs)
    if kind == "three_fold":
        v = [tuple(x.conj() for x in wi) for wi in w]  # physical star
        s = {(i, j): 1 if dot(v[i], v[j]) == TAU else -1
             for i, j in itertools.combinations(range(6), 2)}
        return _lines(
            [a + (b if s[i, j] > 0 else -b) + (c if s[i, k] > 0 else -c)
             for a, b, c in zip(w[i], w[j], w[k])]
            for i, j, k in itertools.combinations(range(6), 3)
            if s[i, j] * s[i, k] * s[j, k] > 0)
    raise ValueError(f"unknown axis kind {kind!r}")


def axis_normals(kind: str) -> list[tuple[FElem, ...]]:
    """The canonical normals of `axis_planes(kind)` as field vectors: with
    `icosahedral_star` and `from_field`, they build further icosahedral
    inputs."""
    return [hyperplane_of(rec, F5).normal for rec in axis_planes(kind)]


def _planes(normals) -> tuple[Hyperplane, ...]:
    """Planes through the origin with the given normals."""
    return tuple(Hyperplane(tuple(nrm), F5.zero) for nrm in normals)


def _d6_generators() -> tuple[tuple[FElem, ...], ...]:
    """Images of the D6 root basis e1-e2, ..., e5-e6, e5+e6."""
    w = icosahedral_star()

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    return (sub(w[0], w[1]), sub(w[1], w[2]), sub(w[2], w[3]),
            sub(w[3], w[4]), sub(w[4], w[5]), add(w[4], w[5]))


def _entries() -> dict[str, CatalogEntry]:
    out: dict[str, CatalogEntry] = {}

    fib = from_field(
        F5, 1, ((F5.one,), (TAU,)),
        (Hyperplane((F5.one,), F5.zero),),
        "fibonacci")
    out["fibonacci"] = CatalogEntry(
        "fibonacci", "Fibonacci chain: Z + tau*Z in a one-dimensional internal space",
        fib, {"H": [1, 2], "L": [1], "e": 1, "K": (2, 1)})

    # each generator set is cleared once and each axis plane canonicalized
    # once, and the entries share them
    star, d6 = gen_ints_of(icosahedral_star()), gen_ints_of(_d6_generators())
    two, three, five = (tuple(axis_planes(kind))
                        for kind in ("two_fold", "three_fold", "five_fold"))

    out["ammann_kramer"] = CatalogEntry(
        "ammann_kramer",
        "canonical projection of Z^6; singular planes normal to the 2-fold axes",
        ProjectionData(F5, 3, star, two, "ammann_kramer"),
        {"H": [1, 12, 71, 180], "L": [32, 46, 15], "e": 120,
         "tilde_L1": 74, "R": [69, 9], "K": (192, 72)})

    out["canonical_d6"] = CatalogEntry(
        "canonical_d6",
        "canonical D6 tiling; singular planes normal to the 3- and 5-fold axes",
        ProjectionData(F5, 3, d6, three + five, "canonical_d6"),
        {"H": [1, 13, 72, 205], "L": [56, 45, 16], "e": 145,
         "tilde_L1": 75, "R": [73, 9]})

    out["dual_canonical_d6"] = CatalogEntry(
        "dual_canonical_d6",
        "dual canonical D6 tiling; singular planes normal to the 2-fold axes",
        ProjectionData(F5, 3, d6, two, "dual_canonical_d6"),
        {"H": [1, 12, 101, 330], "L": [64, 76, 15], "e": 240,
         "tilde_L1": 104, "R": [69, 9]})

    out["danzer"] = CatalogEntry(
        "danzer",
        "Danzer tiling; singular planes normal to the 5-fold axes only",
        ProjectionData(F5, 3, d6, five, "danzer"),
        {"H": [1, 7, 16, 20], "L": [1, 15, 6], "e": 10,
         "tilde_L1": 15, "R": [33, 5]})

    one, zero = F5.one, F5.zero
    out["infinite_demo"] = CatalogEntry(
        "infinite_demo",
        "rank-3 lattice in two dimensions: nu = 3/2, so L_0 is infinite",
        from_field(
            F5, 2,
            ((one, zero), (zero, one), (TAU, TAU)),
            _planes([(one, zero), (zero, one), (one, one)]),
            "infinite_demo"),
        {"status": "infinite"})

    out["square_fibonacci"] = CatalogEntry(
        "square_fibonacci",
        "decomposable fixture: two uncoupled Fibonacci factors (must fail validation)",
        from_field(
            F5, 2,
            ((one, zero), (TAU, zero), (zero, one), (zero, TAU)),
            _planes([(one, zero), (zero, one)]),
            "square_fibonacci"),
        {"status": "validation_error"})

    return out


_CATALOG = None

NAMES = ("fibonacci", "ammann_kramer", "canonical_d6", "dual_canonical_d6", "danzer",
         "infinite_demo", "square_fibonacci")


def names() -> list[str]:
    """The entries' names in catalog order, without building any entry."""
    return list(NAMES)


def catalog() -> dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return _CATALOG


def build(name: str) -> CatalogEntry:
    try:
        return catalog()[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(names())}")
