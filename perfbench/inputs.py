"""Seeded input generators for the benchmark.

Every input is a `patcoh/1` JSON document, written to a file, so the program
under test only ever sees parsed user files.  Field arithmetic here is the
benchmark's own (pairs of Fractions for a + b*sqrt(D)), so the inputs do not
depend on the code being measured.

An input carries a `base` id.  All presentations of one base describe the same
pattern and must give the same answer; the answers of the bases are pinned in
`pinned.json` (see `pin.py`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

SCHEMA = "patcoh/1"

ICOSAHEDRAL = ("danzer", "ammann_kramer", "canonical_d6", "dual_canonical_d6")
VERDICT_ENTRIES = ("fibonacci", "square_fibonacci", "infinite_demo")
DENSE_POOL = 12          # random dense m = 2 geometries, ids dense-00 .. dense-11
CAP_KS = (50, 100)       # cap inputs: Ammann-Beenker plus a plane normal (1, k)
CAP_MAX_CLASSES = 10
PER_KIND = 2             # re-presentations per transform kind and base; the
                         # cost of one varies with its coefficients, so average


# -- Q(sqrt D) arithmetic: an element is a pair (a, b); D is None over Q -------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def fe(a, b=0) -> tuple[Fraction, Fraction]:
    return (Fraction(a), Fraction(b))


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(x, y, D):
    d = D or 0
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def inv(x, D):
    norm = x[0] * x[0] - x[1] * x[1] * (D or 0)
    return (x[0] / norm, -x[1] / norm)


def dot(u, v, D):
    acc = ZERO
    for x, y in zip(u, v):
        acc = add(acc, mul(x, y, D))
    return acc


def _elem_json(x, D) -> list[str]:
    return [str(x[0])] if D is None else [str(x[0]), str(x[1])]


@dataclass(frozen=True)
class Data:
    """Projection data in the benchmark's own representation."""

    name: str
    D: int | None
    m: int
    gens: tuple            # n vectors of m elements
    planes: tuple          # (normal, offset) pairs

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "name": self.name,
            "field": {"kind": "Q"} if self.D is None else {"kind": "Qsqrt", "D": self.D},
            "dim": self.m,
            "generators": [[_elem_json(x, self.D) for x in g] for g in self.gens],
            "hyperplanes": [
                {"normal": [_elem_json(x, self.D) for x in nrm],
                 "offset": _elem_json(off, self.D)}
                for nrm, off in self.planes
            ],
        }
        return json.dumps(doc, indent=1)


def from_catalog(entry_data) -> Data:
    """Convert a catalog `ProjectionData` through its public attributes."""
    D = None if entry_data.field.degree == 1 else entry_data.field.D

    def conv(x):
        return (Fraction(x.a), Fraction(x.b))

    gens = tuple(tuple(conv(x) for x in g) for g in entry_data.gens)
    planes = tuple((tuple(conv(x) for x in h.normal), conv(h.offset))
                   for h in entry_data.planes)
    return Data(entry_data.name, D, entry_data.m, gens, planes)


# -- fixtures generated here -----------------------------------------------------

def ammann_beenker(extra_normals=(), name="ammann_beenker") -> Data:
    """Z^4 -> R^2 over Q(sqrt 2): the eightfold star as generators, the four
    star lines as singular normals, plus any extra normals (through 0)."""
    h = fe(0, "1/2")
    star = ((ONE, ZERO), (h, h), (ZERO, ONE), (neg(h), h))
    planes = tuple((v, ZERO) for v in star + tuple(extra_normals))
    return Data(name, 2, 2, star, planes)


def _canonical_line(v, D):
    lead = next(x for x in v if x != ZERO)
    li = inv(lead, D)
    return tuple(mul(x, li, D) for x in v)


def dense_m2(index: int) -> Data:
    """Pool geometry `index`: Gamma = O_K^2 in its standard Z-basis over
    K = Q(sqrt D), D in {2, 3, 5}, with 3-5 pairwise distinct normal lines
    whose components are a + b*sqrt(D), a, b in {-1, 0, 1}."""
    rng = random.Random(f"dense_m2/{index}")
    D = rng.choice((2, 3, 5))
    omega = fe("1/2", "1/2") if D == 5 else fe(0, 1)
    gens = ((ONE, ZERO), (omega, ZERO), (ZERO, ONE), (ZERO, omega))
    count = rng.randint(3, 5)
    lines: list = []
    while len(lines) < count:
        v = tuple(fe(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(2))
        if all(x == ZERO for x in v) or _canonical_line(v, D) in lines:
            continue
        lines.append(_canonical_line(v, D))
    return Data(f"dense-{index:02d}", D, 2, gens, tuple((v, ZERO) for v in lines))


def cap_input(k: int) -> Data:
    return ammann_beenker([(ONE, fe(k))], name=f"cap-{k}")


# -- the four re-presentation kinds -------------------------------------------------

def _small_unit(D, rng):
    """A nonzero element with small components."""
    while True:
        x = fe(rng.randint(-2, 2), rng.randint(-1, 1) if D is not None else 0)
        if x != ZERO:
            return x


def unimodular_gens(data: Data, rng) -> Data:
    """Replace the generators by U * gens for a random U in GL_n(Z)."""
    n = len(data.gens)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    gens = tuple(
        tuple(dot([fe(x) for x in u[i]], [g[c] for g in data.gens], data.D)
              for c in range(data.m))
        for i in range(n))
    return Data(data.name, data.D, data.m, gens, data.planes)


def rescale_planes(data: Data, rng) -> Data:
    """Scale each plane equation by a nonzero field element."""
    out = []
    for nrm, off in data.planes:
        lam = _small_unit(data.D, rng)
        out.append((tuple(mul(lam, x, data.D) for x in nrm), mul(lam, off, data.D)))
    return Data(data.name, data.D, data.m, data.gens, tuple(out))


def permute_rescale_planes(data: Data, rng) -> Data:
    """Shuffle the planes and scale each equation by a nonzero field element."""
    planes = list(data.planes)
    rng.shuffle(planes)
    return rescale_planes(Data(data.name, data.D, data.m, data.gens, tuple(planes)), rng)


def _field_inverse(t, D):
    m = len(t)
    aug = [list(t[i]) + [ONE if i == j else ZERO for j in range(m)] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col] != ZERO)
        aug[col], aug[piv] = aug[piv], aug[col]
        s = inv(aug[col][col], D)
        aug[col] = [mul(s, x, D) for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != ZERO:
                f = aug[r][col]
                aug[r] = [add(x, neg(mul(f, y, D))) for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def coordinate_map(data: Data, rng) -> Data:
    """Apply an invertible map T of V (a permutation and one shear):
    generators g -> T g, normals n -> n T^-1, offsets unchanged."""
    m, D = data.m, data.D
    perm = list(range(m))
    rng.shuffle(perm)
    t = [[ONE if perm[i] == j else ZERO for j in range(m)] for i in range(m)]
    if m > 1:
        i, j = rng.sample(range(m), 2)
        choices = [ONE, neg(ONE)] + ([fe("1/2", "1/2"), fe("1/2", "-1/2")]
                                     if D == 5 else [fe(1, 1)] if D else [fe(2)])
        lam = rng.choice(choices)
        t[i] = [add(x, mul(lam, y, D)) for x, y in zip(t[i], t[j])]
    else:
        t[0] = [fe(2)]
    tinv = _field_inverse(t, D)
    gens = tuple(tuple(dot(row, g, D) for row in t) for g in data.gens)
    planes = tuple(
        (tuple(dot(nrm, [r[j] for r in tinv], D) for j in range(m)), off)
        for nrm, off in data.planes)
    return Data(data.name, D, m, gens, planes)


def redundant_plane(data: Data, rng) -> Data:
    """Append a Gamma-translate of an existing plane (same orbit class)."""
    nrm, off = rng.choice(data.planes)
    shift = ZERO
    for g in data.gens:
        y = rng.randint(-3, 3)
        if y:
            shift = add(shift, mul(fe(y), dot(nrm, g, data.D), data.D))
    return Data(data.name, data.D, data.m, data.gens,
                data.planes + ((nrm, add(off, shift)),))


TRANSFORMS = (unimodular_gens, permute_rescale_planes, coordinate_map, redundant_plane)


# -- workloads ---------------------------------------------------------------------

@dataclass(frozen=True)
class Input:
    id: str
    base: str                  # key into pinned.json
    text: str                  # the patcoh/1 file content
    max_classes: int | None = None
    same_as: str | None = None  # id of an input in the same pass it must match


def _catalog(name):
    from patcoh import catalog
    return from_catalog(catalog.build(name).data)


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The inputs of one pass, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    out: list[Input] = []
    if workload == "icosahedral":
        for name in ICOSAHEDRAL:
            out.append(Input(name, name, _catalog(name).to_json()))
        rng.shuffle(out)
    elif workload == "dense_m2":
        bases = [ammann_beenker()] + [dense_m2(i) for i in range(DENSE_POOL)]
        rng.shuffle(bases)
        for data in bases:
            shown = permute_rescale_planes(data, rng)
            out.append(Input(data.name, data.name, shown.to_json()))
    elif workload == "represent":
        for base in (_catalog("danzer"), ammann_beenker()):
            out.append(Input(base.name, base.name, base.to_json()))
            for transform in TRANSFORMS:
                for r in range(PER_KIND):
                    shown = transform(base, rng)
                    out.append(Input(f"{base.name}/{transform.__name__}-{r}", base.name,
                                     shown.to_json(), same_as=base.name))
    elif workload == "verdicts":
        # Ammann-Beenker is the finite m = 2 verdict; with it the relative
        # and wedge layers run here too, if only briefly
        for data in [_catalog(nm) for nm in VERDICT_ENTRIES] + [ammann_beenker()]:
            shown = rng.choice(TRANSFORMS)(data, rng)
            out.append(Input(data.name, data.name, shown.to_json()))
        for k in CAP_KS:
            # the plane order and the basis decide which pair overflows the
            # cap first and how costly its points are, so only rescale
            shown = rescale_planes(cap_input(k), rng)
            out.append(Input(f"cap-{k}", f"cap-{k}", shown.to_json(),
                             max_classes=CAP_MAX_CLASSES))
        rng.shuffle(out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def base_inputs() -> list[Input]:
    """Every base in its own presentation: what `pinned.json` records."""
    out = [Input(nm, nm, _catalog(nm).to_json()) for nm in ICOSAHEDRAL + VERDICT_ENTRIES]
    for data in [ammann_beenker()] + [dense_m2(i) for i in range(DENSE_POOL)]:
        out.append(Input(data.name, data.name, data.to_json()))
    for k in CAP_KS:
        out.append(Input(f"cap-{k}", f"cap-{k}", cap_input(k).to_json(),
                         max_classes=CAP_MAX_CLASSES))
    return out


WORKLOADS = ("icosahedral", "dense_m2", "represent", "verdicts")
