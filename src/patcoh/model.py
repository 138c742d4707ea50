"""Projection data (V, Gamma, W): input schema, canonicalization, validation.

A data set is a coordinate field Q(sqrt(D)), the dimension m of the
internal space V, n generators of the dense lattice Gamma (as field
vectors), and a finite family of affine hyperplanes whose Gamma-translates
form the singular set.  Parsing canonicalizes each plane on integer
numerators (`canonical_hyperplane`), taking no field product or inverse.
A data set derives its integer form once, on first use: the cleared
generators (`gen_ints`) and one `PlaneTable` per input plane (`tables`),
which validation and the engine both read.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .field import FElem, FieldSpec, res_adjugate, res_mul, restrict_scalars, theta_powers
from .linalg import clear_denominators, hnf, minor_gcd, primitive_rref, rat_rank

MAX_PLANES = 32

SCHEMA = "patcoh/1"


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {v in V : <normal, v> = offset}."""

    normal: tuple[FElem, ...]
    offset: FElem


def canonical_hyperplane(h: Hyperplane) -> Hyperplane:
    """Unique representative of the scalar class (normal, offset).

    Divides by the first nonzero coordinate of the normal, which puts a 1
    in the earliest possible rational slot of the restricted normal.
    Idempotent.  Works on integer numerators: with (normal, offset)
    cleared together, each coordinate c over the lead is res_mul(c, adj) /
    norm for the lead's (adj, norm) = `res_adjugate`, the common denominator
    cancelling, so no field product or inverse is taken.
    """
    fspec = h.offset.field
    d = fspec.degree
    (xs,), _ = clear_denominators([restrict_scalars((*h.normal, h.offset))])
    coords = [xs[i:i + d] for i in range(0, len(xs), d)]
    lead = next((c for c in coords[:-1] if any(c)), None)
    if lead is None:
        raise ValueError("hyperplane normal is zero")
    adj, norm = res_adjugate(lead, fspec)
    *normal, offset = (FElem(*(Fraction(x, norm) for x in res_mul(c, adj, fspec)), fspec)
                       for c in coords)
    return Hyperplane(tuple(normal), offset)


@dataclass(frozen=True)
class ProjectionData:
    field: FieldSpec
    m: int
    gens: tuple[tuple[FElem, ...], ...]
    planes: tuple[Hyperplane, ...]
    name: str

    @property
    def n(self) -> int:
        return len(self.gens)

    @property
    def d(self) -> int:
        return self.n - self.m

    @cached_property
    def gen_ints(self) -> tuple[list[list[int]], int]:
        """(G, q_G) with res(g_i) = G_i / q_G: the generators cleared once."""
        return clear_denominators([restrict_scalars(g) for g in self.gens])

    @cached_property
    def tables(self) -> tuple[PlaneTable, ...]:
        """Each input plane's `plane_table`, in plane order, built once."""
        return tuple(plane_table(h, self.gen_ints) for h in self.planes)


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    code: str
    message: str


@dataclass
class ValidationReport:
    findings: list[Finding] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.severity != "error" for f in self.findings)

    def add(self, severity: str, code: str, message: str) -> None:
        self.findings.append(Finding(severity, code, message))


# ---------------------------------------------------------------------------
# input schema

def _parse_rat(s) -> Fraction:
    if not isinstance(s, str):
        raise ParseError(f"rational must be a string 'p/q' or 'p', got {s!r}")
    try:
        if "e" in s or "E" in s:  # Fraction would build 10**exponent
            raise ValueError("no exponent allowed")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from exc


def _parse_felem(obj, fspec: FieldSpec) -> FElem:
    if isinstance(obj, str):
        obj = [obj]
    if not isinstance(obj, list) or not 1 <= len(obj) <= 2:
        raise ParseError(f"field element must be ['a'] or ['a','b'], got {obj!r}")
    a = _parse_rat(obj[0])
    b = _parse_rat(obj[1]) if len(obj) == 2 else Fraction(0)
    return FElem(a, b, fspec)


def vector_json(xs, d: int, q: int = 1) -> list[list[str]]:
    """The schema's form of the field vector with restricted coordinates
    xs / q: the d rational components of each coordinate."""
    return [[str(Fraction(x, q)) for x in xs[i:i + d]] for i in range(0, len(xs), d)]


def field_json(fspec: FieldSpec) -> dict:
    """The schema's form of the coordinate field."""
    return {"kind": "Qsqrt", "D": fspec.D}


def _parse_vector(obj, fspec: FieldSpec, m: int, what: str) -> tuple[FElem, ...]:
    if not isinstance(obj, list) or len(obj) != m:
        raise ParseError(f"{what} must have {m} coordinates, got {obj!r}")
    return tuple(_parse_felem(x, fspec) for x in obj)


def parse_projection_data(text: str) -> ProjectionData:
    """Parse and canonicalize the JSON input schema; does not validate.
    A `{"kind": "Q"}` field is refused here, with its reason (`FieldSpec`)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int too long
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("schema") != SCHEMA:
        raise ParseError(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    fobj = doc.get("field")
    if not isinstance(fobj, dict) or "kind" not in fobj:
        raise ParseError("field must be {'kind': 'Qsqrt', 'D': int}")
    d = fobj.get("D")
    if d is not None and (not isinstance(d, int) or isinstance(d, bool)):
        raise ParseError(f"field needs an integer D, got {d!r}")
    try:
        fspec = FieldSpec(fobj["kind"], d)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    m = doc.get("dim")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ParseError(f"dim must be a positive integer, got {m!r}")
    gens_obj = doc.get("generators")
    if not isinstance(gens_obj, list) or not gens_obj:
        raise ParseError("generators must be a nonempty list")
    gens = tuple(_parse_vector(g, fspec, m, "generator") for g in gens_obj)
    planes_obj = doc.get("hyperplanes")
    if not isinstance(planes_obj, list) or not planes_obj:
        raise ParseError("hyperplanes must be a nonempty list")
    planes = []
    for p in planes_obj:
        if not isinstance(p, dict) or "normal" not in p:
            raise ParseError(f"hyperplane must be an object with normal/offset, got {p!r}")
        normal = _parse_vector(p["normal"], fspec, m, "hyperplane normal")
        if not any(normal):
            raise ParseError("hyperplane normal is zero")
        offset = _parse_felem(p.get("offset", ["0"]), fspec)
        planes.append(canonical_hyperplane(Hyperplane(normal, offset)))
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    return ProjectionData(fspec, m, gens, tuple(planes), name)


def serialize_projection_data(data: ProjectionData) -> str:
    d = data.field.degree
    doc = {
        "schema": SCHEMA,
        "name": data.name,
        "field": field_json(data.field),
        "dim": data.m,
        "generators": [vector_json(restrict_scalars(g), d) for g in data.gens],
        "hyperplanes": [{"normal": vector_json(restrict_scalars(h.normal), d),
                         "offset": vector_json(restrict_scalars((h.offset,)), d)[0]}
                        for h in data.planes],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# validation

class PlaneTable(NamedTuple):
    """One input plane <nu, x> = offset in integers, for generators given
    as gen_ints = (G, q_G), res(g_i) = G_i / q_G: den <nu, x> = form res(x);
    cols, the columns of the dots den <nu, g_i> (the map Z^n -> Z^delta
    whose kernel is the plane's stabilizer); g, the image's index in
    Z^delta (0 below rank delta); and res(offset) = off / oden."""

    den: int
    form: list[list[int]]
    cols: list[tuple[int, ...]]
    g: int
    off: list[int]
    oden: int


def plane_table(h: Hyperplane, gen_ints) -> PlaneTable:
    """The plane h's `PlaneTable`, read through `ProjectionData.tables`.
    With res(nu) = N / q_N, column (k, l) of the form is res(theta^l nu_k) =
    res_mul(theta^l, N_k) / q_N, so the form is built from N, over den =
    q_N q_G.  g is the `minor_gcd` of the dots' at most delta nonzero
    Hermite rows, not of all n dots: validation reads every input's
    tables, and n is not bounded before the generators' rank is checked."""
    fspec = h.offset.field
    d, powers = fspec.degree, theta_powers(fspec)
    (nu,), qn = clear_denominators([restrict_scalars(h.normal)])
    form = [*zip(*(res_mul(t, nu[c:c + d], fspec) for c in range(0, len(nu), d) for t in powers))]
    gens, qg = gen_ints
    dots = [[sum(map(operator.mul, f, g)) for f in form] for g in gens]
    (off,), oden = clear_denominators([restrict_scalars((h.offset,))])
    return PlaneTable(qn * qg, [[qg * x for x in f] for f in form], [*zip(*dots)],
                      minor_gcd(hnf(dots)[:d], d), off, oden)


def normal_supports(data: ProjectionData) -> list[set[int]]:
    """Supports of the rref rows u_j of the normals as field columns, one per
    rank.  Plane c's `form` in `data.tables` is res(theta^l nu_k) at column
    (k, l), times a positive integer, so the `primitive_rref` of the forms'
    columns is the key of the rows res(theta^l r_k) of the normals' rows
    r_k with each plane's block scaled, which moves no zero: its rows are
    res(theta^l u_j) in order, so u_j is nonzero at the blocks of row
    delta j."""
    d = data.field.degree
    key = primitive_rref([*zip(*(row for table in data.tables for row in table.form))])
    return [{c for c in range(len(data.planes)) if any(row[d * c:d * c + d])}
            for row in key[::d]]


def validate(data: ProjectionData) -> ValidationReport:
    """Structural checks: generator independence (the rank of `gen_ints`),
    spanning, indecomposability, divisibility of rank(Gamma) by dim V, and
    the partial density check, the rank of each plane's pairing with Gamma
    (the cols of its table in `tables`, the ones the engine reads)."""
    rep = ValidationReport()
    n, m = data.n, data.m
    if n <= m:
        rep.add("error", "rank", f"need rank Gamma = {n} > dim V = {m}")
    if rat_rank(data.gen_ints[0]) != n:
        rep.add("error", "gens_dependent",
                "generators are Q-linearly dependent: Gamma is not free of rank n")
    supports = normal_supports(data)
    if len(supports) != m:
        rep.add("error", "normals_span", "hyperplane normals do not span V")
    if len(data.planes) > MAX_PLANES:
        rep.add("error", "too_many_planes",
                f"at most {MAX_PLANES} hyperplanes supported, got {len(data.planes)}")
    elif rep.ok:
        # decomposability: a row's support is its pivot and each column whose
        # fundamental circuit holds it; the family splits into complementary
        # spans iff the supports fall into disjoint parts, each of rank its rows.
        parts: list[tuple[int, set[int]]] = []  # (rank, columns)
        for cols in supports:
            meet = [p for p in parts if p[1] & cols]
            parts = [p for p in parts if not p[1] & cols]
            parts.append((1 + sum(r for r, _ in meet), cols.union(*(c for _, c in meet))))
        if len(parts) > 1:
            low = min(r for r, _ in parts)
            rep.add("error", "decomposable",
                    f"normals split into complementary spans of dims {low}+{m - low}")
    if n % m != 0:
        rep.add("warning", "nu_not_integral",
                f"dim V = {m} does not divide rank Gamma = {n}: "
                f"nu = {n}/{m} is not a natural number, so L_0 must be infinite")
    # partial density check: each normal must pair with Gamma into a subgroup
    # of Q-rank > 1, otherwise the translated arrangement is not dense
    if rep.ok:
        for idx, table in enumerate(data.tables):
            if rat_rank(table.cols) <= 1:
                rep.add("error", "density",
                        f"hyperplane {idx}: <normal, Gamma> has Q-rank <= 1, "
                        "so Gamma-translates of this plane are not dense")
                break
    rep.add("warning", "density_assumed",
            "density of Gamma in V is assumed, not verified (partial check only)")
    return rep
