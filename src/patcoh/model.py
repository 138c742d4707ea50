"""Projection data (V, Gamma, W): input schema, canonicalization, validation.

A data set is a coordinate field Q(sqrt(D)), the dimension m of the
internal space V, n generators of the dense lattice Gamma, and a finite
family of affine hyperplanes whose Gamma-translates form the singular set.
It is held in integers only: the generators cleared once (`gen_ints`) and
one canonical `PlaneRecord` per plane.  Parsing reads each coordinate of
the file straight into integer numerators and canonicalizes each plane on
them (`_plane_record`), taking no field product or inverse and building
no field element; for data given as field vectors (the catalog's closed
forms) `gen_ints_of` and `record_of` do the same, and `from_field` calls
both.  `gens` and `planes` are read-only field views of that integer
form (`hyperplane_of` views a record).  A data set builds one `PlaneTable` per
plane from its record, on first use (`tables`), which the density check
and the engine both read.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .field import FElem, FieldSpec, res_adjugate, res_mul, restrict_scalars, theta_powers
from .linalg import IntLattice, integer_kernel, primitive_rref, rat_rank

MAX_PLANES = 32

SCHEMA = "patcoh/1"


class ParseError(ValueError):
    pass


class Hyperplane(NamedTuple):
    """Affine hyperplane {v in V : <normal, v> = offset}."""

    normal: tuple[FElem, ...]
    offset: FElem


class PlaneRecord(NamedTuple):
    """A plane <nu, x> = offset in canonical form, in integers: res(nu) =
    normal / den and res(offset) = offset / den, den > 0 and the entries
    in lowest terms together, with nu's first nonzero coordinate equal to
    1.  Two planes are the same iff their records are."""

    normal: tuple[int, ...]
    offset: tuple[int, ...]
    den: int


def _clear(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, q) with rows of rationals, given as (p, q) pairs, equal to N / q:
    N integral and q the least common denominator."""
    q = math.lcm(*[b for row in rows for _, b in row])
    return tuple(tuple([a * (q // b) for a, b in row]) for row in rows), q


def _plane_record(rats, fspec: FieldSpec) -> PlaneRecord:
    """The canonical record of the plane whose restricted normal and offset
    are the rationals `rats`, as (p, q) pairs, normal first.

    Divides by the first nonzero coordinate of the normal, which puts a 1
    in the earliest possible rational slot of the restricted normal.
    Works on integer numerators: with (normal, offset) cleared together,
    each coordinate c over the lead is res_mul(c, adj) / norm for the
    lead's (adj, norm) = `res_adjugate`, the common denominator cancelling,
    so no field product or inverse is taken."""
    d = fspec.degree
    (xs,), _ = _clear([rats])
    coords = [xs[i:i + d] for i in range(0, len(xs), d)]
    lead = next((c for c in coords[:-1] if any(c)), None)
    if lead is None:
        raise ValueError("hyperplane normal is zero")
    adj, norm = res_adjugate(lead, fspec)
    nums = [x for c in coords for x in res_mul(c, adj, fspec)]
    g = math.gcd(norm, *nums) * (1 if norm > 0 else -1)
    nums = [x // g for x in nums]
    return PlaneRecord(tuple(nums[:-d]), tuple(nums[-d:]), norm // g)


def _field_vector(xs, q: int, fspec: FieldSpec) -> tuple[FElem, ...]:
    """The field vector with restricted coordinates xs / q."""
    d = fspec.degree
    return tuple(FElem(*(Fraction(x, q) for x in xs[i:i + d]), fspec)
                 for i in range(0, len(xs), d))


def _rats(v) -> list[tuple[int, int]]:
    """The restricted coordinates of a field vector as (p, q) pairs."""
    return [x.as_integer_ratio() for x in restrict_scalars(v)]


def record_of(h: Hyperplane) -> PlaneRecord:
    """The canonical `PlaneRecord` of a plane given as field values."""
    return _plane_record(_rats((*h.normal, h.offset)), h.offset.field)


def hyperplane_of(rec: PlaneRecord, fspec: FieldSpec) -> Hyperplane:
    """The canonical Hyperplane of a record, in field values."""
    return Hyperplane(_field_vector(rec.normal, rec.den, fspec),
                      _field_vector(rec.offset, rec.den, fspec)[0])


def canonical_hyperplane(h: Hyperplane) -> Hyperplane:
    """Unique representative of the scalar class (normal, offset): the
    Hyperplane of its `PlaneRecord`.  Idempotent."""
    return hyperplane_of(record_of(h), h.offset.field)


def gen_ints_of(gens) -> tuple[tuple[tuple[int, ...], ...], int]:
    """`ProjectionData.gen_ints` of generators given as field vectors."""
    return _clear([_rats(g) for g in gens])


class ProjectionData:
    """An input in integers: gen_ints = (G, q_G), res(g_i) = G_i / q_G with
    q_G the least common denominator, and one `PlaneRecord` per plane.
    Two data sets are equal, and hash alike, when their field, m,
    gen_ints, records and name are."""

    def __init__(self, field: FieldSpec, m: int,
                 gen_ints: tuple[tuple[tuple[int, ...], ...], int],
                 records: tuple[PlaneRecord, ...], name: str) -> None:
        self.field, self.m, self.gen_ints, self.records, self.name = (
            field, m, gen_ints, records, name)

    def _key(self) -> tuple:
        return self.field, self.m, self.gen_ints, self.records, self.name

    def __eq__(self, other) -> bool:
        if other.__class__ is not ProjectionData:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def n(self) -> int:
        return len(self.gen_ints[0])

    @property
    def d(self) -> int:
        return self.n - self.m

    @cached_property
    def gens(self) -> tuple[tuple[FElem, ...], ...]:
        """The generators as field vectors, a read-only view of `gen_ints`."""
        gens, q = self.gen_ints
        return tuple(_field_vector(g, q, self.field) for g in gens)

    @cached_property
    def planes(self) -> tuple[Hyperplane, ...]:
        """The canonical planes as field values, a read-only view of `records`."""
        return tuple(hyperplane_of(rec, self.field) for rec in self.records)

    @cached_property
    def tables(self) -> tuple[PlaneTable, ...]:
        """Each plane's `plane_table`, in plane order, built once."""
        return tuple(plane_table(rec, self.gen_ints, self.field) for rec in self.records)


def from_field(fspec: FieldSpec, m: int, gens, planes, name: str) -> ProjectionData:
    """The data of generators and `Hyperplane`s given as field vectors:
    the generators cleared (`gen_ints_of`) and each plane canonicalized
    into its record (`record_of`), by the integer route of
    `parse_projection_data`."""
    return ProjectionData(fspec, m, gen_ints_of(gens), tuple(map(record_of, planes)), name)


class Finding(NamedTuple):
    """One finding of `validate`; a report lists its fields in this order."""

    severity: str  # "error" | "warning"
    code: str
    message: str


class ValidationReport:
    """The findings of `validate`, in the order found."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    @property
    def ok(self) -> bool:
        return all(f.severity != "error" for f in self.findings)

    def add(self, severity: str, code: str, message: str) -> None:
        self.findings.append(Finding(severity, code, message))


# ---------------------------------------------------------------------------
# input schema

def _parse_rat(s) -> tuple[int, int]:
    """(p, q) of the rational string 'p/q' or 'p', in lowest terms, q > 0.
    ASCII digits, with at most a leading minus and q != 0, are read with
    `int`; every other string takes `Fraction`'s route, so the strings
    accepted, their values and the messages are Fraction's."""
    if isinstance(s, str) and s.isascii():
        num, slash, den = s.partition("/")
        sign = -1 if num[:1] == "-" else 1
        digits = num[1:] if sign < 0 else num
        if digits.isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(digits), int(den) if slash else 1
            except ValueError:  # past int's digit limit: Fraction says so
                q = 0
            if q:
                g = math.gcd(p, q)
                return sign * (p // g), q // g
    if not isinstance(s, str):
        raise ParseError(f"rational must be a string 'p/q' or 'p', got {s!r}")
    try:
        if "e" in s or "E" in s:  # Fraction would build 10**exponent
            raise ValueError("no exponent allowed")
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from exc
    return x.numerator, x.denominator


def _parse_felem(obj) -> tuple[tuple[int, int], tuple[int, int]]:
    """The restricted coordinates (a, b) of a + b sqrt(D), as (p, q) pairs."""
    if isinstance(obj, str):
        obj = [obj]
    if not isinstance(obj, list) or not 1 <= len(obj) <= 2:
        raise ParseError(f"field element must be ['a'] or ['a','b'], got {obj!r}")
    return _parse_rat(obj[0]), _parse_rat(obj[1]) if len(obj) == 2 else (0, 1)


def vector_json(xs, d: int, q: int = 1) -> list[list[str]]:
    """The schema's form of the field vector with restricted coordinates
    xs / q: the d rational components of each coordinate."""
    return [[str(Fraction(x, q)) for x in xs[i:i + d]] for i in range(0, len(xs), d)]


def field_json(fspec: FieldSpec) -> dict:
    """The schema's form of the coordinate field."""
    return {"kind": "Qsqrt", "D": fspec.D}


def _parse_vector(obj, m: int, what: str) -> list[tuple[int, int]]:
    """The restricted coordinates of a field vector, as (p, q) pairs."""
    if not isinstance(obj, list) or len(obj) != m:
        raise ParseError(f"{what} must have {m} coordinates, got {obj!r}")
    return [r for x in obj for r in _parse_felem(x)]


def parse_projection_data(text: str) -> ProjectionData:
    """Parse and canonicalize the JSON input schema; does not validate.
    A `{"kind": "Q"}` field is refused here, with its reason."""
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
    if fobj["kind"] == "Q":
        raise ParseError("the rational field is refused: Gamma needs n > m generators "
                         "independent over Q, and n > m vectors of Q^m never are")
    if fobj["kind"] != "Qsqrt":
        raise ParseError(f"unknown field kind {fobj['kind']!r}")
    try:
        fspec = FieldSpec(d)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    m = doc.get("dim")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ParseError(f"dim must be a positive integer, got {m!r}")
    gens_obj = doc.get("generators")
    if not isinstance(gens_obj, list) or not gens_obj:
        raise ParseError("generators must be a nonempty list")
    gens = _clear([_parse_vector(g, m, "generator") for g in gens_obj])
    planes_obj = doc.get("hyperplanes")
    if not isinstance(planes_obj, list) or not planes_obj:
        raise ParseError("hyperplanes must be a nonempty list")
    records = []
    for p in planes_obj:
        if not isinstance(p, dict) or "normal" not in p:
            raise ParseError(f"hyperplane must be an object with normal/offset, got {p!r}")
        normal = _parse_vector(p["normal"], m, "hyperplane normal")
        if not any(a for a, _ in normal):
            raise ParseError("hyperplane normal is zero")
        records.append(_plane_record([*normal, *_parse_felem(p.get("offset", ["0"]))], fspec))
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    return ProjectionData(fspec, m, gens, tuple(records), name)


def serialize_projection_data(data: ProjectionData) -> str:
    d = data.field.degree
    gens, q = data.gen_ints
    doc = {
        "schema": SCHEMA,
        "name": data.name,
        "field": field_json(data.field),
        "dim": data.m,
        "generators": [vector_json(g, d, q) for g in gens],
        "hyperplanes": [{"normal": vector_json(rec.normal, d, rec.den),
                         "offset": vector_json(rec.offset, d, rec.den)[0]}
                        for rec in data.records],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# validation

class PlaneTable(NamedTuple):
    """One input plane <nu, x> = offset in integers, for generators given
    as gen_ints = (G, q_G), res(g_i) = G_i / q_G: den <nu, x> = form res(x);
    cols, the columns of the dots den <nu, g_i> (the map Z^n -> Z^delta
    whose kernel is the plane's stabilizer); g, the image's index in
    Z^delta (0 below rank delta); res(offset) = off / oden; and the
    Hermite echelon rows (pivot, row) of the dots and their kernel, which
    are the frame of the plane's direction with the form as its rows (see
    `orbits.Engine.hyperplane_classes`) and the plane's stabilizer."""

    den: int
    form: list[list[int]]
    cols: list[tuple[int, ...]]
    g: int
    off: list[int]
    oden: int
    echelon: list
    stab: IntLattice


def _form(nu, fspec: FieldSpec) -> list[tuple[int, ...]]:
    """The delta rows of the restricted map res(x) -> res(<nu, x>), times
    q, for numerators nu = q res(nu): column (k, l) is res(theta^l nu_k)."""
    d, powers = fspec.degree, theta_powers(fspec)
    return [*zip(*(res_mul(t, nu[c:c + d], fspec) for c in range(0, len(nu), d) for t in powers))]


def plane_table(rec: PlaneRecord, gen_ints, fspec: FieldSpec) -> PlaneTable:
    """The `PlaneTable` of a plane's record, read through
    `ProjectionData.tables`.  With res(nu) = N / q_N in lowest terms, the
    form is `_form(N)` over den = q_N q_G.  One `integer_kernel` of the
    dots gives their echelon, whose delta pivots multiply to g (the index
    of the image in Z^delta), and the plane's stabilizer."""
    d = fspec.degree
    g = math.gcd(rec.den, *rec.normal)
    form = _form([x // g for x in rec.normal], fspec)
    gens, qg = gen_ints
    dots = [[sum(map(operator.mul, f, x)) for f in form] for x in gens]
    echelon, stab = integer_kernel(dots, d)
    o = math.gcd(rec.den, *rec.offset)
    return PlaneTable(rec.den // g * qg, [[qg * x for x in f] for f in form], [*zip(*dots)],
                      math.prod(row[p] for p, row in echelon) if len(echelon) == d else 0,
                      [x // o for x in rec.offset], rec.den // o, echelon, stab)


def normal_supports(data: ProjectionData) -> list[set[int]]:
    """Supports of the rref rows u_j of the normals as field columns, one per
    rank, read off the records, with no generator.  Plane c's `_form` is
    res(theta^l nu_k) at column (k, l), times a positive integer, so the
    `primitive_rref` of the forms' columns is the key of the rows
    res(theta^l r_k) of the normals' rows r_k with each plane's block
    scaled, which moves no zero: its rows are res(theta^l u_j) in order,
    so u_j is nonzero at the blocks of row delta j."""
    d = data.field.degree
    key = primitive_rref([*zip(*(row for rec in data.records
                                 for row in _form(rec.normal, data.field)))])
    return [{c for c in range(len(data.records)) if any(row[d * c:d * c + d])}
            for row in key[::d]]


def validate(data: ProjectionData) -> ValidationReport:
    """Structural checks: generator independence (the rank of `gen_ints`),
    spanning, indecomposability (the normals' supports, off the records),
    divisibility of rank(Gamma) by dim V, and, once every other check has
    passed, the partial density check: the rank of each plane's pairing
    with Gamma, the echelon of its table in `tables`, which the engine
    reads too."""
    rep = ValidationReport()
    n, m = data.n, data.m
    if n <= m:
        rep.add("error", "rank", f"need rank Gamma = {n} > dim V = {m}")
    # n > delta m generators of a space of Q-dimension delta m are dependent
    # with no rank taken
    if n > data.field.degree * m or rat_rank(data.gen_ints[0]) != n:
        rep.add("error", "gens_dependent",
                "generators are Q-linearly dependent: Gamma is not free of rank n")
    supports = normal_supports(data)
    if len(supports) != m:
        rep.add("error", "normals_span", "hyperplane normals do not span V")
    if len(data.records) > MAX_PLANES:
        rep.add("error", "too_many_planes",
                f"at most {MAX_PLANES} hyperplanes supported, got {len(data.records)}")
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
            if len(table.echelon) <= 1:
                rep.add("error", "density",
                        f"hyperplane {idx}: <normal, Gamma> has Q-rank <= 1, "
                        "so Gamma-translates of this plane are not dense")
                break
    rep.add("warning", "density_assumed",
            "density of Gamma in V is assumed, not verified (partial check only)")
    return rep
