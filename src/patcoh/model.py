"""Projection data (V, Gamma, W): input schema, canonicalization, validation.

A data set is a coordinate field, the dimension m of the internal space V,
n generators of the dense lattice Gamma (as field vectors), and a finite
family of affine hyperplanes whose Gamma-translates form the singular set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .field import FElem, FieldSpec, QQ, dot, quadratic, restrict_scalars
from .linalg import rat_rank, rref

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
    Idempotent.
    """
    lead = next((x for x in h.normal if x), None)
    if lead is None:
        raise ValueError("hyperplane normal is zero")
    inv = lead.inverse()
    return Hyperplane(tuple(x * inv for x in h.normal), h.offset * inv)


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
    if fspec.degree == 1 and b != 0:
        raise ParseError(f"irrational component {obj!r} over the rationals")
    return FElem(a, b, fspec)


def felem_json(x: FElem) -> list[str]:
    """The schema's form of a field element: its rational components."""
    return [str(c) for c in restrict_scalars((x,))]


def field_json(fspec: FieldSpec) -> dict:
    """The schema's form of the coordinate field."""
    return {"kind": "Q"} if fspec.degree == 1 else {"kind": "Qsqrt", "D": fspec.D}


def _parse_vector(obj, fspec: FieldSpec, m: int, what: str) -> tuple[FElem, ...]:
    if not isinstance(obj, list) or len(obj) != m:
        raise ParseError(f"{what} must have {m} coordinates, got {obj!r}")
    return tuple(_parse_felem(x, fspec) for x in obj)


def parse_projection_data(text: str) -> ProjectionData:
    """Parse and canonicalize the JSON input schema; does not validate."""
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
        raise ParseError("field must be {'kind': 'Q'} or {'kind': 'Qsqrt', 'D': int}")
    if fobj["kind"] == "Q":
        fspec = QQ
    elif fobj["kind"] == "Qsqrt":
        d = fobj.get("D")
        if not isinstance(d, int) or isinstance(d, bool):
            raise ParseError("quadratic field needs an integer D")
        try:
            fspec = quadratic(d)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    else:
        raise ParseError(f"unknown field kind {fobj['kind']!r}")
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
    doc = {
        "schema": SCHEMA,
        "name": data.name,
        "field": field_json(data.field),
        "dim": data.m,
        "generators": [[felem_json(x) for x in g] for g in data.gens],
        "hyperplanes": [
            {"normal": [felem_json(x) for x in h.normal], "offset": felem_json(h.offset)}
            for h in data.planes
        ],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# validation

def validate(data: ProjectionData) -> ValidationReport:
    """Structural checks: generator independence, spanning, indecomposability,
    divisibility of rank(Gamma) by dim V, and the partial density check."""
    rep = ValidationReport()
    n, m = data.n, data.m
    if n <= m:
        rep.add("error", "rank", f"need rank Gamma = {n} > dim V = {m}")
    restricted = [restrict_scalars(g) for g in data.gens]
    if rat_rank(restricted) != n:
        rep.add("error", "gens_dependent",
                "generators are Q-linearly dependent: Gamma is not free of rank n")
    # the normals as the columns of an m x k matrix
    red = rref([[h.normal[i] for h in data.planes] for i in range(m)])
    if len(red) != m:
        rep.add("error", "normals_span", "hyperplane normals do not span V")
    if len(data.planes) > MAX_PLANES:
        rep.add("error", "too_many_planes",
                f"at most {MAX_PLANES} hyperplanes supported, got {len(data.planes)}")
    elif rep.ok:
        # decomposability: the pivot columns of `red` are a basis, and each
        # row's nonzero columns are its pivot plus every other column whose
        # fundamental circuit holds that pivot.  The family splits into
        # complementary spans iff this fundamental graph is disconnected
        # (for any basis), and a component's rank is its number of pivots;
        # so merge rows whose supports meet and count the pivots per part.
        parts: list[tuple[int, set[int]]] = []  # (rank, columns)
        for row in red:
            cols = {j for j, x in enumerate(row) if x}
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
        for idx, h in enumerate(data.planes):
            vals = [restrict_scalars([dot(h.normal, g)]) for g in data.gens]
            if rat_rank(vals) <= 1:
                rep.add("error", "density",
                        f"hyperplane {idx}: <normal, Gamma> has Q-rank <= 1, "
                        "so Gamma-translates of this plane are not dense")
                break
    rep.add("warning", "density_assumed",
            "density of Gamma in V is assumed, not verified (partial check only)")
    return rep
