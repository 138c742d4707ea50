import itertools
import json
import random
from fractions import Fraction

import pytest

import patcoh.model
from patcoh.catalog import build, names
from patcoh.field import quadratic
from patcoh.linalg import rref
from patcoh.model import (
    Finding,
    Hyperplane,
    ParseError,
    ProjectionData,
    canonical_hyperplane,
    normal_supports,
    parse_projection_data,
    serialize_projection_data,
    validate,
)
from reference import field_canonical_hyperplane, field_normal_supports

F5 = quadratic(5)
TAU = F5.elem("1/2", "1/2")


def minimal_doc(**overrides):
    doc = {
        "schema": "patcoh/1",
        "name": "t",
        "field": {"kind": "Qsqrt", "D": 5},
        "dim": 1,
        "generators": [[["1"]], [["1/2", "1/2"]]],
        "hyperplanes": [{"normal": [["1"]], "offset": ["0"]}],
    }
    doc.update(overrides)
    return doc


def test_parse_minimal():
    data = parse_projection_data(json.dumps(minimal_doc()))
    assert data.m == 1 and data.n == 2 and data.d == 1
    assert data.gens[1][0] == TAU
    assert data.planes[0].offset == F5.zero


def test_parse_bare_string_element():
    doc = minimal_doc(generators=[["1"], ["1/2", "1/2"]])
    # a generator in 1-dim space may list coordinates as bare strings
    with pytest.raises(ParseError):
        parse_projection_data(json.dumps(doc))  # "1/2","1/2" is a 2-vector here
    doc = minimal_doc(generators=[[["1"]], [["1/2", "1/2"]]])
    assert parse_projection_data(json.dumps(doc)).n == 2


@pytest.mark.parametrize("mangle, match", [
    ({"schema": "nope"}, "schema"),
    ({"field": {"kind": "Qsqrt", "D": 12}}, "squarefree"),
    ({"field": {"kind": "R"}}, "field"),
    ({"dim": 0}, "dim"),
    ({"generators": []}, "generators"),
    ({"generators": [[["1"], ["0"]]]}, "coordinates"),
    ({"generators": [[["1", "0", "0"]]]}, "field element"),
    ({"hyperplanes": []}, "hyperplanes"),
    ({"hyperplanes": [{"normal": [["0"]]}]}, "zero"),
    ({"name": 3}, "name"),
    ({"dim": True}, "dim"),  # a JSON boolean is not an integer
    ({"field": {"kind": "Qsqrt", "D": True}}, "integer D"),
    # an exponent is refused, however small: Fraction would build 10**e
    ({"hyperplanes": [{"normal": [["1"]], "offset": ["1e-3"]}]}, "bad rational"),
    ({"generators": [[["5E2"]], [["1/2", "1/2"]]]}, "bad rational"),
    # the field rules are FieldSpec's: Q is refused, and D has a bound
    ({"field": {"kind": "Q", "D": 5}}, "rational field is refused"),
    ({"field": {"kind": "Qsqrt", "D": 1000000000000000003}}, r"at most 2\*\*31"),
    ({"field": {"kind": "Q"}}, "rational field is refused"),
])
def test_parse_errors_are_distinct(mangle, match):
    with pytest.raises(ParseError, match=match):
        parse_projection_data(json.dumps(minimal_doc(**mangle)))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError, match="JSON"):
        parse_projection_data("{not json")


def test_irrational_component_over_q():
    # refused with the field, before any element is read
    doc = minimal_doc(field={"kind": "Q"}, generators=[[["1"]], [["1/2", "1/2"]]])
    with pytest.raises(ParseError, match="rational field is refused"):
        parse_projection_data(json.dumps(doc))


def test_canonical_hyperplane():
    h = Hyperplane((F5.zero, TAU + TAU), TAU)
    c = canonical_hyperplane(h)
    assert c.normal == (F5.zero, F5.one)
    assert c.offset == F5.elem("1/2")
    assert canonical_hyperplane(c) == c
    with pytest.raises(ValueError):
        canonical_hyperplane(Hyperplane((F5.zero,), F5.one))


def test_canonical_hyperplane_matches_the_field_reference():
    # seeded planes over Q(sqrt D), D in {2, 3, 5}, m = 1..3: leading zero
    # coordinates, leads 1 + sqrt D (negative norm), denominators and
    # nonzero offsets; the integer route gives the field route's plane,
    # lead exactly 1, and is idempotent
    rng = random.Random("canonical_hyperplane")
    seen = {"leading_zero": 0, "negative_norm": 0, "denominator": 0, "offset": 0}

    def rat():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))

    for D, m in itertools.product((2, 3, 5), (1, 2, 3)):
        fspec = quadratic(D)
        for k in range(30):
            zeros = rng.randint(0, m - 1)
            normal = [fspec.zero] * zeros + [fspec.elem(rat(), rat()) for _ in range(m - zeros)]
            if k % 5 == 0:
                normal[zeros] = fspec.elem(1, 1)
            offset = fspec.elem(rat(), rat()) if k % 3 else fspec.zero
            h = Hyperplane(tuple(normal), offset)
            lead = next((x for x in normal if x), None)
            if lead is None:
                for canon in (canonical_hyperplane, field_canonical_hyperplane):
                    with pytest.raises(ValueError, match="normal is zero"):
                        canon(h)
                continue
            c = canonical_hyperplane(h)
            assert c == field_canonical_hyperplane(h), h
            assert c.normal[normal.index(lead)] == fspec.one
            assert canonical_hyperplane(c) == c
            seen["leading_zero"] += lead is not normal[0]
            seen["negative_norm"] += lead.a ** 2 - D * lead.b ** 2 < 0
            seen["denominator"] += any(y.denominator > 1 for x in (*normal, offset)
                                       for y in (x.a, x.b))
            seen["offset"] += bool(offset)
    assert min(seen.values()) > 50, seen


def test_parse_canonicalizes_planes():
    doc = minimal_doc(hyperplanes=[{"normal": [["0"], ["2"]], "offset": ["1"]}],
                      dim=2,
                      generators=[[["1"], ["0"]], [["0"], ["1"]],
                                  [["1/2", "1/2"], ["0"]]])
    data = parse_projection_data(json.dumps(doc))
    assert data.planes[0].normal == (F5.zero, F5.one)
    assert data.planes[0].offset == F5.elem("1/2")


def test_round_trip_catalog_entries():
    for nm in names():
        data = build(nm).data
        again = parse_projection_data(serialize_projection_data(data))
        assert again == data


def test_validate_catalog_entries():
    for nm in names():
        rep = validate(build(nm).data)
        if nm == "square_fibonacci":
            assert not rep.ok
            assert any(f.code == "decomposable" for f in rep.findings)
        else:
            assert rep.ok, (nm, rep.findings)
            assert any(f.code == "density_assumed" for f in rep.findings)


def test_validate_dependent_generators():
    doc = minimal_doc(generators=[[["1"]], [["2"]]])
    rep = validate(parse_projection_data(json.dumps(doc)))
    assert any(f.code == "gens_dependent" for f in rep.findings)


def test_validate_normals_must_span():
    doc = minimal_doc(
        dim=2,
        generators=[[["1"], ["0"]], [["0"], ["1"]], [["1/2", "1/2"], ["0"]],
                    [["0"], ["1/2", "1/2"]]],
        hyperplanes=[{"normal": [["1"], ["0"]]}])
    rep = validate(parse_projection_data(json.dumps(doc)))
    assert any(f.code == "normals_span" for f in rep.findings)


def test_validate_nu_warning():
    rep = validate(build("infinite_demo").data)
    assert rep.ok
    assert any(f.code == "nu_not_integral" and f.severity == "warning"
               for f in rep.findings)


def test_validate_density_partial_check():
    # pairing Gamma against the normal (0,1) yields the rank-1 group Z,
    # so translates of that plane cannot be dense
    doc = minimal_doc(
        dim=2,
        generators=[[["1"], ["0"]], [["0"], ["1"]], [["1/2", "1/2"], ["0"]]],
        hyperplanes=[{"normal": [["1"], ["0"]]}, {"normal": [["0"], ["1"]]},
                     {"normal": [["1"], ["1"]]}])
    rep = validate(parse_projection_data(json.dumps(doc)))
    assert [f for f in rep.findings if f.severity == "error"] == [Finding(
        "error", "density", "hyperplane 1: <normal, Gamma> has Q-rank <= 1, "
        "so Gamma-translates of this plane are not dense")]


def test_validate_invariant_under_plane_permutation():
    rng = random.Random(61)
    data = build("danzer").data
    planes = list(data.planes)
    rng.shuffle(planes)
    shuffled = type(data)(data.field, data.m, data.gens, tuple(planes), data.name)
    assert validate(shuffled).ok == validate(data).ok


def field_rank(rows):
    return len(rref(rows))


def smallest_split(normals, m):
    """Least rank of one side over all bipartitions of the normals into
    complementary spans (rank A + rank B = m); None when there is none."""
    k = len(normals)
    rank = [field_rank([v for i, v in enumerate(normals) if mask >> i & 1])
            for mask in range(2 ** k)]
    full = 2 ** k - 1
    splits = [rank[mask] for mask in range(1, full) if rank[mask] + rank[full ^ mask] == m]
    return min(splits, default=None)


def random_normals(rng, m, irrational):
    """k <= 7 normals spanning V = F5^m, half of the families block diagonal
    (2 or 3 blocks), before and after a random invertible map of V that
    hides the blocks and keeps every rank."""
    def elem():
        return F5.elem(rng.randint(-3, 3), rng.randint(-2, 2) if irrational else 0)

    while True:
        if rng.random() < 0.5:
            cuts = sorted(rng.sample(range(1, m), min(m - 1, rng.randint(1, 2))))
            blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [m])]
            # one normal more than its dimension lets a block be connected
            owner = [b for b in blocks for _ in range(len(b) + 1)]
            owner += [rng.choice(blocks) for _ in range(rng.randint(0, 7 - len(owner)))]
            normals = [[elem() if i in b else F5.zero for i in range(m)] for b in owner]
        else:
            normals = [[elem() if rng.random() < 0.6 else F5.zero for _ in range(m)]
                       for _ in range(rng.randint(m, 7))]
        g = [[elem() for _ in range(m)] for _ in range(m)]
        # parsing rejects zero normals
        if not all(any(v) for v in normals) or field_rank(normals) != m or field_rank(g) != m:
            continue
        moved = [tuple(sum((v[i] * g[i][j] for i in range(m)), F5.zero) for j in range(m))
                 for v in normals]
        return normals, moved


def test_decomposable_matches_bipartition_oracle():
    # over Q no Gamma of rank > dim V is Q-independent, so validation never
    # reaches this check; the rational families sit in a Q(sqrt 5) data set
    rng = random.Random(67)
    outcomes = set()
    for m, irrational in itertools.product((2, 3, 4), (False, True)):
        gens = tuple(tuple(c if i == j else F5.zero for j in range(m))
                     for c in (F5.one, TAU) for i in range(m))
        for _ in range(15):
            normals, moved = random_normals(rng, m, irrational)
            planes = tuple(Hyperplane(v, F5.zero) for v in moved)
            rep = validate(ProjectionData(F5, m, gens, planes, "split"))
            low = smallest_split(normals, m)
            found = [f.message for f in rep.findings if f.code == "decomposable"]
            if low is None:
                assert found == []
                assert rep.ok
            else:
                assert found == [
                    f"normals split into complementary spans of dims {low}+{m - low}"]
            outcomes.add((m, low))
    # every split a family of dim <= 4 can have, and connected families
    assert outcomes >= {(2, None), (2, 1), (3, None), (3, 1), (4, None), (4, 1), (4, 2)}


def test_validate_reads_the_normals_off_their_integer_key(monkeypatch):
    # the normals' rank and row supports from `primitive_rref` of their
    # rows res(theta^l r_i) equal those of the field rref, and validate's
    # findings (codes, messages, order) are the same on either route: on
    # seeded families as given, moved by a map of V, and cut to m - 1
    # normals (so not spanning), and on every catalog entry
    rng = random.Random(67)
    cases = [build(nm).data for nm in names()]
    for m, irrational in itertools.product((2, 3, 4), (False, True)):
        gens = tuple(tuple(c if i == j else F5.zero for j in range(m))
                     for c in (F5.one, TAU) for i in range(m))
        for _ in range(40):
            normals, moved = random_normals(rng, m, irrational)
            cases += [ProjectionData(F5, m, gens, tuple(Hyperplane(tuple(v), F5.zero)
                                                        for v in family), "oracle")
                      for family in (normals, moved, moved[:m - 1])]
    codes = set()
    for data in cases:
        supports = normal_supports(data)
        assert supports == field_normal_supports(data), data
        found = validate(data).findings
        with monkeypatch.context() as patched:
            patched.setattr(patcoh.model, "normal_supports", field_normal_supports)
            assert validate(data).findings == found, data
        codes.update(f.code for f in found)
    assert len(cases) == 7 + 6 * 40 * 3
    assert {"normals_span", "decomposable", "density_assumed"} <= codes
