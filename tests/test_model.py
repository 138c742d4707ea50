import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import patcoh.model
from patcoh.cli import main
from patcoh.catalog import build, names
from patcoh.field import quadratic, restrict_scalars
from patcoh.linalg import clear_denominators, rref
from patcoh.model import (
    Finding,
    Hyperplane,
    ParseError,
    canonical_hyperplane,
    from_field,
    normal_supports,
    parse_projection_data,
    serialize_projection_data,
    validate,
)
from reference import (field_canonical_hyperplane, field_normal_supports, field_parse,
                       field_parse_rat, field_plane_table, field_record)
from test_invariants import _SKIP_CASES, _conjugate

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
    shuffled = from_field(data.field, data.m, data.gens, tuple(planes), data.name)
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
            rep = validate(from_field(F5, m, gens, planes, "split"))
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
            cases += [from_field(F5, m, gens, tuple(Hyperplane(tuple(v), F5.zero)
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


# strings the integer reading takes ("3", "-0", "00/04"), and strings that
# Fraction accepts or refuses in its own way: a sign other than a leading
# minus, spaces, "_", decimals, Unicode digits ("٣" is one, "²" is a digit
# to isdigit but not to Fraction), exponents and zero denominators
RATIONAL_STRINGS = ["3", "-0", "00/04", "12/8", "-6/4", "0/7", "+3", " 1/2 ", "1.5", "1_0",
                    "٣", "²", "1/0", "0/0", "1/-2", "", "/", "--1", "-", "1/", "/2", "1e3",
                    "7E1", "-1/3", "3/-0", "4" * 5000, "1/" + "2" * 5000, 3, None]


@pytest.mark.parametrize("s", RATIONAL_STRINGS, ids=[repr(x)[:12] for x in RATIONAL_STRINGS])
def test_parse_rat_is_the_fraction_route(s):
    # the integer reading gives Fraction's value, in lowest terms with a
    # positive denominator, or the same ParseError message
    try:
        want = field_parse_rat(s)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            patcoh.model._parse_rat(s)
        assert str(got.value) == str(exc)
    else:
        p, q = patcoh.model._parse_rat(s)
        assert (Fraction(p, q), math.gcd(p, q), q > 0) == (want, 1, True)


def _rescaled_text(data, rng):
    """The schema text of `data` with every plane's equation scaled by a
    seeded nonzero field element, so parse has planes to canonicalize."""
    doc = json.loads(serialize_projection_data(data))
    for plane, h in zip(doc["hyperplanes"], data.planes):
        lam = data.field.zero
        while not lam:
            lam = data.field.elem(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        plane["normal"], (plane["offset"],) = (
            [[str((lam * x).a), str((lam * x).b)] for x in xs] for xs in (h.normal, (h.offset,)))
    return json.dumps(doc)


_PARSE_CASES = {**{nm: make for nm, make in _SKIP_CASES.items() if "-translated-" not in nm},
                **{f"{nm}-conjugated": (lambda make=make: _conjugate(make()))
                   for nm, make in _SKIP_CASES.items() if "-translated-" not in nm},
                **{nm: make for nm, make in _SKIP_CASES.items() if "-translated-" in nm}}


@pytest.mark.parametrize("name", _PARSE_CASES)
def test_parse_matches_the_field_route(name):
    # every catalog entry, the dense m = 2 fixtures, Penrose, the dense
    # m = 3 pool, their Galois conjugates and the inputs with planes moved
    # off the origin, as written and with every plane rescaled: parse's
    # cleared generators, plane records and tables are those of the field
    # parse and plane table, and serializing and parsing again gives the
    # same data
    data = _PARSE_CASES[name]()
    rng = random.Random(f"rescale/{name}")
    for text in (serialize_projection_data(data), _rescaled_text(data, rng)):
        parsed = parse_projection_data(text)
        fspec, m, gens, planes, name_ = field_parse(text)
        gen_ints = clear_denominators([restrict_scalars(g) for g in gens])
        assert (parsed.field, parsed.m, parsed.name) == (fspec, m, name_)
        assert ([list(g) for g in parsed.gen_ints[0]], parsed.gen_ints[1]) == gen_ints
        assert parsed.records == tuple(map(field_record, planes))
        assert (parsed.gens, parsed.planes) == (gens, planes)
        assert parsed.tables == tuple(field_plane_table(h, gen_ints) for h in planes)
        assert parse_projection_data(serialize_projection_data(parsed)) == parsed == data


def _big_doc():
    """1,000 random generators and 33 random planes in a 3-dimensional V."""
    rng = random.Random("1000 generators")

    def elem():
        return [str(rng.randint(-9, 9)), str(rng.randint(-9, 9))]

    return {"schema": "patcoh/1", "name": "big", "field": {"kind": "Qsqrt", "D": 5}, "dim": 3,
            "generators": [[elem() for _ in range(3)] for _ in range(1000)],
            "hyperplanes": [{"normal": [elem() for _ in range(3)]} for _ in range(33)]}


def test_invalid_input_builds_no_plane_table(tmp_path, monkeypatch, capsys):
    # the normals' supports come off the records, and the tables only serve
    # the density check, which runs once every other check has passed, so
    # an input with too many generators and planes is refused with no
    # table built, and with the findings of building them all.  More
    # generators than delta m are dependent with no rank taken
    calls, ranks = [], []
    real, real_rank = patcoh.model.plane_table, patcoh.model.rat_rank
    monkeypatch.setattr(patcoh.model, "plane_table",
                        lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(patcoh.model, "rat_rank",
                        lambda *args: ranks.append(args) or real_rank(*args))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_big_doc()))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "error: [gens_dependent] generators are Q-linearly dependent: Gamma is not free of rank n",
        "error: [too_many_planes] at most 32 hyperplanes supported, got 33",
        "warning: [nu_not_integral] dim V = 3 does not divide rank Gamma = 1000: "
        "nu = 1000/3 is not a natural number, so L_0 must be infinite",
        "warning: [density_assumed] density of Gamma in V is assumed, not verified "
        "(partial check only)"]
    assert calls == [] and ranks == []
    fresh = parse_projection_data(serialize_projection_data(build("danzer").data))
    # the spies see a valid input's tables and rank
    assert validate(fresh).ok and len(calls) == 6 and len(ranks) == 1
