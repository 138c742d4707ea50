import hashlib
import itertools

import pytest

import patcoh.catalog
import patcoh.model
from patcoh.catalog import axis_normals, build, catalog, icosahedral_star, names
from patcoh.field import dot, quadratic, restrict_scalars
from patcoh.linalg import rat_rank
from patcoh.model import serialize_projection_data, validate
from patcoh.report import canonical_digest, compute_report
from reference import searched_axis_normals

F5 = quadratic(5)
TAU = F5.elem("1/2", "1/2")


def test_star_has_full_rational_rank():
    star = icosahedral_star()
    assert len(star) == 6
    assert rat_rank([restrict_scalars(w) for w in star]) == 6


def test_star_inner_products():
    star = icosahedral_star()
    sigma = TAU.conj()
    # distinct internal star vectors pair to +-sigma or +-1
    norm = dot(star[0], star[0])
    for i in range(6):
        assert dot(star[i], star[i]) == norm
    vals = {dot(star[0], star[j]) / norm for j in range(1, 6)}
    assert vals <= {sigma, -sigma, F5.one, -F5.one,
                    sigma / (sigma + F5.elem(2)), -sigma / (sigma + F5.elem(2))}


def test_physical_star_is_galois_conjugate():
    star = icosahedral_star()
    phys = [tuple(x.conj() for x in w) for w in star]
    norm = dot(phys[0], phys[0])
    # in the physical star, any two legs pair to +-tau * (norm / (tau + 2)),
    # which is +-tau: each is a neighbour of the other or of its antipode
    expected = TAU * norm / (TAU + F5.elem(2))
    assert expected == TAU
    for i, j in itertools.combinations(range(6), 2):
        assert dot(phys[i], phys[j]) in (expected, -expected), (i, j)


def test_axis_counts():
    assert len(axis_normals("two_fold")) == 15
    assert len(axis_normals("three_fold")) == 10
    assert len(axis_normals("five_fold")) == 6
    with pytest.raises(ValueError):
        axis_normals("seven_fold")


@pytest.mark.parametrize("kind", ["two_fold", "three_fold", "five_fold"])
def test_axis_normals_equal_the_search_in_order(kind):
    assert axis_normals(kind) == searched_axis_normals(kind)


def test_catalog_canonicalizes_each_plane_once(monkeypatch):
    # the 46 axis vectors are deduplicated on their records and the entries
    # built from those records, which adds only the 6 planes of the other
    # entries; each of the 5 generator sets (icosahedral star and D6 among
    # them) is cleared once.  `_plane_record` clears its own rationals
    records, cleared = [], []
    real_record, real_clear = patcoh.model._plane_record, patcoh.model._clear
    monkeypatch.setattr(patcoh.model, "_plane_record",
                        lambda *args: records.append(args) or real_record(*args))
    monkeypatch.setattr(patcoh.model, "_clear",
                        lambda *args: cleared.append(args) or real_clear(*args))
    monkeypatch.setattr(patcoh.catalog, "_CATALOG", None)
    assert list(catalog()) == names()
    assert len(records) == 52 and len(cleared) - len(records) == 5


def test_catalog_names_and_build():
    assert set(names()) == {
        "fibonacci", "ammann_kramer", "canonical_d6", "dual_canonical_d6",
        "danzer", "infinite_demo", "square_fibonacci"}
    with pytest.raises(KeyError):
        build("nonexistent")


def test_entries_have_expectations():
    for nm, entry in catalog().items():
        assert entry.name == nm == entry.data.name
        assert entry.description
        assert entry.expected


def test_icosahedral_entries_share_plane_families():
    ak = build("ammann_kramer").data
    dual = build("dual_canonical_d6").data
    assert set(ak.planes) == set(dual.planes)
    assert ak.gens != dual.gens


def test_entries_validate_as_expected():
    for nm, entry in catalog().items():
        ok = validate(entry.data).ok
        assert ok == (entry.expected.get("status") != "validation_error"), nm


# exit code and canonical digest of the full report with the arrangement
# dumped (every class id, direction, point and stabilizer), per entry;
# any change here is a change of answer, not of speed
PINNED_DIGESTS = {
    "fibonacci": (0, "88fe25cd434d61a846a9e10f384dbe76fca1408fa94264f6bc3d2da0c692fe01"),
    "ammann_kramer": (0, "b9ed0ca7b9e8e70351ba6b27f81b0faa6218c3ac6cd281aa68fa4e7552cf2e34"),
    "canonical_d6": (0, "e69866e27f48f90e5c6055d3b7c331983bfd7bbb7a7186ec0e6afabd69419d5d"),
    "dual_canonical_d6": (0, "e4d669f32e1e7700f274d4b406ab2d49a8a732f9bf3276124ee54728dae3dac0"),
    "danzer": (0, "e7c1265a2aff12d1b6e781c6e3d59442d485cad6283a5604cfa4455ebe9c0d1b"),
    "infinite_demo": (3, "636521b63e74b9043353805adb4ac6fd905ff903b2669ccbf82fa5891792ac66"),
    "square_fibonacci": (2, "1329ccd2e490c7613249efe414674532793019df9813f63012c785461cd33c94"),
}


# SHA-256 of each entry's serialized input: generators and planes, in order.
# A plain report does not change when the planes are permuted (criterion 6),
# but plane order decides class ids, which a dump shows; this pins the input
# itself, its order included
PINNED_INPUTS = {
    "fibonacci": "6724f8819f9b0b974336a2bc486cb8dedefdf2e75b9dcc7d672406424b49dabd",
    "ammann_kramer": "3a140061ea27ee8edd99c8919364a009acd5e2e344223b58a6a8bc4a15e7ecb0",
    "canonical_d6": "8ec99ad3b74a16d4537ab98af6c01ca10d9dfaa6cadf11babfa1dba3b705f819",
    "dual_canonical_d6": "05188c3ed8312590056a33b371d98fc3f78e9b77896e4c0fb58aaaf0c3505826",
    "danzer": "a844c3a7031dccd89753e0990ff0381f17c21d3495c5cafe58e86fa6d77bb57b",
    "infinite_demo": "5582d24934900d89fe8e03630e156a48fe5f7595ada7647d01a809ecafe62d1c",
    "square_fibonacci": "3815164b5ea070f0c91c04463f53963678cf48aa7ca7751cdeaaa88b2b6142b9",
}


def test_pinned_digests_cover_the_catalog():
    assert set(PINNED_DIGESTS) == set(PINNED_INPUTS) == set(names())


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_arrangement_digest_is_pinned(name):
    doc, code = compute_report(build(name).data, dump_arrangement=True)
    assert (code, canonical_digest(doc)) == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
def test_entry_input_is_pinned(name):
    text = serialize_projection_data(build(name).data)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_INPUTS[name]
