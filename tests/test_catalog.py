import pytest

from patcoh.catalog import axis_normals, build, catalog, icosahedral_star, names
from patcoh.field import dot, quadratic, restrict_scalars
from patcoh.linalg import rat_rank
from patcoh.model import validate
from patcoh.report import canonical_digest, compute_report

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
    # in the physical star, adjacent legs pair to tau * (norm/ (tau+2))
    expected = TAU * norm / (TAU + F5.elem(2))
    assert dot(phys[0], phys[2]) in (expected, -expected)


def test_axis_counts():
    assert len(axis_normals("two_fold")) == 15
    assert len(axis_normals("three_fold")) == 10
    assert len(axis_normals("five_fold")) == 6
    with pytest.raises(ValueError):
        axis_normals("seven_fold")


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


def test_pinned_digests_cover_the_catalog():
    assert set(PINNED_DIGESTS) == set(names())


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_arrangement_digest_is_pinned(name):
    doc, code = compute_report(build(name).data, dump_arrangement=True)
    assert (code, canonical_digest(doc)) == PINNED_DIGESTS[name]
