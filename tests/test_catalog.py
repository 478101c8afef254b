"""Group family constructions, bundled data, catalog validation."""

import math

import pytest

from parthom import catalog
from parthom.catalog import (
    CatalogError,
    agammal1,
    agl1,
    alternating,
    build_group,
    catalog_entries,
    cyclic,
    dihedral,
    fix_point_extension,
    mathieu,
    pgammal2,
    pgl2,
    psl2,
    symmetric,
    validate_catalog,
)
from parthom.fields import GF, factor_prime_power
from parthom.perm import act_point, enumerate_elements, orbit


def is_transitive(g):
    return len(orbit(g, 0, act_point)) == g.degree


# -- elementary families ------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_orders(n):
    assert symmetric(n).order() == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_alternating_orders(n):
    expected = 1 if n <= 2 else math.factorial(n) // 2
    assert alternating(n).order() == expected


def test_alternating_is_even_subgroup():
    for n in [4, 5, 6, 7]:
        s = symmetric(n)
        a = alternating(n)
        for g in a.generators:
            assert s.contains(g)
        assert all(a.contains(x) or not a.contains(x)
                   for x in s.generators)         # sifting runs cleanly
        assert s.order() == 2 * a.order()


@pytest.mark.parametrize("n", range(3, 13))
def test_cyclic_dihedral_orders(n):
    assert cyclic(n).order() == n
    if n >= 3:
        d = dihedral(n)
        assert d.order() == 2 * n
        assert is_transitive(d)


# -- affine and projective families -------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32])
def test_agl1_order_and_transitivity(q):
    g = agl1(q)
    assert g.degree == q
    assert g.order() == q * (q - 1)
    assert is_transitive(g)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_agammal1_order(q):
    _, d = factor_prime_power(q)
    g = agammal1(q)
    assert g.degree == q
    assert g.order() == q * (q - 1) * d


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 31])
def test_pgl2_order_and_transitivity(q):
    g = pgl2(q)
    assert g.degree == q + 1
    assert g.order() == q * (q * q - 1)
    assert is_transitive(g)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_psl2_order_odd(q):
    g = psl2(q)
    assert g.degree == q + 1
    assert g.order() == q * (q * q - 1) // 2


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_psl2_equals_pgl2_even(q):
    a, b = psl2(q), pgl2(q)
    assert a.order() == b.order() == q * (q * q - 1)
    assert [g.images for g in a.generators] == [g.images for g in b.generators]


@pytest.mark.parametrize("q", [5, 7, 9, 11, 25, 27])
def test_psl2_inside_pgl2_index_two(q):
    small, big = psl2(q), pgl2(q)
    for g in small.generators:
        assert big.contains(g)
    assert big.order() == 2 * small.order()


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
def test_pgammal2_contains_pgl2_with_field_degree_quotient(q):
    _, d = factor_prime_power(q)
    small, big = pgl2(q), pgammal2(q)
    for g in small.generators:
        assert big.contains(g)
    assert big.order() == d * small.order()


@pytest.mark.parametrize("build", [pgl2, psl2, pgammal2])
def test_projective_groups_build_their_field_once(build, monkeypatch):
    pgl2_rows = [g.images for g in pgl2(32).generators]
    builds = []

    def counted(q):
        builds.append(q)
        return GF(q)

    monkeypatch.setattr(catalog, "GF", counted)
    group = build(32)
    assert builds == [32]
    assert [g.images for g in group.generators[:3]] == pgl2_rows


def test_named_projective_orders():
    assert pgl2(5).order() == 120
    assert psl2(5).order() == 60
    assert pgl2(8).order() == 504
    assert pgammal2(8).order() == 1512
    assert pgammal2(9).order() == 1440
    assert pgammal2(32).order() == 163680


# -- bundled data --------------------------------------------------------------

def test_mathieu_orders():
    assert mathieu(11).order() == 7920
    assert mathieu(12).order() == 95040
    assert mathieu(23).order() == 10200960
    assert mathieu(24).order() == 244823040


def test_mathieu_rejects_other_degrees():
    with pytest.raises(CatalogError):
        mathieu(13)


# -- extensions and specs -------------------------------------------------------

def test_fix_point_extension():
    g = agl1(5)
    ext = fix_point_extension(g)
    assert ext.degree == 6
    assert ext.order() == g.order()
    for gen in ext.generators:
        assert gen.images[5] == 5


def test_fix_point_extension_of_trivial():
    from parthom.perm import PermGroup, Permutation
    triv = PermGroup(1, [Permutation.identity(1)])
    ext = fix_point_extension(triv)
    assert ext.degree == 2
    assert ext.order() == 1


def test_build_group_specs():
    assert build_group("s:5").order() == 120
    assert build_group("a:5").order() == 60
    assert build_group("c:6").order() == 6
    assert build_group("d:6").order() == 12
    assert build_group("agl1:5").order() == 20
    assert build_group("pgl2:8").degree == 9
    assert build_group("m:12").order() == 95040
    ext = build_group("fix+agl1:5")
    assert ext.degree == 6 and ext.order() == 20
    doubled = build_group("fix+fix+c:3")
    assert doubled.degree == 5 and doubled.order() == 3


def test_build_group_from_file(tmp_path):
    path = tmp_path / "g.grp"
    path.write_text("degree 3\n(1 2 3)\n")
    g = build_group("file:%s" % path)
    assert g.order() == 3


def _directory(tmp_path, monkeypatch):
    return "file:%s" % tmp_path


def _binary_file(tmp_path, monkeypatch):
    (tmp_path / "g.grp").write_bytes(b"degree 3\n\xc0\n")
    return "file:%s" % (tmp_path / "g.grp")


def _manifest_without_file(tmp_path, monkeypatch):
    (tmp_path / "manifest.txt").write_text(
        "name: m11\ndegree: 11\nexpected_order: 7920\n")
    monkeypatch.setenv("PARTHOM_DATA", str(tmp_path))
    return "m:11"


@pytest.mark.parametrize("bad", [
    "x:5", "s:x", "s5", "m:13", "file:/nonexistent/g.grp", "d:2", "",
    # int() alone read these three as S_10, C_5 and S_5
    "s:1_0", "c:\uff15", "s:+5",
    pytest.param(_directory, id="directory"),
    pytest.param(_binary_file, id="binary-file"),
    pytest.param(_manifest_without_file, id="manifest-without-file"),
])
def test_build_group_bad_specs(bad, tmp_path, monkeypatch):
    if callable(bad):
        bad = bad(tmp_path, monkeypatch)
    with pytest.raises(CatalogError):
        build_group(bad)


# -- the catalog ----------------------------------------------------------------

def test_catalog_degrees_and_uniqueness():
    entries = catalog_entries(max_degree=12)
    assert all(2 <= e.degree <= 12 for e in entries)
    specs = [e.spec for e in entries]
    assert len(specs) == len(set(specs))
    # groups agreeing in degree and order must still be distinct groups,
    # except they must not be: aliases were supposed to be skipped entirely
    by_key = {}
    for e in entries:
        by_key.setdefault((e.degree, e.group.order()), []).append(e)
    for (deg, order), bucket in by_key.items():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                a, b = bucket[i].group, bucket[j].group
                same = all(b.contains(g) for g in a.generators)
                assert not same, (bucket[i].spec, bucket[j].spec)


def test_catalog_contains_the_expected_degree9_row():
    specs = {e.spec for e in catalog_entries(max_degree=12) if e.degree == 9}
    assert specs == {"s:9", "a:9", "c:9", "d:9",
                     "agl1:9", "agammal1:9", "pgl2:8", "pgammal2:8"}


def test_catalog_orders_match_enumeration_when_small():
    for e in catalog_entries(max_degree=12):
        if e.group.order() <= 3000:
            assert e.group.order() == len(enumerate_elements(e.group)), e.spec


# -- full validation -------------------------------------------------------------

def test_validate_catalog_clean():
    report = validate_catalog()
    assert report["failures"] == [], report["failures"]
