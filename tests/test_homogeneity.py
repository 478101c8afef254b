"""Homogeneity/transitivity verdicts against oracles and cross-identities."""

import json
from math import perm

import pytest

from parthom.catalog import (
    agl1,
    alternating,
    build_group,
    catalog_entries,
    cyclic,
    fix_point_extension,
    mathieu,
    pgammal2,
    pgl2,
    psl2,
    symmetric,
)
from parthom.homogeneity import (
    decide_lambda_homogeneous,
    decide_t_homogeneous,
    decide_t_transitive,
    exact_homogeneity_degree,
    is_lambda_homogeneous,
    is_lambda_transitive,
    is_set_transitive,
    is_standard_pair,
    is_t_homogeneous,
    is_t_transitive,
    lambda_behavior,
)
from parthom.partitions import (
    act_ordered_partition,
    act_set_partition,
    count_ordered,
    count_unordered,
    first_partition_of_type,
    integer_partitions,
    iter_ordered_partitions,
)
from parthom.perm import enumerate_elements, orbit
from reference import walked_standard_pair


# -- t-homogeneity and t-transitivity -----------------------------------------

def test_symmetric_group_everything():
    s6 = symmetric(6)
    for t in range(7):
        assert is_t_homogeneous(s6, t)
        assert is_t_transitive(s6, t)
    assert is_set_transitive(s6)


def test_agl15_facts():
    g = agl1(5)
    assert is_t_transitive(g, 2)
    assert g.order() == 20            # sharply 2-transitive
    assert is_t_homogeneous(g, 3)
    assert not is_t_transitive(g, 3)
    assert is_set_transitive(g)


def test_psl25_facts():
    g = psl2(5)
    assert is_t_homogeneous(g, 2)
    assert is_t_transitive(g, 2)
    # two orbits of ten on 3-subsets: 3-homogeneity fails even though the
    # group order and binomial would allow it
    assert not is_t_homogeneous(g, 3)
    assert is_lambda_homogeneous(g, (3, 3))
    assert not is_lambda_transitive(g, (3, 3))
    assert not is_set_transitive(g)
    assert exact_homogeneity_degree(g) == 2


def test_pgl25_is_set_transitive():
    g = pgl2(5)
    assert is_t_transitive(g, 3)
    assert is_set_transitive(g)


def test_mathieu_transitivity_degrees():
    m11, m12 = mathieu(11), mathieu(12)
    assert is_t_transitive(m11, 4)
    assert not is_t_transitive(m11, 5)
    assert is_t_transitive(m12, 5)
    assert not is_t_transitive(m12, 6)
    assert exact_homogeneity_degree(m12) == 5
    assert not is_set_transitive(m11)


def test_pgl28_facts():
    g = pgl2(8)
    assert is_t_transitive(g, 3)
    assert not is_t_transitive(g, 4)
    assert is_t_homogeneous(g, 4)
    assert is_set_transitive(g)
    assert is_set_transitive(pgammal2(8))
    assert exact_homogeneity_degree(pgammal2(8)) == 4


def test_pgammal2_32_facts():
    # 4-homogeneous: one orbit of all C(33, 4) 4-sets, read off the chain;
    # 4-transitivity is refuted by the order alone
    g = pgammal2(32)
    assert g.order() == 163680
    hom = decide_t_homogeneous(g, 4)
    assert hom.verdict and hom.orbit_size == 40920
    trans = decide_t_transitive(g, 4)
    assert not trans.verdict and trans.method == "order-bound shortcut"


def test_cyclic_homogeneity_degree():
    assert exact_homogeneity_degree(cyclic(5)) == 1
    assert exact_homogeneity_degree(cyclic(6)) == 1


def test_shortcut_kicks_in_for_big_t_transitive():
    m12 = mathieu(12)
    result = decide_t_transitive(m12, 6)
    assert result.method == "order-bound shortcut"
    assert not result.verdict
    assert perm(12, 6) > m12.order()


def test_degree_300_decisions_and_ordered_partition_orbit():
    group = build_group("c:300")
    result = decide_t_transitive(group, 1)
    assert result.verdict and result.orbit_size == 300
    assert decide_t_homogeneous(group, 1).orbit_size == 300
    ordered = first_partition_of_type((2,) + (1,) * 298)
    assert len(orbit(group, ordered, act_ordered_partition)) == 300


# -- lambda verdicts -----------------------------------------------------------

def test_singleton_partition_always_homogeneous():
    for g in [cyclic(5), alternating(4), symmetric(3)]:
        result = decide_lambda_homogeneous(g, (1,) * g.degree)
        assert result.verdict
        assert result.method == "order-bound shortcut"


def test_lambda_transitive_symmetric_and_alternating():
    s5, a5 = symmetric(5), alternating(5)
    for lam in integer_partitions(5):
        assert is_lambda_transitive(s5, lam), lam
        if lam == (1, 1, 1, 1, 1):
            assert not is_lambda_transitive(a5, lam)
        else:
            assert is_lambda_transitive(a5, lam), lam


def test_agl15_lambda_rows():
    g = agl1(5)
    assert not is_lambda_homogeneous(g, (2, 2, 1))
    assert is_lambda_homogeneous(g, (3, 1, 1))
    assert is_lambda_transitive(g, (3, 2))


def test_m12_2218_homogeneous_not_transitive():
    m12 = mathieu(12)
    lam = (2, 2) + (1,) * 8
    hom = decide_lambda_homogeneous(m12, lam)
    assert hom.verdict and hom.orbit_size == 1485
    assert not is_lambda_transitive(m12, lam)


def test_lambda_behavior_triple():
    assert lambda_behavior(symmetric(6), (3, 3)) == "transitive"
    assert lambda_behavior(psl2(5), (3, 3)) == "homogeneous-only"
    assert lambda_behavior(cyclic(6), (3, 3)) == "neither"


def test_fix_point_extension_rows():
    ext = fix_point_extension(agl1(5))
    assert lambda_behavior(ext, (3, 3)) == "homogeneous-only"
    ext9 = fix_point_extension(pgammal2(8))
    assert is_lambda_homogeneous(ext9, (5, 5))
    assert not is_lambda_transitive(ext9, (5, 5))


# -- standard pairs ------------------------------------------------------------

def check_standard_pair(group, lam, expected):
    assert is_standard_pair(group, lam) == expected, lam
    assert walked_standard_pair(group, lam) == expected, lam


def test_standard_pair_examples():
    check_standard_pair(symmetric(6), (5, 1), True)
    check_standard_pair(pgammal2(8), (5, 2, 2), True)
    check_standard_pair(pgl2(8), (5, 1, 1, 1, 1), False)
    check_standard_pair(pgl2(8), (5, 4), True)
    check_standard_pair(pgl2(8), (5, 3, 1), True)
    with pytest.raises(ValueError):
        is_standard_pair(symmetric(5), (5,))


def test_standard_pair_boundary_allows_half():
    # largest part exactly n/2: PGL(2,5) is 3-transitive on 6 points, the
    # 3-set stabilizer acts fully inside the set
    check_standard_pair(pgl2(5), (3, 3), True)
    check_standard_pair(pgl2(5), (3, 2, 1), True)
    check_standard_pair(pgl2(5), (3, 1, 1, 1), True)
    check_standard_pair(psl2(5), (3, 3), False)


def test_standard_pair_fails_when_big_part_small():
    check_standard_pair(symmetric(6), (2, 2, 1, 1), False)   # t = 4 > 6/2


@pytest.mark.parametrize("entry", catalog_entries(12), ids=lambda e: e.spec)
def test_standard_pair_matches_the_walked_definition(entry):
    group = entry.group
    for lam in integer_partitions(group.degree)[1:]:   # all but (n,)
        assert is_standard_pair(group, lam) == \
            walked_standard_pair(group, lam), lam


@pytest.mark.parametrize("spec, lam, expected", [
    ("m:23", (19, 2, 2), True),
    ("m:24", (20, 2, 2), True),
    ("m:24", (20, 1, 1, 1, 1), True),
])
def test_standard_pair_matches_the_walked_definition_on_mathieu(spec, lam,
                                                                 expected):
    check_standard_pair(build_group(spec), lam, expected)


# -- cross identities over the small catalog -----------------------------------

SMALL = [e for e in catalog_entries(max_degree=7)]


@pytest.mark.parametrize("entry", SMALL, ids=lambda e: e.spec)
def test_homogeneity_complement_symmetry(entry):
    g = entry.group
    for t in range(g.degree + 1):
        assert is_t_homogeneous(g, t) == is_t_homogeneous(g, g.degree - t)


@pytest.mark.parametrize("entry", SMALL, ids=lambda e: e.spec)
def test_transitive_implies_homogeneous(entry):
    g = entry.group
    for t in range(g.degree + 1):
        if is_t_transitive(g, t):
            assert is_t_homogeneous(g, t)
    for lam in integer_partitions(g.degree):
        if is_lambda_transitive(g, lam):
            assert is_lambda_homogeneous(g, lam), lam


@pytest.mark.parametrize("entry", SMALL, ids=lambda e: e.spec)
def test_t_homogeneous_is_two_part_transitive(entry):
    g = entry.group
    n = g.degree
    for t in range(1, (n - 1) // 2 + 1):
        assert is_t_homogeneous(g, t) == is_lambda_transitive(g, (n - t, t))


@pytest.mark.parametrize("entry", SMALL, ids=lambda e: e.spec)
def test_livingstone_wagner_monotone(entry):
    g = entry.group
    for t in range(2, g.degree // 2 + 1):
        if is_t_homogeneous(g, t):
            assert is_t_homogeneous(g, t - 1)


@pytest.mark.parametrize("entry", SMALL, ids=lambda e: e.spec)
def test_homogeneous_only_nonuniform_implies_2_homogeneous(entry):
    g = entry.group
    for lam in integer_partitions(g.degree):
        if len(set(lam)) < 2 or all(k == 1 for k in lam):
            continue
        if lambda_behavior(g, lam) == "homogeneous-only":
            assert is_t_homogeneous(g, 2), lam


# -- brute-force oracle: apply every group element ------------------------------

def brute_lambda_verdicts(group, lam):
    els = enumerate_elements(group)
    seed = first_partition_of_type(lam)
    orb_u = {act_set_partition(seed, g.images) for g in els}
    seed_o = next(iter_ordered_partitions(lam))
    orb_o = {act_ordered_partition(seed_o, g.images) for g in els}
    return (len(orb_u) == count_unordered(lam),
            len(orb_o) == count_ordered(lam))


@pytest.mark.parametrize("entry", SMALL, ids=lambda e: e.spec)
def test_bfs_matches_full_element_sweep(entry):
    g = entry.group
    for lam in integer_partitions(g.degree):
        hom, trans = brute_lambda_verdicts(g, lam)
        assert is_lambda_homogeneous(g, lam) == hom, lam
        assert is_lambda_transitive(g, lam) == trans, lam


# -- report plumbing -------------------------------------------------------------

def test_report_json_shape():
    g = agl1(5)
    for result in (decide_t_homogeneous(g, 2),
                   decide_lambda_homogeneous(g, (2, 2, 1))):
        q = json.loads(json.dumps(result.as_dict()))
        assert set(q) == {"query", "verdict", "expected", "orbit_size", "method"}


def test_bad_inputs():
    g = symmetric(4)
    with pytest.raises(ValueError):
        is_t_homogeneous(g, 5)
    with pytest.raises(ValueError):
        is_t_transitive(g, -1)
    with pytest.raises(ValueError):
        is_lambda_homogeneous(g, (3, 2))
    with pytest.raises(ValueError):
        is_lambda_transitive(g, (4, 0))
