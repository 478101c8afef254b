"""Transformation semigroup tests.

Brute-force oracles: full T_n enumeration for n <= 5, naive pairwise-closure
worklists, and cubic regularity scans. Generation routines are checked
against these before any structural claim is trusted.
"""

import math
import random
import re
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parthom.catalog import build_group
from parthom.partitions import (
    act_set_partition,
    canon_set_partition,
    coarsening_feasible,
    refines,
)
from parthom.perm import EnumerationCapExceeded, enumerate_elements
from parthom.tsemi import (
    TransSemigroup,
    Transformation,
    closure,
    contains_all_constants,
    generate_arc,
    generate_arc_set,
    generate_conjugates,
    green_checks,
    idempotents,
    is_idempotent_generated,
    is_regular,
    local_group_at,
    omega_power,
    parse_transformation,
    sn_normal_membership,
)

MAP_A5 = parse_transformation("1,1,3,4,5")   # kernel type (2,1,1,1)
MAP_B5 = parse_transformation("1,1,3,3,5")   # kernel type (2,2,1)


def all_maps(n):
    return [Transformation(t) for t in product(range(n), repeat=n)]


def singular_maps(n):
    return [t for t in all_maps(n) if not t.is_permutation()]


@lru_cache(maxsize=None)
def full_singular(n):
    """T_n minus S_n via generate_arc over the symmetric group."""
    return generate_arc(first_of_type(n, (2,) + (1,) * (n - 2)),
                        build_group("s:%d" % n))


def first_of_type(n, shape):
    """A transformation whose kernel type is the given partition."""
    images = []
    point = 0
    for size in shape:
        images.extend([point] * size)
        point += size
    return Transformation(images)


def naive_closure(gens):
    """Worklist with pairwise products in both orders; the slow oracle."""
    out = set(gens)
    changed = True
    while changed:
        changed = False
        for x in list(out):
            for y in list(out):
                for z in (x * y, y * x):
                    if z not in out:
                        out.add(z)
                        changed = True
    return out


small_maps = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n))


# ---------------------------------------------------------------------------
# Transformation basics


def test_parse_format_round_trip():
    assert MAP_A5.text() == "1,1,3,4,5"
    assert parse_transformation("2, 3, 4, 2").images == (1, 2, 3, 1)
    assert parse_transformation("1,1,3,4,5", n=5) == MAP_A5


def test_parse_rejects():
    with pytest.raises(ValueError):
        parse_transformation("")
    with pytest.raises(ValueError):
        parse_transformation("1,2,5", n=3)
    with pytest.raises(ValueError):
        parse_transformation("1,2", n=3)
    with pytest.raises(ValueError):
        Transformation([0, 4, 1])
    with pytest.raises(ValueError):
        Transformation([])


def test_cached_structure():
    assert MAP_A5.rank == 4
    assert MAP_A5.image_set == (0, 2, 3, 4)
    assert MAP_A5.kernel == ((0, 1), (2,), (3,), (4,))
    assert MAP_A5.kernel_type == (2, 1, 1, 1)
    assert MAP_B5.kernel_type == (2, 2, 1)
    assert MAP_B5.kernel == ((0, 1), (2, 3), (4,))


def test_composition_order():
    a = parse_transformation("2,2,3")
    b = parse_transformation("3,1,1")
    # apply a first, then b
    assert (a * b).images == tuple(b.images[v] for v in a.images)
    assert (a * b).text() == "1,1,1"


def test_composition_rejects_mixed_degrees():
    short = Transformation([0, 0, 1])
    long = Transformation([1, 0, 2, 3, 4])
    with pytest.raises(ValueError, match="degrees differ"):
        short * long
    with pytest.raises(ValueError, match="degrees differ"):
        long * short


def test_permutation_bridge():
    t = parse_transformation("2,3,1")
    assert t.is_permutation()
    assert t.to_permutation().images == (1, 2, 0)
    assert Transformation.from_permutation(t.to_permutation()) == t
    with pytest.raises(ValueError):
        MAP_A5.to_permutation()


def test_constructors():
    assert Transformation.identity(4).images == (0, 1, 2, 3)
    assert Transformation.constant(3, 1).images == (1, 1, 1)


@given(small_maps)
def test_rank_equals_blocks_and_image(imgs):
    t = Transformation(imgs)
    assert t.rank == len(t.kernel) == len(t.image_set)
    assert canon_set_partition(t.kernel) == t.kernel


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
def test_associative_and_rank_monotone(triple):
    x, y, z = (Transformation(t) for t in triple)
    assert (x * y) * z == x * (y * z)
    assert (x * y).rank <= min(x.rank, y.rank)


# ---------------------------------------------------------------------------
# omega power


def test_omega_power_odd_cycle():
    # squaring alone would loop a -> a^2 -> a^4 = a here, period 3 cycle
    a = parse_transformation("2,3,4,2")
    w = omega_power(a)
    assert w == parse_transformation("4,2,3,4")
    assert w * w == w
    assert a * a != a and (a * a) * (a * a) != a * a


def test_omega_power_fixed_by_idempotent():
    e = parse_transformation("1,1,3")
    assert omega_power(e) == e


@given(small_maps)
def test_omega_power_is_the_unique_idempotent_power(imgs):
    a = Transformation(imgs)
    powers = {a}
    x = a
    for _ in range(3 * len(imgs)):
        x = x * a
        powers.add(x)
    idem = {p for p in powers if p * p == p}
    assert idem == {omega_power(a)}


def test_single_generator_closure_has_one_idempotent():
    for a in singular_maps(4):
        assert idempotents(closure([a])) == {omega_power(a)}


# ---------------------------------------------------------------------------
# closure


def test_closure_single_idempotent():
    e = parse_transformation("1,1,3,4")
    assert closure([e]).elements == frozenset([e])


def test_closure_of_constants():
    consts = [Transformation.constant(3, v) for v in range(3)]
    s = closure(consts)
    assert s.elements == frozenset(consts)
    assert s.is_closed()


def test_closure_rejects():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([Transformation.constant(3, 0), Transformation.constant(4, 0)])


def test_closure_cap():
    gens = [MAP_A5, parse_transformation("2,3,4,5,1")]
    with pytest.raises(EnumerationCapExceeded):
        closure(gens, cap=10)


def cap_message_counts(err):
    found = re.search(r"cap of (\d+) states \((\d+) states visited, "
                      r"(\d+) in the frontier", str(err.value))
    assert found, str(err.value)
    return tuple(int(v) for v in found.groups())


def test_closure_cap_boundary():
    gens = [MAP_A5, parse_transformation("2,3,4,5,1")]
    size = len(closure(gens))
    assert len(closure(gens, cap=size)) == size
    with pytest.raises(EnumerationCapExceeded) as err:
        closure(gens, cap=size - 1)
    cap, visited, frontier = cap_message_counts(err)
    assert cap == visited == size - 1
    assert 0 < frontier < size


def test_generate_arc_set_cap_boundary():
    # the walk holds the whole monoid: the non-units and the group itself
    for spec, a in (("agl1:5", MAP_A5), ("d:5", MAP_B5)):
        group = build_group(spec)
        units = group.order()
        size = len(generate_arc_set([a], group)) + units
        assert len(generate_arc_set([a], group, cap=size)) == size - units
        with pytest.raises(EnumerationCapExceeded) as err:
            generate_arc_set([a], group, cap=size - 1)
        cap, visited, frontier = cap_message_counts(err)
        assert cap == visited == size - 1
        assert 0 < frontier < size


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=1, max_size=3)))
def test_closure_matches_pairwise_worklist(gen_lists):
    gens = [Transformation(g) for g in gen_lists]
    assert closure(gens).elements == frozenset(naive_closure(gens))


def test_closure_matches_pairwise_worklist_degree4():
    gens = [parse_transformation("2,3,4,2"), parse_transformation("1,1,3,4"),
            parse_transformation("2,1,4,3")]
    assert closure(gens).elements == frozenset(naive_closure(gens))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=2, max_size=3)))
def test_closure_idempotent_and_monotone(gen_lists):
    gens = [Transformation(g) for g in gen_lists]
    s = closure(gens)
    assert closure(sorted(s.elements, key=lambda t: t.images)).elements \
        == s.elements
    sub = closure(gens[:1])
    assert sub.elements <= s.elements


def test_closure_of_gah_orbit_is_all_singular_maps():
    els = [e.images for e in enumerate_elements(build_group("agl1:5"))]
    gens = {tuple(h[MAP_A5.images[g[i]]] for i in range(5))
            for g in els for h in els}
    s = closure([Transformation(t) for t in sorted(gens)])
    assert len(s) == 5 ** 5 - math.factorial(5) == 3005
    assert s.elements == full_singular(5).elements


def test_is_closed_detects_holes():
    a = parse_transformation("2,3,4,2")
    broken = TransSemigroup(4, frozenset([a]))
    assert not broken.is_closed()


# ---------------------------------------------------------------------------
# generate_arc and the coarsening-cone law


def test_arc_rejects_permutation():
    with pytest.raises(ValueError, match="permutation given"):
        generate_arc(parse_transformation("2,1,3,4,5"), build_group("s:5"))
    with pytest.raises(ValueError, match="degree"):
        generate_arc(MAP_A5, build_group("s:4"))


def test_arc_constant_over_transitive():
    s = generate_arc(Transformation.constant(4, 0), build_group("c:4"))
    assert s.elements == frozenset(Transformation.constant(4, v)
                                   for v in range(4))
    assert contains_all_constants(s)


def test_arc_degree5_pair_reaches_everything():
    s = generate_arc(MAP_A5, build_group("agl1:5"))
    assert len(s) == 3005
    assert s.elements == full_singular(5).elements


def test_arc_degree5_non_pair_is_proper():
    small = generate_arc(MAP_B5, build_group("agl1:5"))
    big = generate_arc(MAP_B5, build_group("s:5"))
    assert small.elements < big.elements


@pytest.mark.parametrize("n", [2, 3, 4])
def test_arc_equals_coarsening_cone_exhaustive(n):
    sym = build_group("s:%d" % n)
    singular = singular_maps(n)
    for a in singular:
        arc = generate_arc(a, sym)
        expected = {b for b in singular
                    if coarsening_feasible(a.kernel_type, b.kernel_type)}
        assert arc.elements == frozenset(expected)
        for b in singular:
            assert sn_normal_membership(b, a) == (b in arc.elements)


def test_arc_equals_coarsening_cone_degree5_sampled():
    sym = build_group("s:5")
    reps = [first_of_type(5, shape) for shape in
            [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)]]
    rng = random.Random(55)
    pool = singular_maps(5)
    sample = reps + rng.sample(pool, 15)
    for a in sample:
        arc = generate_arc(a, sym)
        expected = {b for b in pool
                    if coarsening_feasible(a.kernel_type, b.kernel_type)}
        assert arc.elements == frozenset(expected)


@pytest.mark.parametrize("n", [3, 4])
def test_arc_alternating_equals_symmetric(n):
    alt = build_group("a:%d" % n)
    sym = build_group("s:%d" % n)
    for a in singular_maps(n):
        assert generate_arc(a, alt).elements == generate_arc(a, sym).elements


def test_arc_alternating_equals_symmetric_degree5():
    alt = build_group("a:5")
    sym = build_group("s:5")
    rng = random.Random(7)
    for a in rng.sample(singular_maps(5), 12):
        assert generate_arc(a, alt).elements == generate_arc(a, sym).elements


def _rank_slice(semigroup, r):
    return {t for t in semigroup if t.rank == r}


def test_top_rank_slice_decides_equality_degree4():
    sym = build_group("s:4")
    groups = [build_group(spec) for spec in ["c:4", "d:4", "a:4"]]
    for a in singular_maps(4):
        big = generate_arc(a, sym)
        for g in groups:
            small = generate_arc(a, g)
            full_eq = small.elements == big.elements
            slice_eq = _rank_slice(small, a.rank) == _rank_slice(big, a.rank)
            assert full_eq == slice_eq


def test_top_rank_slice_decides_equality_degree5():
    sym = build_group("s:5")
    groups = [build_group(spec) for spec in ["c:5", "agl1:5"]]
    rng = random.Random(11)
    for a in rng.sample(singular_maps(5), 10) + [MAP_A5, MAP_B5]:
        big = generate_arc(a, sym)
        for g in groups:
            small = generate_arc(a, g)
            full_eq = small.elements == big.elements
            slice_eq = _rank_slice(small, a.rank) == _rank_slice(big, a.rank)
            assert full_eq == slice_eq


# ---------------------------------------------------------------------------
# conjugate closure


def test_conjugates_under_trivial_group_give_powers():
    a = parse_transformation("2,3,4,2")
    trivial = build_group("fix+fix+fix+c:1")
    assert trivial.degree == 4 and trivial.order() == 1
    s = generate_conjugates(a, trivial)
    assert s.elements == closure([a]).elements


def test_conjugates_equal_arc_on_affine_pair():
    g = build_group("agl1:5")
    conj = generate_conjugates(MAP_A5, g)
    arc = generate_arc(MAP_A5, g)
    assert conj.elements == arc.elements
    assert idempotents(conj) == idempotents(arc)


def test_conjugates_always_inside_arc():
    g = build_group("d:4")
    for a in [parse_transformation("1,1,3,4"), parse_transformation("2,2,2,1"),
              parse_transformation("1,1,2,2")]:
        assert generate_conjugates(a, g).elements \
            <= generate_arc(a, g).elements


def test_conjugates_rejects_permutation():
    with pytest.raises(ValueError, match="permutation given"):
        generate_conjugates(parse_transformation("2,1,3,4"), build_group("c:4"))


# ---------------------------------------------------------------------------
# membership by kernel type


def test_membership_reflexive_and_strict():
    assert sn_normal_membership(MAP_A5, MAP_A5)
    assert sn_normal_membership(MAP_B5, MAP_A5)
    assert not sn_normal_membership(MAP_A5, MAP_B5)


def test_membership_matches_pointwise_kernel_translation():
    g5 = build_group("s:5")
    for a, b, expected in [(MAP_A5, MAP_B5, True), (MAP_B5, MAP_A5, False)]:
        found = any(refines(act_set_partition(a.kernel, g.images), b.kernel)
                    for g in enumerate_elements(g5))
        assert found == expected
        assert sn_normal_membership(b, a) == expected


def test_membership_rejects():
    with pytest.raises(ValueError):
        sn_normal_membership(MAP_A5, parse_transformation("2,1,3,4,5"))
    with pytest.raises(ValueError):
        sn_normal_membership(parse_transformation("1,1,3"), MAP_A5)


# ---------------------------------------------------------------------------
# idempotents


def test_idempotents_of_constants():
    consts = [Transformation.constant(3, v) for v in range(3)]
    assert idempotents(closure(consts)) == set(consts)


def _idempotent_count_formula(n):
    # one idempotent per (set partition with < n blocks, section of it):
    # the section picks the fixed image point inside each block
    total = 0
    for blocks in _set_partitions(tuple(range(n))):
        if len(blocks) == n:
            continue
        weight = 1
        for b in blocks:
            weight *= len(b)
        total += weight
    return total


def _set_partitions(points):
    if not points:
        yield ()
        return
    head, rest = points[0], points[1:]
    for k in range(len(rest) + 1):
        for others in combinations(rest, k):
            block = (head,) + others
            pool = tuple(p for p in rest if p not in others)
            for more in _set_partitions(pool):
                yield (block,) + more


@pytest.mark.parametrize("n,expected", [(3, 9), (4, 40), (5, 195)])
def test_idempotent_counts(n, expected):
    assert _idempotent_count_formula(n) == expected
    scan = {t for t in singular_maps(n) if t * t == t}
    assert len(scan) == expected
    assert idempotents(full_singular(n)) == scan


# ---------------------------------------------------------------------------
# regularity


def test_band_is_regular():
    consts = [Transformation.constant(4, v) for v in range(4)]
    assert is_regular(closure(consts))


def test_full_singular_part_is_regular():
    assert is_regular(full_singular(4))
    assert is_regular(full_singular(5))


def test_non_regular_single_generator_closure():
    a = parse_transformation("2,3,3,1")
    s = closure([a])
    assert not is_regular(s)
    # cubic oracle agrees: no y with a y a = a
    assert not any(a * y * a == a for y in s)


def brute_regular(semigroup):
    return all(any(x * y * x == x for y in semigroup) for x in semigroup)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                min_size=1, max_size=2))
def test_regularity_matches_cubic_oracle(gen_lists):
    gens = [Transformation(g) for g in gen_lists]
    s = closure(gens)
    assert is_regular(s) == brute_regular(s)


# ---------------------------------------------------------------------------
# idempotent generation


def test_band_idempotent_generated():
    consts = [Transformation.constant(3, v) for v in range(3)]
    assert is_idempotent_generated(closure(consts))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_full_singular_part_idempotent_generated(n):
    assert is_idempotent_generated(full_singular(n))


def test_conjugate_closures_idempotent_generated_degree4():
    sym = build_group("s:4")
    seen_types = set()
    for a in singular_maps(4):
        if a.kernel_type in seen_types:
            continue
        seen_types.add(a.kernel_type)
        assert is_idempotent_generated(generate_conjugates(a, sym))


def test_idempotent_generation_failure():
    a = parse_transformation("2,1,2,2")
    s = closure([a])
    assert len(s) == 2 and not is_idempotent_generated(s)
    found = next(t for t in singular_maps(4)
                 if t.rank == 2 and not is_idempotent_generated(closure([t])))
    assert found.rank == 2


# ---------------------------------------------------------------------------
# constants


def test_constants_in_full_singular_part():
    assert contains_all_constants(full_singular(3))


def test_constants_missing_from_small_closure():
    e = parse_transformation("1,1,3,3")
    assert not contains_all_constants(closure([e]))


def test_constants_from_any_pair_with_transitive_group():
    s = generate_arc(MAP_A5, build_group("agl1:5"))
    assert contains_all_constants(s)


# ---------------------------------------------------------------------------
# Green's relations


def test_green_equal_elements():
    s = full_singular(3)
    a = Transformation.constant(3, 0)
    report = green_checks(s, a, a)
    assert report.all_agree
    assert all(v.by_ideals for v in report.verdicts)


def test_green_two_constants():
    s = full_singular(3)
    a = Transformation.constant(3, 0)
    b = Transformation.constant(3, 1)
    report = green_checks(s, a, b)
    by_name = report.as_dict()
    assert by_name["R"] == {"ideals": True, "invariants": True}
    assert by_name["L"] == {"ideals": False, "invariants": False}
    assert by_name["J"] == {"ideals": True, "invariants": True}
    assert report.all_agree


def test_green_random_pairs_agree_degree4():
    s = full_singular(4)
    pool = sorted(s.elements, key=lambda t: t.images)
    rng = random.Random(44)
    for _ in range(12):
        a, b = rng.choice(pool), rng.choice(pool)
        assert green_checks(s, a, b).all_agree


def test_green_one_pair_degree5():
    s = full_singular(5)
    report = green_checks(s, MAP_A5, MAP_B5)
    assert report.all_agree
    assert not report.as_dict()["J"]["ideals"]  # ranks 4 vs 3


def test_green_rejects_foreign_elements():
    s = full_singular(3)
    with pytest.raises(ValueError):
        green_checks(s, Transformation.constant(3, 0),
                     parse_transformation("1,2,3"))


# ---------------------------------------------------------------------------
# local groups at idempotents


def test_local_group_at_constant():
    s = full_singular(3)
    e = Transformation.constant(3, 2)
    members, report = local_group_at(s, e)
    assert members == {e}
    assert report.size == 1 and report.factorial_match


def test_local_group_rank2_in_degree4():
    s = full_singular(4)
    e = parse_transformation("1,1,3,3")
    assert e * e == e
    members, report = local_group_at(s, e)
    assert report.size == 2 and report.rank == 2
    assert report.closed and report.has_identity and report.is_group_like


def test_local_group_rank3_in_degree5():
    s = full_singular(5)
    e = parse_transformation("1,1,3,4,4")
    assert e * e == e
    members, report = local_group_at(s, e)
    assert report.size == 6 and report.factorial_match


def test_local_groups_at_every_idempotent_degree4():
    s = full_singular(4)
    for e in idempotents(s):
        members, report = local_group_at(s, e)
        assert report.size == math.factorial(e.rank)
        assert report.is_group_like


def test_local_group_rejects():
    s = full_singular(3)
    with pytest.raises(ValueError):
        local_group_at(s, parse_transformation("2,3,3"))
    with pytest.raises(ValueError):
        local_group_at(s, parse_transformation("1,1,2,2"))


# ---------------------------------------------------------------------------
# semigroup container


def test_semigroup_dump_format():
    consts = [Transformation.constant(3, v) for v in range(3)]
    s = closure(consts)
    assert s.sorted_texts() == ["1,1,1", "2,2,2", "3,3,3"]
    assert len(s) == 3
    assert Transformation.constant(3, 0) in s
