"""Core permutation machinery: composition convention, chains, orbits."""

import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from parthom.catalog import build_group
from parthom.perm import (
    EnumerationCapExceeded,
    GroupFileError,
    OrbitCapExceeded,
    PermGroup,
    Permutation,
    act_point,
    act_set,
    act_tuple,
    burnside_orbit_count,
    enumerate_elements,
    orbit,
    orbit_count,
    orbit_transversal,
    parse_cycles,
    parse_group_file,
    render_group_file,
    schreier_sims,
    stabilizer_generators,
    walk,
)
from reference import induced_action


def sym_group(n):
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)], name="S_1")
    gens = [Permutation.from_cycles(n, [(1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
    return PermGroup(n, gens, name="S_%d" % n)


def perms(n):
    return st.permutations(range(n)).map(Permutation)


# -- composition convention --------------------------------------------------

def test_compose_is_left_then_right():
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    # point 1: p sends it to 2, then q sends 2 to 3
    assert (p * q).images[0] == 2
    assert (q * p).images[0] == 1


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
def test_compose_associative(pqr):
    p, q, r = pqr
    assert ((p * q) * r).images == (p * (q * r)).images


def test_compose_rejects_mixed_degrees():
    # products skip the permutation check, so the degrees are checked
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)
    with pytest.raises(ValueError):
        Permutation.identity(4) * Permutation.identity(3)


@given(st.integers(2, 8).flatmap(lambda n: perms(n)))
def test_inverse_cancels(p):
    ident = Permutation.identity(p.degree)
    assert (p * p.inverse()).images == ident.images
    assert (p.inverse() * p).images == ident.images


@given(st.integers(2, 9).flatmap(lambda n: perms(n)))
def test_cycle_string_round_trip(p):
    assert parse_cycles(p.cycle_string(), p.degree) == p


def test_one_line_round_trip():
    p = Permutation.from_one_line([3, 1, 2, 5, 4])
    assert p.one_line() == (3, 1, 2, 5, 4)
    assert p.cycle_string() == "(1 3 2)(4 5)"


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 5)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 2, 1)])


@pytest.mark.parametrize("images", [[0.0, 1.0], [1.0, 0], ["1", "0"],
                                    [0.5, 1]])
def test_non_integer_images_rejected(images):
    # [0.0, 1.0] sorts equal to [0, 1], so only the type check catches it
    with pytest.raises(ValueError, match="integers"):
        Permutation(images)


def test_integer_images_stored_as_ints():
    p = Permutation([True, False, 2])
    assert p.images == (1, 0, 2)
    assert all(type(v) is int for v in p.images)


# -- schreier-sims against explicit enumeration ------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_group_order(n):
    import math
    g = sym_group(n)
    assert g.order() == math.factorial(n)


def test_chain_order_matches_enumeration_small():
    cases = [
        PermGroup(4, [Permutation.from_cycles(4, [(1, 2, 3, 4)])]),        # C_4
        PermGroup(5, [Permutation.from_cycles(5, [(1, 2, 3, 4, 5)]),
                      Permutation.from_cycles(5, [(2, 5), (3, 4)])]),      # D_5
        PermGroup(4, [Permutation.from_cycles(4, [(1, 2, 3)]),
                      Permutation.from_cycles(4, [(2, 3, 4)])]),           # A_4
        PermGroup(6, [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]),
                      Permutation.from_cycles(6, [(2, 6), (3, 5)])]),      # D_6
    ]
    for g in cases:
        assert g.order() == len(enumerate_elements(g))


def test_membership_by_sifting():
    g = sym_group(4)
    a4 = PermGroup(4, [Permutation.from_cycles(4, [(1, 2, 3)]),
                       Permutation.from_cycles(4, [(2, 3, 4)])])
    odd = Permutation.from_cycles(4, [(1, 2)])
    assert g.contains(odd)
    assert not a4.contains(odd)
    for el in enumerate_elements(a4):
        assert a4.contains(el)


def test_chain_base_is_deterministic():
    gens = [Permutation.from_cycles(5, [(1, 2, 3, 4, 5)]),
            Permutation.from_cycles(5, [(2, 5), (3, 4)])]
    c1 = schreier_sims(5, gens)
    c2 = schreier_sims(5, gens)
    assert c1.base == c2.base
    assert [sorted(l.transversal) for l in c1.levels] == \
           [sorted(l.transversal) for l in c2.levels]


def test_sift_residue():
    a4 = PermGroup(4, [Permutation.from_cycles(4, [(1, 2, 3)]),
                       Permutation.from_cycles(4, [(2, 3, 4)])])
    chain = a4.chain()
    for el in enumerate_elements(a4):
        assert chain.sift(el).is_identity()
    odd = Permutation.from_cycles(4, [(1, 2)])
    residue = chain.sift(odd)
    assert not residue.is_identity()
    # the residue differs from odd by an element of A_4, so it is odd too
    assert not a4.contains(residue)


def reference_tree(seed, gens, act):
    """The Schreier tree as a plain breadth-first loop: the first path found
    to each state, states in the order found."""
    tree = {seed: Permutation.identity(gens[0].degree)}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(x, g.images)
                if y not in tree:
                    tree[y] = tree[x] * g
                    nxt.append(y)
        frontier = nxt
    return tree


TREE_GROUPS = [
    PermGroup(6, [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]),
                  Permutation.from_cycles(6, [(2, 6), (3, 5)])]),
    PermGroup(7, [Permutation.from_cycles(7, [(1, 2, 3, 4, 5, 6, 7)]),
                  Permutation.from_cycles(7, [(2, 3, 5), (4, 7, 6)])]),
]


@pytest.mark.parametrize("g", TREE_GROUPS + [sym_group(6)],
                         ids=["d6", "agl1_7", "s6"])
def test_transversals_match_plain_schreier_tree(g):
    for seed, act in ((0, act_point), ((0, 1), act_set), ((0, 1), act_tuple),
                      ((0, 2, 3), act_set)):
        tree = orbit_transversal(g, seed, act)
        ref = reference_tree(seed, g.generators, act)
        assert list(tree.items()) == list(ref.items())
        for x, u in tree.items():
            assert act(seed, u.images) == x
    # a chain level's tree grows in place as generators join, so it is a
    # Schreier tree of the orbit, not the breadth-first one built afresh
    for level in g.chain().levels:
        tree = list(level.transversal.items())
        assert set(level.transversal) == \
            set(reference_tree(level.point, level.gens, act_point))
        assert tree[0] == (level.point, Permutation.identity(g.degree))
        for i, (x, u) in enumerate(tree):
            assert u.images[level.point] == x
            if i:
                assert any(u == p * s for _, p in tree[:i]
                           for s in level.gens)


def cap_message_counts(err):
    message = str(err.value)
    found = re.search(r"cap of (\d+) states \((\d+) states visited, "
                      r"(\d+) in the frontier", message)
    assert found, message
    return tuple(int(v) for v in found.groups())


def test_enumeration_cap_boundary():
    for g in TREE_GROUPS + [sym_group(5)]:
        size = g.order()
        assert len(enumerate_elements(g, cap=size)) == size
        with pytest.raises(EnumerationCapExceeded) as err:
            enumerate_elements(g, cap=size - 1)
        cap, visited, frontier = cap_message_counts(err)
        assert cap == visited == size - 1
        assert 0 < frontier < size


def test_orbit_transversal_cap_boundary():
    g = sym_group(6)
    for seed, act, size in ((0, act_point, 6), ((0, 1), act_set, 15),
                            ((0, 1, 2), act_tuple, 120)):
        for walker in (orbit, orbit_transversal):
            assert len(walker(g, seed, act, cap=size)) == size
            with pytest.raises(OrbitCapExceeded) as err:
                walker(g, seed, act, cap=size - 1)
            cap, visited, frontier = cap_message_counts(err)
            assert cap == visited == size - 1
            assert 0 < frontier < size


def test_trivial_group():
    g = PermGroup(3, [Permutation.identity(3)])
    assert g.order() == 1
    assert g.contains(Permutation.identity(3))
    assert not g.contains(Permutation.from_cycles(3, [(1, 2)]))


# -- orbits ------------------------------------------------------------------

def test_point_orbit_transitive():
    g = PermGroup(6, [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])])
    assert orbit(g, 0, act_point) == set(range(6))


def test_set_orbit():
    g = sym_group(4)
    orb = orbit(g, (0, 1), act_set)
    assert len(orb) == 6          # all 2-subsets of a 4-set


def test_tuple_orbit():
    g = sym_group(4)
    orb = orbit(g, (0, 1), act_tuple)
    assert len(orb) == 12         # ordered pairs


def test_orbit_cap_raises():
    g = sym_group(8)
    with pytest.raises(OrbitCapExceeded):
        orbit(g, tuple(range(8)), act_tuple, cap=100)


def test_cap_error_reports_progress_not_the_seed():
    start = (0, 1, 2)
    with pytest.raises(OrbitCapExceeded) as err:
        orbit(sym_group(6), start, act_tuple, cap=10)
    message = str(err.value)
    assert "cap of 10 states" in message
    assert "10 states visited" in message
    assert "in the frontier" in message
    assert repr(start) not in message


def test_walk_refuses_a_cap_below_one():
    group = build_group("fix+c:3")
    assert orbit(group, 3, act_point, cap=1) == {3}
    for cap in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            orbit(group, 3, act_point, cap=cap)
        with pytest.raises(ValueError, match="at least 1"):
            walk((), [], cap, OrbitCapExceeded)


def test_walk_raises_when_the_seeds_exceed_the_cap():
    seeds = (0, 1, 2, 1)
    assert walk(seeds, [], 3, OrbitCapExceeded) == {0, 1, 2}
    with pytest.raises(OrbitCapExceeded,
                       match=r"cap of 2 states \(3 distinct seeds\)"):
        walk(seeds, [], 2, OrbitCapExceeded)


def test_enumeration_cap_raises():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_elements(sym_group(8), cap=1000)


# -- stabilizers -------------------------------------------------------------

def test_point_stabilizer_in_s5():
    g = sym_group(5)
    stab = stabilizer_generators(g, 0, act_point)
    assert stab.order() == 24
    for s in stab.generators:
        assert s.images[0] == 0


def test_setwise_stabilizer_in_s4():
    g = sym_group(4)
    stab = stabilizer_generators(g, (0, 1), act_set)
    assert stab.order() == 4      # swap inside {1,2} x swap inside {3,4}
    for s in stab.generators:
        assert act_set((0, 1), s.images) == (0, 1)


def test_orbit_stabilizer_product():
    g = PermGroup(6, [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]),
                      Permutation.from_cycles(6, [(2, 6), (3, 5)])])
    orb = orbit(g, (0, 1), act_set)
    stab = stabilizer_generators(g, (0, 1), act_set)
    assert len(orb) * stab.order() == g.order()


def test_induced_action_on_invariant_set():
    g = sym_group(5)
    stab = stabilizer_generators(g, (0, 1), act_set)
    induced = induced_action(stab, [0, 1])
    assert induced.degree == 2
    assert induced.order() == 2


def test_induced_action_rejects_moving_out():
    g = sym_group(4)
    with pytest.raises(ValueError):
        induced_action(g, [0, 1])


# -- orbit counting ----------------------------------------------------------

def test_burnside_equals_flood_fill():
    from itertools import combinations
    g = PermGroup(6, [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])])
    domain = [tuple(c) for c in combinations(range(6), 2)]
    assert burnside_orbit_count(g, domain, act_set) == \
        orbit_count(g, domain, act_set) == 3


def test_burnside_necklaces():
    # 2-colourings of a 6-cycle up to rotation: the classic 14
    g = PermGroup(6, [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])])
    domain = [tuple((i >> k) & 1 for k in range(6)) for i in range(64)]

    def act_colouring(col, images):
        out = [0] * 6
        for pos in range(6):
            out[images[pos]] = col[pos]
        return tuple(out)

    assert burnside_orbit_count(g, domain, act_colouring) == 14
    assert orbit_count(g, domain, act_colouring) == 14


def test_orbit_count_needs_a_union_of_orbits():
    g = PermGroup(6, [Permutation.from_cycles(6, [(1, 4)])])
    assert orbit_count(g, [0, 3, 1], act_point) == 2
    # the orbit {0, 3} of point 0 is no larger than the domain but leaves it
    with pytest.raises(ValueError):
        orbit_count(g, [0, 1, 2], act_point)
    # the orbits of (0, 1) and (0, 3) have 6 and 3 states, and both leave
    # a domain of three 2-sets
    c6 = PermGroup(6, [Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])])
    pairs = [tuple(c) for c in combinations(range(6), 2)]
    with pytest.raises(ValueError):
        orbit_count(c6, pairs[:3], act_set)
    assert orbit_count(c6, pairs, act_set) == 3


# -- group files -------------------------------------------------------------

GOOD_FILE = """\
# dihedral on 5 points
degree 5
(1 2 3 4 5)
img: 1 5 4 3 2
"""


def test_parse_group_file():
    g = parse_group_file(GOOD_FILE, name="d5")
    assert g.degree == 5
    assert g.order() == 10


def test_group_file_round_trip():
    g = parse_group_file(GOOD_FILE)
    text = render_group_file(g, comment="round trip")
    h = parse_group_file(text)
    assert h.degree == g.degree
    assert [x.images for x in h.generators] == [x.images for x in g.generators]


@pytest.mark.parametrize("bad,needle", [
    ("degree x\n(1 2)\n", "line 1"),
    ("(1 2)\ndegree 3\n", "line 1"),
    ("degree 3\nimg: 1 2\n", "line 2"),
    ("degree 3\n(1 4)\n", "line 2"),
    ("degree 3\nhello\n", "line 2"),
    ("", "degree"),
    ("degree 1_0\n", "line 1: not a number: '1_0'"),
    ("degree 10\n(1 1_0)\n", "line 2: not a number: '1_0'"),
    ("degree 3\nimg: 2 1 +3\n", "line 2: not a number: '+3'"),
])
def test_group_file_errors(bad, needle):
    with pytest.raises(GroupFileError) as err:
        parse_group_file(bad)
    assert needle in str(err.value)


# -- randomized order cross-check --------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    .map(lambda ps: PermGroup(n, [Permutation(p) for p in ps]))))
def test_random_group_order_matches_enumeration(g):
    assert g.order() == len(enumerate_elements(g))
