"""The stabilizer-chain layer against plain enumeration and orbit walks.

Every chain has the base 0, 1, 2, ..., so the orbit of the tuple
(0, ..., t-1) is the product of the first t basic orbit lengths, and the
decisions read t-transitivity off it.  Here the chain is checked against the
element list and the breadth-first tuple orbits on every catalog group to
degree 9 and on seeded random groups, intransitive ones and ones fixing
point 0 among them.  Stabilizers built to their known order are checked
against the orbit-stabilizer count, including the case where one sifting
pass over the Schreier generators falls short and Schreier-Sims completes
the chain.  Partition and t-set orbits read off the chain, a tuple orbit
divided by the block reorderings the group realizes, are checked against
the orbits walked under the public partition and set actions, under every
plan, the reversed chain's included, and on two m:24 rows that no walk
reaches, against a tower of set stabilizers.  Every chain, reversed ones
included, is the chain the restart-from-zero completion of
`reference.restarted_schreier_sims` builds, level by level.
"""

import itertools
import math
import random

import pytest

from parthom import perm
from parthom.catalog import build_group, catalog_entries, fix_point_extension
from parthom.homogeneity import (
    METHOD_CHAIN,
    ChainPlan,
    chain_orbit_size,
    chain_plans,
    decide_t_homogeneous,
    decide_t_transitive,
)
from parthom.partitions import (
    act_ordered_partition,
    act_set_partition,
    first_partition_of_type,
    integer_partitions,
)
from parthom.perm import (
    EnumerationCapExceeded,
    PermGroup,
    Permutation,
    act_point,
    act_set,
    act_tuple,
    enumerate_elements,
    orbit,
    orbit_transversal,
    schreier_sims,
    stabilizer_generators,
)
import reference
from reference import restarted_schreier_sims, tuple_orbit

CATALOG = catalog_entries(9)
RANDOM_ORDER_CAP = 5000


def random_group(rng):
    """Degree 4-9, one to three generators that each permute only a random
    subset of the points (all of them half the time), so some groups are
    intransitive and some fix point 0."""
    degree = rng.randint(4, 9)
    if rng.random() < 0.5:
        moved = list(range(degree))
    else:
        moved = sorted(rng.sample(range(degree), rng.randint(2, degree - 1)))
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(degree))
        for p, q in zip(moved, rng.sample(moved, len(moved))):
            images[p] = q
        gens.append(Permutation(images))
    return PermGroup(degree, gens, name="random")


def random_groups(count=20, seed=6):
    """(group, its elements) for `count` random groups of at most
    RANDOM_ORDER_CAP elements, found by enumeration rather than by the
    chain under test."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        group = random_group(rng)
        try:
            elements = enumerate_elements(group, cap=RANDOM_ORDER_CAP)
        except EnumerationCapExceeded:
            continue
        out.append((group, elements))
    return out


RANDOM = random_groups()


def test_random_groups_cover_intransitive_and_fixed_point_cases():
    transitive = [len(orbit(g, 0, act_point)) == g.degree for g, _ in RANDOM]
    assert 0 < sum(transitive) < len(RANDOM)
    assert any(orbit(g, 0, act_point) == {0} for g, _ in RANDOM)


def _is_even(perm):
    """Whether the permutation has even sign: n minus its cycle count is
    even."""
    seen = set()
    cycles = 0
    for start in range(perm.degree):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = perm.images[x]
    return (perm.degree - cycles) % 2 == 0


def test_symmetric_or_alternating_matches_parity_definition():
    """The order test against the definition: order n!, or order n!/2 with
    every generator even, on the catalog to degree 9, its fix+ extensions
    and the random groups."""
    groups = [e.group for e in CATALOG]
    groups += [fix_point_extension(g) for g in groups]
    groups += [g for g, _ in RANDOM]
    verdicts = []
    for group in groups:
        full = math.factorial(group.degree)
        order = group.order()
        expected = order == full or (
            2 * order == full and all(map(_is_even, group.generators)))
        assert group.is_symmetric_or_alternating() == expected, group.name
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def check_chain(group, elements):
    chain = schreier_sims(group.degree, group.generators)
    assert chain.order() == len(elements)
    assert chain.base == tuple(range(len(chain.levels)))
    for k, level in enumerate(chain.levels):
        for g in level.gens:
            assert g.images[:k] == tuple(range(k))
        for x, u in level.transversal.items():
            assert u.images[k] == x
            assert level.inverses[x] == u.inverse().images
    if chain.levels:
        assert len(chain.levels[-1].transversal) > 1, "trailing trivial level"
    for g in elements:
        assert chain.sift(g).is_identity()
    # non-members: their residues stay non-trivial
    members = {g.images for g in elements}
    rng = random.Random(group.degree)
    for _ in range(20):
        g = Permutation(rng.sample(range(group.degree), group.degree))
        assert chain.sift(g).is_identity() == (g.images in members)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.spec)
def test_chain_matches_enumeration_on_catalog(entry):
    check_chain(entry.group, enumerate_elements(entry.group))


def test_chain_matches_enumeration_on_random_groups():
    for group, elements in RANDOM:
        check_chain(group, elements)


def check_tuple_orbits(group):
    """The chain's orbit of (0, ..., t-1) against the breadth-first walk, and
    the decisions that read it against the walked verdicts."""
    n = group.degree
    chain = group.chain()
    for t in range(1, n + 1):
        walked = len(tuple_orbit(group, t))
        assert chain.prefix_orbit_size(t) == walked, t
        trans = decide_t_transitive(group, t)
        assert trans.verdict == (walked == math.perm(n, t)), t
        if trans.method == METHOD_CHAIN:
            assert trans.orbit_size == walked, t
        hom = decide_t_homogeneous(group, t)
        sets = len(orbit(group, tuple(range(t)), act_set))
        assert hom.verdict == (sets == math.comb(n, t)), t
        if hom.method == METHOD_CHAIN:
            # the decision reads the orbit of {0, ..., min(t, n-t)-1}
            seeded = orbit(group, tuple(range(min(t, n - t))), act_set)
            assert hom.orbit_size == len(seeded), t


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.spec)
def test_chain_tuple_orbits_match_walks_on_catalog(entry):
    check_tuple_orbits(entry.group)


def test_chain_tuple_orbits_match_walks_on_random_groups():
    for group, _ in RANDOM:
        check_tuple_orbits(group)


def test_mathieu_transitivity_degrees_from_the_chain():
    m24 = build_group("m:24")
    assert decide_t_transitive(m24, 5).verdict
    assert decide_t_transitive(m24, 5).orbit_size == math.perm(24, 5)
    assert not decide_t_transitive(m24, 6).verdict
    m23 = build_group("m:23")
    assert decide_t_transitive(m23, 4).verdict
    assert decide_t_transitive(m23, 4).orbit_size == math.perm(23, 4)
    assert not decide_t_transitive(m23, 5).verdict


@pytest.mark.slow
def test_m24_five_tuple_walk_matches_the_chain():
    m24 = build_group("m:24")
    walked = len(tuple_orbit(m24, 5))
    assert walked == 5100480
    assert decide_t_transitive(m24, 5).orbit_size == walked


# -- stabilizers built to a known order ---------------------------------------

def check_stabilizer(group, seed, act, fixes):
    order = group.order()
    stab = stabilizer_generators(group, seed, act)
    size = len(orbit(group, seed, act))
    # the order from a fresh chain of the returned generators, not the one
    # the stabilizer carries
    assert PermGroup(group.degree, stab.generators).order() * size == order
    assert stab.order() * size == order
    for g in stab.generators:
        assert fixes(g.images)
    return stab


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.spec)
def test_known_order_stabilizers_on_catalog(entry):
    group = entry.group
    for t in range(1, group.degree // 2 + 1):
        seed = tuple(range(t))
        check_stabilizer(group, seed, act_set,
                         lambda images: act_set(seed, images) == seed)
        check_stabilizer(group, seed, act_tuple,
                         lambda images: images[:t] == seed)


@pytest.mark.parametrize("gens", [
    # S_4 on points 1..4: the whole group fixes point 0, so the Schreier
    # generators are the generators themselves, and sifting those two
    # builds a chain of order 12 only
    [(0, 4, 2, 3, 1), (0, 4, 1, 2, 3)],
    # a random S_8, from a seeded search over 2-generator groups of degree
    # 8 and 9: one pass over the Schreier generators of point 0 reaches
    # order 1680 of 5040
    [(6, 0, 7, 5, 4, 2, 1, 3), (6, 2, 3, 4, 5, 1, 0, 7)],
], ids=["s4-fixing-0", "s8-random"])
def test_stabilizer_falls_back_to_schreier_sims(gens, monkeypatch):
    group = PermGroup(len(gens[0]), [Permutation(g) for g in gens])
    group.order()
    completions = []

    def close(levels):
        completions.append(math.prod(len(l.transversal) for l in levels))
        return original(levels)

    original = perm._close
    monkeypatch.setattr(perm, "_close", close)
    stab = stabilizer_generators(group, 0, act_point)
    monkeypatch.undo()
    assert len(completions) == 1
    assert completions[0] < stab.order()
    assert stab.order() * len(orbit(group, 0, act_point)) == group.order()
    assert all(g.images[0] == 0 for g in stab.generators)


# -- partition and t-set orbits read off the chain ----------------------------

def check_block_orbit_reads(group):
    """Every plan's chain read against the orbit of its seed walked under the
    public action, for every shape, unordered and ordered, and every t-set
    seed; the plans are called directly, whatever the decisions would
    pick."""
    n = group.degree
    for lam in integer_partitions(n):
        seed = first_partition_of_type(lam)
        for ordered, act in ((False, act_set_partition),
                             (True, act_ordered_partition)):
            walked = len(orbit(group, seed, act))
            for plan in chain_plans(lam, ordered):
                assert chain_orbit_size(group, plan) == walked, (lam, plan)
    for t in range(1, n):
        walked = len(orbit(group, tuple(range(t)), act_set))
        assert chain_orbit_size(group, ChainPlan((t,), True)) == walked, t


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.spec)
def test_block_orbit_reads_match_walks_on_catalog(entry):
    check_block_orbit_reads(entry.group)


def test_block_orbit_reads_match_walks_on_random_groups():
    for group, _ in RANDOM:
        check_block_orbit_reads(group)


def test_chain_plans_cover_every_omission():
    # unordered: the singletons, the last block, the first block
    assert chain_plans((3, 2, 1, 1), False) == [
        ChainPlan((3, 2), False), ChainPlan((1, 1, 2), False, True)]
    assert chain_plans((3, 3, 2), False) == [
        ChainPlan((3, 3, 2), False), ChainPlan((3, 3), False)]
    assert chain_plans((4, 2, 2), False) == [
        ChainPlan((4, 2, 2), False), ChainPlan((2, 2), False, True)]
    # ordered: the last block or the first
    assert chain_plans((3, 2, 1), True) == [
        ChainPlan((3, 2), True), ChainPlan((1, 2), True, True)]
    assert ChainPlan((2, 2, 1), False).reorderings == 2 * 2 * 2
    assert ChainPlan((2, 2, 1), True).reorderings == 4


def check_reversed_chain(group):
    """The reversed chain is a chain of the group with base n-1, n-2, ...:
    conjugated back by i -> n-1-i, level k's generators fix n-1, ..., n-k
    and its transversal maps n-1-k where the labels say."""
    n = group.degree
    last = n - 1
    chain = group.reversed_chain()
    assert chain.order() == group.order()

    def back(images):
        return tuple(last - images[last - i] for i in range(n))

    for k, level in enumerate(chain.levels):
        for g in level.gens:
            images = back(g.images)
            assert all(images[last - i] == last - i for i in range(k))
            assert group.contains(Permutation(images))
        for x, u in level.transversal.items():
            assert back(u.images)[last - k] == last - x
    assert chain.base == tuple(range(len(chain.levels)))


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.spec)
def test_reversed_chain_on_catalog(entry):
    check_reversed_chain(entry.group)


def test_reversed_chain_on_random_groups():
    for group, _ in RANDOM:
        check_reversed_chain(group)


def tower(group, blocks):
    """The Schreier trees of a tower of set stabilizers: tree i is the orbit
    of block i under the stabilizer of blocks 0..i-1, walked under
    `act_set`, so the ordered orbit of the blocks is the product of the tree
    sizes."""
    trees = []
    for block in blocks:
        trees.append(orbit_transversal(group, block, act_set))
        group = stabilizer_generators(group, block, act_set)
    return trees


def in_ordered_orbit(trees, blocks):
    """Transporter test: whether the tuple of blocks lies in the ordered
    orbit of the tower's blocks, by moving each block back to the tower's
    with the tree element of its level."""
    for i, tree in enumerate(trees):
        u = tree.get(blocks[i])
        if u is None:
            return False
        back = u.inverse().images
        blocks = [act_set(b, back) for b in blocks]
    return True


@pytest.mark.parametrize("sizes, factors, unordered", [
    ((4, 4), [10626, 2880], 15301440),
    ((3, 3, 3), [2024, 1120, 54], 122411520),
], ids=["4,4,1^16", "3,3,3,1^15"])
def test_m24_block_orbits_beyond_any_walk(sizes, factors, unordered):
    m24 = build_group("m:24")
    blocks = first_partition_of_type(sizes)
    trees = tower(m24, blocks)
    assert [len(tree) for tree in trees] == factors
    ordered = math.prod(factors)
    realized = sum(in_ordered_orbit(trees, list(p))
                   for p in itertools.permutations(blocks))
    assert ordered // realized == unordered
    chain = m24.chain()
    assert chain.block_orbit_size(sizes, ordered=True) == ordered
    assert chain.block_orbit_size(sizes) == unordered
    lam = sizes + (1,) * (24 - sum(sizes))
    plan = min(chain_plans(lam, False), key=lambda p: p.reorderings)
    assert chain_orbit_size(m24, plan) == unordered


def chain_layout(chain):
    """Per level: base point, strong generators, and the transversal's
    points and elements, all in order."""
    return [(level.point, [g.images for g in level.gens],
             [(x, u.images) for x, u in level.transversal.items()])
            for level in chain.levels]


def check_chain_matches_restarted_scans(group):
    n = group.degree
    last = n - 1
    reversed_gens = [Permutation(tuple(last - g.images[last - i]
                                       for i in range(n)))
                     for g in group.generators]
    assert (chain_layout(schreier_sims(n, group.generators))
            == chain_layout(restarted_schreier_sims(n, group.generators)))
    assert (chain_layout(group.reversed_chain())
            == chain_layout(restarted_schreier_sims(n, reversed_gens)))


@pytest.mark.parametrize("entry", catalog_entries(12), ids=lambda e: e.spec)
def test_chain_matches_restarted_scans_on_catalog(entry):
    check_chain_matches_restarted_scans(entry.group)


@pytest.mark.parametrize("spec", ["m:11", "m:12", "m:23", "m:24",
                                  "pgammal2:32"])
def test_chain_matches_restarted_scans_on_large_groups(spec):
    check_chain_matches_restarted_scans(build_group(spec))


def test_chain_matches_restarted_scans_on_random_groups():
    for group, _ in RANDOM:
        check_chain_matches_restarted_scans(group)


def test_resumed_scans_sift_fewer_schreier_generators(monkeypatch):
    """The resumed scan skips the Schreier generators already sifted, so it
    absorbs the same residues from fewer sifts."""
    def counting(module):
        calls = []
        absorb = module._absorb

        def counted(levels, g, start):
            calls.append(start)
            return absorb(levels, g, start)
        monkeypatch.setattr(module, "_absorb", counted)
        return calls

    m24 = build_group("m:24")
    resumed, restarted = counting(perm), counting(reference)
    schreier_sims(24, m24.generators)
    restarted_schreier_sims(24, m24.generators)
    assert 0 < len(resumed) < len(restarted)


def test_level_trees_grow_in_place(monkeypatch):
    """While the chain of m:24 is built, a new strong generator extends its
    level's Schreier tree without changing an entry already there, and each
    tree point but the root is inverted once, when it joins."""
    extensions = []
    inverses = []
    add_generator = perm.ChainLevel.add_generator
    inverse = Permutation.inverse

    def checked_add_generator(level, h):
        before = [(x, u.images) for x, u in level.transversal.items()]
        add_generator(level, h)
        after = [(x, u.images) for x, u in level.transversal.items()]
        assert after[:len(before)] == before
        extensions.append(len(after) - len(before))

    def counted_inverse(u):
        inverses.append(u)
        return inverse(u)

    m24 = build_group("m:24")
    monkeypatch.setattr(perm.ChainLevel, "add_generator",
                        checked_add_generator)
    monkeypatch.setattr(Permutation, "inverse", counted_inverse)
    chain = schreier_sims(24, m24.generators)
    monkeypatch.undo()
    assert chain.order() == 244823040
    grown = sum(len(level.transversal) - 1 for level in chain.levels)
    assert len(inverses) == sum(extensions) == grown
    assert len(extensions) > len(chain.levels)
