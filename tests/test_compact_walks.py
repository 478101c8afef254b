"""Compact-state orbit walks against the plain walks under the public actions.

`orbit`, `orbit_transversal` and `stabilizer_generators` walk k-sets as
bitmasks and point tuples as bytes (`perm.CompactAction`).  Here every such
walk is compared with the walk of the matching public tuple action: same
orbit size, the decoded states are exactly the public orbit, and the cap
trips at the same state count.  Schreier trees and stabilizers built on
compact states hold the same elements as those built under the public
actions.  Walks that may hold more than `MAX_STATES` states (by the
closed-form count and the group order) are left out, which only drops the
longest tuples of S_7, S_8, A_8, S_9 and A_9.
"""

import math
import random

import pytest

from parthom.catalog import build_group, catalog_entries
from parthom.homogeneity import decide_t_homogeneous, decide_t_transitive
from parthom.partitions import act_ordered_partition, first_partition_of_type
from parthom.perm import (
    OrbitCapExceeded,
    PermGroup,
    Permutation,
    act_set,
    act_tuple,
    compact_set,
    compact_tuple,
    mask_map,
    mask_of,
    orbit,
    orbit_transversal,
    points_of,
    stabilizer_generators,
)

MAX_STATES = 5000


def random_group(rng):
    """As in acceptance criterion 09: degree 4-9, one or two generators."""
    degree = rng.randint(4, 9)
    gens = [Permutation(tuple(rng.sample(range(degree), degree)))
            for _ in range(rng.randint(1, 2))]
    return PermGroup(degree, gens, name="random")


def random_groups(count, seed=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        group = random_group(rng)
        if group.order() <= MAX_STATES:
            out.append(group)
    return out


def walks(group):
    """(label, seed, public action, compact action, closed-form count) for
    every t."""
    n = group.degree
    for t in range(1, n + 1):
        seed = tuple(range(t))
        yield "%d-set" % t, seed, act_set, compact_set, math.comb(n, t)
        yield "%d-tuple" % t, seed, act_tuple, compact_tuple, math.perm(n, t)


def check_walk(group, seed, act, compact, label=""):
    n = group.degree
    plain = orbit(group, seed, act)
    start = compact.encode(seed, n)
    states = orbit(group, start, compact)
    assert len(states) == len(plain), label
    assert {compact.decode(s, n) for s in states} == plain, label
    assert compact.decode(start, n) == seed, label
    if len(states) > 1:
        with pytest.raises(OrbitCapExceeded):
            orbit(group, start, compact, cap=len(states) - 1)
        assert len(orbit(group, start, compact, cap=len(states))) == len(states)


@pytest.mark.parametrize("entry", catalog_entries(9), ids=lambda e: e.spec)
def test_compact_walks_match_public_actions_on_catalog(entry):
    group = entry.group
    order = group.order()
    for label, seed, act, compact, count in walks(group):
        if min(count, order) <= MAX_STATES:
            check_walk(group, seed, act, compact, label)


def test_compact_walks_match_public_actions_on_random_groups():
    for group in random_groups(12):
        for label, seed, act, compact, count in walks(group):
            check_walk(group, seed, act, compact, label)


def test_mask_map_matches_pointwise_images():
    # one, two and three byte tables, and the loop over more of them
    rng = random.Random(7)
    for n in (1, 5, 8, 9, 16, 17, 24, 25, 33, 70):
        images = tuple(rng.sample(range(n), n))
        step = mask_map(images)
        for _ in range(20):
            points = rng.sample(range(n), rng.randint(0, n))
            assert step(mask_of(points)) == mask_of(images[p] for p in points)
            assert points_of(mask_of(points)) == tuple(sorted(points))


def test_degree_300_uses_the_tuple_fallback():
    group = build_group("c:300")
    result = decide_t_transitive(group, 1)
    assert result.verdict and result.orbit_size == 300
    assert decide_t_homogeneous(group, 1).orbit_size == 300
    assert compact_tuple.encode((0, 1), 300) == (0, 1)
    check_walk(group, (0, 1), act_tuple, compact_tuple)
    check_walk(group, tuple(range(300)), act_tuple, compact_tuple)
    ordered = first_partition_of_type((2,) + (1,) * 298)
    assert len(orbit(group, ordered, act_ordered_partition)) == 300


def test_cap_error_reports_progress_not_the_seed():
    group = build_group("s:6")
    start = compact_tuple.encode((0, 1, 2), 6)
    with pytest.raises(OrbitCapExceeded) as err:
        orbit(group, start, compact_tuple, cap=10)
    message = str(err.value)
    assert "cap of 10 states" in message
    assert "10 states visited" in message
    assert "in the frontier" in message
    assert repr(start) not in message


@pytest.mark.parametrize("entry", catalog_entries(9), ids=lambda e: e.spec)
def test_stabilizers_on_masks_match_sorted_tuples(entry):
    group = entry.group
    for t in range(1, group.degree // 2 + 1):
        seed = tuple(range(t))
        on_masks = stabilizer_generators(group, mask_of(seed), compact_set)
        on_tuples = stabilizer_generators(group, seed, act_set)
        assert on_masks.generators == on_tuples.generators, t


@pytest.mark.parametrize("entry", catalog_entries(7), ids=lambda e: e.spec)
def test_compact_transversal_elements_map_seed_to_state(entry):
    group = entry.group
    n = group.degree
    for label, seed, act, compact, count in walks(group):
        if min(count, group.order()) > MAX_STATES:
            continue
        start = compact.encode(seed, n)
        tree = orbit_transversal(group, start, compact)
        plain = orbit_transversal(group, seed, act)
        assert [compact.decode(x, n) for x in tree] == list(plain), label
        for x, u in tree.items():
            assert compact.decode(x, n) == act(seed, u.images), label
            assert plain[act(seed, u.images)] == u, label
