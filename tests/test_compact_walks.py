"""Tuple walks on `bytes` rows against the walks of the public `act_tuple`.

Element enumeration, `tsemi` and the tuple-orbit references of the tests
(`reference.tuple_orbit`) walk point tuples as `bytes` rows through
`walk_rows`.  Here every such walk is compared with the orbit of the
same tuple under `act_tuple`: same orbit size, the decoded rows are exactly
the public orbit, and the cap trips at the same state count.  Walks that may
hold more than `MAX_STATES` states (by the closed-form count and the group
order) are left out, which only drops the longest tuples of S_7, S_8, A_8,
S_9 and A_9.
"""

import math
import random

import pytest

from reference import tuple_orbit

from parthom.catalog import catalog_entries
from parthom.perm import (
    OrbitCapExceeded,
    PermGroup,
    Permutation,
    act_tuple,
    encode_points,
    orbit,
    point_tables,
    walk_rows,
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


def check_walk(group, t):
    seed = tuple(range(t))
    plain = orbit(group, seed, act_tuple)
    rows = tuple_orbit(group, t)
    assert len(rows) == len(plain), t
    assert {tuple(row) for row in rows} == plain, t
    start = encode_points(seed, group.degree)
    tables = point_tables(group.raw_gens())
    if len(rows) > 1:
        with pytest.raises(OrbitCapExceeded):
            walk_rows((start,), tables, len(rows) - 1, OrbitCapExceeded)
        with pytest.raises(OrbitCapExceeded):
            orbit(group, seed, act_tuple, cap=len(rows) - 1)
    assert walk_rows((start,), tables, len(rows), OrbitCapExceeded) == rows


@pytest.mark.parametrize("entry", catalog_entries(9), ids=lambda e: e.spec)
def test_compact_walks_match_public_actions_on_catalog(entry):
    group = entry.group
    order = group.order()
    for t in range(1, group.degree + 1):
        if min(math.perm(group.degree, t), order) <= MAX_STATES:
            check_walk(group, t)


def test_compact_walks_match_public_actions_on_random_groups():
    for group in random_groups(12):
        for t in range(1, group.degree + 1):
            check_walk(group, t)
