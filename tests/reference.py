"""Plain-walk references that tests compare the chain-read decisions with.

`tuple_orbit` walks the orbit of the tuple (0, ..., t-1) as `bytes` rows
through `walk_rows`, the way element enumeration walks its rows.
`walked_standard_pair` decides standardness from its definition, without
the stabilizer-chain reads of `parthom.homogeneity`: it walks the orbit of
a t-set, builds the t-set's setwise stabilizer, restricts it to the t-set
(`induced_action`), and walks the orbit of an ordered partition of the
rest of the shape under the public `act_ordered_partition`.
`two_sided_ideal` builds S^1 x S^1 the way `parthom.tsemi` did before its
restriction tables: every y in S^1 x translated through every element's
table.  `is_regular_by_definition` tries every y for every x.
`omega_power` and `iter_unordered_partitions` are test helpers that
nothing in `parthom` calls: the idempotent power of a map, by repeated
multiplication, and every set partition of a shape, each once.
`restarted_schreier_sims` completes a chain by the plain scan: every time
it climbs back to a level, it sifts that level's Schreier generators again
from the first tree point and the first generator.  It shares `_absorb`,
so its levels' trees grow in place as in `schreier_sims`, and it tells
apart only the scan: `schreier_sims` resumes each tree point's scan after
the generators it checked there, and must build the same chain.
"""

import math
from functools import lru_cache
from itertools import combinations

from parthom.partitions import (
    act_ordered_partition,
    count_ordered,
    first_partition_of_type,
)
from parthom.perm import (
    DEFAULT_ORBIT_CAP,
    OrbitCapExceeded,
    PermGroup,
    Permutation,
    StabilizerChain,
    _absorb,
    act_set,
    orbit,
    point_table,
    point_tables,
    stabilizer_generators,
    walk_rows,
)


def tuple_orbit(group, t):
    """The orbit of the tuple (0, ..., t-1), as a set of `bytes` rows."""
    return walk_rows((bytes(range(t)),), point_tables(group.raw_gens()),
                     DEFAULT_ORBIT_CAP, OrbitCapExceeded)


def two_sided_ideal(rows, row):
    """The rows of S^1 x S^1 for the x with this image row, S the semigroup
    with the image rows `rows`: S^1 x, then each of its rows translated
    through the table of every element, |S^1 x| x |S| translations."""
    table = point_table(row)
    left = {s.translate(table) for s in rows} | {row}
    out = set(left)
    for table in map(point_table, rows):
        out.update(y.translate(table) for y in left)
    return out


def is_regular_by_definition(rows):
    """Whether every x among the image rows has a y among them with
    x y x = x, trying every y."""
    tables = {y: point_table(y) for y in rows}
    return all(any(x.translate(table).translate(tables[x]) == x
                   for table in tables.values())
               for x in rows)


def omega_power(a):
    """The unique idempotent among the positive powers of a.

    Successive powers a, a^2, a^3, ... enter a cycle after a tail of length
    at most n-1, and exactly one power in the cycle is idempotent, so at
    most 2n multiplications suffice.  (Repeated squaring would skip the
    idempotent whenever the cycle length has an odd prime factor.)
    """
    x = a
    for _ in range(2 * a.degree + 2):
        if x * x == x:
            return x
        x = x * a
    raise ArithmeticError("no idempotent power found for %s" % a.text())


def iter_unordered_partitions(shape, points=None):
    """Yield all set partitions of the given shape, each exactly once.

    Equal-size blocks are ordered by smallest element, enforced by anchoring
    each block of a size-class on the smallest remaining point.
    """
    if points is None:
        points = tuple(range(sum(shape)))
    else:
        points = tuple(sorted(points))
    if len(points) != sum(shape):
        raise ValueError("shape sums to %d but %d points given"
                         % (sum(shape), len(points)))

    # group the shape into (size, multiplicity) runs, largest first
    runs = []
    for k in shape:
        if runs and runs[-1][0] == k:
            runs[-1][1] += 1
        else:
            runs.append([k, 1])

    def split_run(pool, k, m):
        """Unordered splits of pool into m blocks of size k, increasing mins.

        Anchoring each block on the smallest point still in the pool kills
        the m! orderings, and only works because the pool is fixed first.
        """
        if m == 0:
            yield []
            return
        anchor = pool[0]
        rest = pool[1:]
        for others in combinations(rest, k - 1):
            block = (anchor,) + others
            taken = set(others)
            new_pool = tuple(x for x in rest if x not in taken)
            for tail in split_run(new_pool, k, m - 1):
                yield [block] + tail

    def rec(run_idx, remaining):
        if run_idx == len(runs):
            yield ()
            return
        k, m = runs[run_idx]
        for chosen in combinations(remaining, k * m):
            taken = set(chosen)
            rest = tuple(x for x in remaining if x not in taken)
            for head in split_run(chosen, k, m):
                for tail in rec(run_idx + 1, rest):
                    yield tuple(head) + tail

    yield from rec(0, points)


def induced_action(group, domain):
    """Restrict the group to an invariant list of points (0-based).

    The returned group acts on 0..len(domain)-1 by position.  A generator
    moving any domain point outside the domain is an error.
    """
    index = {p: i for i, p in enumerate(domain)}
    gens = []
    seen = set()
    for g in group.generators:
        images = []
        for p in domain:
            q = g.images[p]
            if q not in index:
                raise ValueError(
                    "domain not invariant: generator moves point %d out" % (p + 1))
            images.append(index[q])
        t = tuple(images)
        if t not in seen:
            seen.add(t)
            gens.append(Permutation(t))
    return PermGroup(len(domain), gens, name="induced from %s" % group.name)


@lru_cache(maxsize=None)
def _inside(group, t):
    """The stabilizer of {0, ..., t-1} acting on those points, or None when
    the group is not t-homogeneous."""
    seed = tuple(range(t))
    if len(orbit(group, seed, act_set)) != math.comb(group.degree, t):
        return None
    stab = stabilizer_generators(group, seed, act_set)
    return induced_action(stab, list(seed))


def walked_standard_pair(group, lam):
    """Largest part n-t with t <= n/2, group t-homogeneous, and the setwise
    stabilizer of a t-set acting on it transitively on ordered partitions of
    the remaining shape, each conjunct found by a walk."""
    lam = tuple(sorted(lam, reverse=True))
    t = group.degree - lam[0]
    if 2 * t > group.degree:
        return False
    inside = _inside(group, t)
    if inside is None:
        return False
    rest = lam[1:]
    walked = orbit(inside, first_partition_of_type(rest), act_ordered_partition)
    return len(walked) == count_ordered(rest)


def restarted_schreier_sims(degree, generators):
    """Base 0, 1, 2, ...: sift the generators in, then complete the chain
    deepest level first, scanning a level's Schreier generators u_x s
    u_{xs}^-1 (tree order, then generator order, tree edges skipped) from
    the start whenever the scan reaches that level.  The tree and the
    generators of a level only grow, so the scan meets the pairs checked
    before in the order it met them then."""
    levels = []
    for g in generators:
        _absorb(levels, g.images, 0)
    i = len(levels) - 1
    while i >= 0:
        level = levels[i]
        tree = level.transversal
        absorbed_at = None
        for x, ux in tree.items():
            for s in level.gens:
                uxs = ux * s
                uy = tree[s.images[x]]
                if uxs != uy:
                    absorbed_at = _absorb(levels, (uxs * uy.inverse()).images,
                                          i + 1)
                    if absorbed_at is not None:
                        break
            if absorbed_at is not None:
                break
        i = i - 1 if absorbed_at is None else absorbed_at
    return StabilizerChain(degree, levels)
