"""Homogeneity and transitivity decision procedures for permutation groups.

Every decision reduces to one orbit size compared against a closed-form
count, tried only after two exact-arithmetic shortcuts: an orbit can neither
exceed the group order nor fail to divide it, so most negative verdicts are
settled without any walk.  Orbit sizes are read off the group's stabilizer
chains, whose bases are 0, 1, 2, ... and n-1, n-2, ...: the orbit of the
tuple (0, ..., t-1) directly, and the orbit of a partition or a t-set as the
orbit of one of its point tuples divided by the block reorderings the group
realizes on it (`ChainPlan`).  A partition or t-set whose reorderings
outnumber its expected orbit is walked instead.  Verdicts are
seed-independent, and all reads and walks start from the canonical first
object of the relevant kind.  The walks run on the compact states of
`perm.CompactAction`: bitmasks for sets and blocks, bytes for tuples of
points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .partitions import (
    compact_ordered_partition,
    compact_set_partition,
    count_ordered,
    count_unordered,
    first_partition_of_type,
    format_int_partition,
    ordered_per_unordered,
)
from .perm import (
    DEFAULT_ORBIT_CAP,
    compact_set,
    induced_action,
    mask_of,
    orbit,
    stabilizer_generators,
)

METHOD_BFS = "orbit-BFS"
METHOD_SHORTCUT = "order-bound shortcut"
METHOD_CHAIN = "stabilizer-chain"


@dataclass
class QueryResult:
    """One decided question: verdict plus the numbers that settled it."""

    query: str
    verdict: bool
    expected: int
    orbit_size: int | None   # None when a shortcut settled it
    method: str

    def as_dict(self):
        return {
            "query": self.query,
            "verdict": self.verdict,
            "expected": self.expected,
            "orbit_size": self.orbit_size,
            "method": self.method,
        }


@dataclass
class HomogeneityReport:
    group: str
    results: list = field(default_factory=list)

    def add(self, result):
        self.results.append(result)
        return result

    def to_json(self, indent=None):
        payload = {"group": self.group,
                   "queries": [r.as_dict() for r in self.results]}
        return json.dumps(payload, indent=indent)


def falling_factorial(n, t):
    return math.perm(n, t)


def _order_refutes(group, expected, query):
    """The exact shortcut tried first: an orbit can neither exceed the group
    order nor fail to divide it.  A false verdict, or None."""
    order = group.order()
    if expected > order or order % expected != 0:
        return QueryResult(query, False, expected, None, METHOD_SHORTCUT)
    return None


@dataclass(frozen=True)
class ChainPlan:
    """Which blocks of a seed a chain read keeps: the runs of `sizes` from
    the chain's first base point, which is point 0, or point n-1 when
    `reverse`, with the points counted down from there.  The seed's other
    class, the points outside the runs, is left out: it is one block or the
    trailing singletons, so the orbit of the kept blocks, as a set of sets
    or, when `ordered`, as a tuple of sets, is the orbit of the seed."""

    sizes: tuple
    ordered: bool
    reverse: bool = False

    @property
    def reorderings(self):
        """|W|, the reorderings of the kept points that keep the blocks:
        the complete maps the chain read's backtrack can reach."""
        count = math.prod(map(math.factorial, self.sizes))
        return count if self.ordered else \
            count * ordered_per_unordered(self.sizes)


def chain_plans(lam, ordered):
    """Every plan that reads the seed `first_partition_of_type(lam)` off a
    chain, prefix reads first.  An ordered partition leaves out its last or
    its first block.  An unordered one leaves out its singletons, or its
    last or first block when no other block has that block's size, since
    the blocks it keeps then cover the same points in every partition of
    its orbit."""
    first, rest = lam[0], tuple(reversed(lam[1:]))
    if ordered:
        return [ChainPlan(lam[:-1], True), ChainPlan(rest, True, True)]
    plans = [ChainPlan(tuple(k for k in lam if k > 1), False)]
    if lam[-1] > 1 and lam.count(lam[-1]) == 1:
        plans.append(ChainPlan(lam[:-1], False))
    if lam.count(first) == 1:
        plans.append(ChainPlan(rest, False, True))
    return plans


def chain_orbit_size(group, plan):
    """The orbit size of the blocks `plan` keeps, read off the chain."""
    chain = group.reversed_chain() if plan.reverse else group.chain()
    return chain.block_orbit_size(plan.sizes, plan.ordered)


def _read_or_walk(group, plan, seed, act, expected, query, cap):
    """Read the orbit off the chain when the reorderings its backtrack can
    reach, |W|, number no more than the states a walk of a single orbit
    would visit; walk it otherwise."""
    if plan.reorderings <= expected:
        size = chain_orbit_size(group, plan)
        return QueryResult(query, size == expected, expected, size,
                           METHOD_CHAIN)
    return _walk_orbit(group, seed, act, expected, query, cap)


def _walk_orbit(group, seed, act, expected, query, cap):
    """The verdict of an orbit walk.  `seed` is in canonical tuple form; the
    walk runs on its compact encoding under the CompactAction `act`."""
    start = act.encode(seed, group.degree)
    size = len(orbit(group, start, act, cap=cap))
    return QueryResult(query, size == expected, expected, size, METHOD_BFS)


def decide_t_homogeneous(group, t, cap=DEFAULT_ORBIT_CAP):
    """t-transitivity, which the chain shows, settles t-homogeneity too;
    otherwise the orbit of {0, ..., t-1} is read off the chain, its t!
    reorderings permitting, or walked."""
    n = group.degree
    if not 0 <= t <= n:
        raise ValueError("t must be between 0 and %d, got %d" % (n, t))
    query = "%d-homogeneous" % t
    t = min(t, n - t)    # orbits on t-sets and their complements agree
    expected = math.comb(n, t)
    if t == 0:
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    refuted = _order_refutes(group, expected, query)
    if refuted:
        return refuted
    if group.chain().prefix_orbit_size(t) == falling_factorial(n, t):
        return QueryResult(query, True, expected, expected, METHOD_CHAIN)
    return _read_or_walk(group, ChainPlan((t,), True), tuple(range(t)),
                         compact_set, expected, query, cap)


def decide_t_transitive(group, t, cap=DEFAULT_ORBIT_CAP):
    """The orbit of the tuple (0, ..., t-1) is read off the stabilizer chain,
    whose base is 0, 1, 2, ...; no walk, so `cap` does not apply."""
    n = group.degree
    if not 0 <= t <= n:
        raise ValueError("t must be between 0 and %d, got %d" % (n, t))
    query = "%d-transitive" % t
    if t == 0:
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    expected = falling_factorial(n, t)
    refuted = _order_refutes(group, expected, query)
    if refuted:
        return refuted
    size = group.chain().prefix_orbit_size(t)
    return QueryResult(query, size == expected, expected, size, METHOD_CHAIN)


def decide_lambda_homogeneous(group, lam, cap=DEFAULT_ORBIT_CAP):
    lam = _check_shape(group, lam)
    query = "lambda-homogeneous %s" % format_int_partition(lam)
    if all(k == 1 for k in lam):
        # the partition into singletons is unique, so every group works
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    expected = count_unordered(lam)
    return _decide_partition(group, lam, False, expected, query, cap)


def decide_lambda_transitive(group, lam, cap=DEFAULT_ORBIT_CAP):
    lam = _check_shape(group, lam)
    query = "lambda-transitive %s" % format_int_partition(lam)
    expected = count_ordered(lam)
    return _decide_partition(group, lam, True, expected, query, cap)


def _decide_partition(group, lam, ordered, expected, query, cap):
    """The order shortcut, then the orbit of `first_partition_of_type(lam)`
    through the plan with the fewest reorderings."""
    refuted = _order_refutes(group, expected, query)
    if refuted:
        return refuted
    plan = min(chain_plans(lam, ordered), key=lambda p: p.reorderings)
    act = compact_ordered_partition if ordered else compact_set_partition
    return _read_or_walk(group, plan, first_partition_of_type(lam), act,
                         expected, query, cap)


def _check_shape(group, lam):
    lam = tuple(sorted(lam, reverse=True))
    if sum(lam) != group.degree:
        raise ValueError("partition %r does not sum to degree %d"
                         % (lam, group.degree))
    if any(k < 1 for k in lam):
        raise ValueError("partition parts must be positive: %r" % (lam,))
    return lam


# boolean fronts

def is_t_homogeneous(group, t, cap=DEFAULT_ORBIT_CAP):
    return decide_t_homogeneous(group, t, cap=cap).verdict


def is_t_transitive(group, t, cap=DEFAULT_ORBIT_CAP):
    return decide_t_transitive(group, t, cap=cap).verdict


def is_lambda_homogeneous(group, lam, cap=DEFAULT_ORBIT_CAP):
    return decide_lambda_homogeneous(group, lam, cap=cap).verdict


def is_lambda_transitive(group, lam, cap=DEFAULT_ORBIT_CAP):
    return decide_lambda_transitive(group, lam, cap=cap).verdict


def is_set_transitive(group, cap=DEFAULT_ORBIT_CAP):
    """Transitive on t-sets for every t; t up to n/2 suffices."""
    n = group.degree
    return all(is_t_homogeneous(group, t, cap=cap)
               for t in range(1, n // 2 + 1))


def exact_homogeneity_degree(group, cap=DEFAULT_ORBIT_CAP):
    """Largest t <= n/2 such that the group is s-homogeneous for all s <= t.

    Homogeneity at t implies it at t-1 on this side of n/2, so the answer is
    just where the climb stops; 0 means not even transitive.
    """
    n = group.degree
    best = 0
    for t in range(1, n // 2 + 1):
        if not is_t_homogeneous(group, t, cap=cap):
            break
        best = t
    return best


def is_standard_pair(group, lam, cap=DEFAULT_ORBIT_CAP):
    """Largest part n-t with t <= n/2, group t-homogeneous, and the setwise
    stabilizer of a t-set acting on it transitively on ordered partitions of
    the remaining shape (the shape with its largest part removed)."""
    lam = _check_shape(group, lam)
    n = group.degree
    if lam == (n,):
        raise ValueError("the one-block partition is excluded here")
    t = n - lam[0]
    if 2 * t > n:
        return False
    if not is_t_homogeneous(group, t, cap=cap):
        return False
    rest = lam[1:]
    stab = stabilizer_generators(group, mask_of(range(t)), compact_set, cap=cap)
    inside = induced_action(stab, list(range(t)))
    return is_lambda_transitive(inside, rest, cap=cap)


def lambda_behavior(group, lam, cap=DEFAULT_ORBIT_CAP):
    """One of 'transitive', 'homogeneous-only', 'neither'."""
    if is_lambda_transitive(group, lam, cap=cap):
        return "transitive"
    if is_lambda_homogeneous(group, lam, cap=cap):
        return "homogeneous-only"
    return "neither"
