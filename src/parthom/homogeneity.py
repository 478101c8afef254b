"""Homogeneity and transitivity decision procedures for permutation groups.

Every decision reduces to one orbit size compared against a closed-form
count, tried only after two exact-arithmetic shortcuts: an orbit can neither
exceed the group order nor fail to divide it, so most negative verdicts are
settled without building any orbit.  Every other orbit size is read off the
group's stabilizer chains, whose bases are 0, 1, 2, ... and n-1, n-2, ...:
the orbit of the tuple (0, ..., t-1) directly, and the orbit of a partition
or a t-set as the orbit of one of its point tuples divided by the block
reorderings the group realizes on it (`ChainPlan`).  Nothing here walks an
orbit, so no decision takes a cap.  Verdicts are seed-independent, and all
reads start from the canonical first object of the relevant kind.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .partitions import (
    check_shape,
    count_ordered,
    count_unordered,
    format_int_partition,
    ordered_per_unordered,
)

METHOD_SHORTCUT = "order-bound shortcut"
METHOD_CHAIN = "stabilizer-chain"


class QueryResult:
    """One decided question: verdict plus the numbers that settled it;
    `orbit_size` is None when a shortcut settled it."""

    def __init__(self, query, verdict, expected, orbit_size, method):
        self.query = query
        self.verdict = verdict
        self.expected = expected
        self.orbit_size = orbit_size
        self.method = method

    def as_dict(self):
        return {
            "query": self.query,
            "verdict": self.verdict,
            "expected": self.expected,
            "orbit_size": self.orbit_size,
            "method": self.method,
        }


def _order_refutes(group, expected, query):
    """The exact shortcut tried first: an orbit can neither exceed the group
    order nor fail to divide it.  A false verdict, or None."""
    order = group.order()
    if expected > order or order % expected != 0:
        return QueryResult(query, False, expected, None, METHOD_SHORTCUT)
    return None


class ChainPlan(NamedTuple):
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


def _read_chain(group, plan, expected, query):
    size = chain_orbit_size(group, plan)
    return QueryResult(query, size == expected, expected, size, METHOD_CHAIN)


def _check_t(group, t):
    """The group's degree n, once t is checked to lie in 0..n."""
    n = group.degree
    if not 0 <= t <= n:
        raise ValueError("t must be between 0 and %d, got %d" % (n, t))
    return n


def decide_t_homogeneous(group, t):
    """t-transitivity, which the chain shows, settles t-homogeneity too;
    otherwise the orbit of {0, ..., t-1} is read off the chain."""
    n = _check_t(group, t)
    query = "%d-homogeneous" % t
    t = min(t, n - t)    # orbits on t-sets and their complements agree
    expected = math.comb(n, t)
    if t == 0:
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    refuted = _order_refutes(group, expected, query)
    if refuted:
        return refuted
    if group.chain().prefix_orbit_size(t) == math.perm(n, t):
        return QueryResult(query, True, expected, expected, METHOD_CHAIN)
    return _read_chain(group, ChainPlan((t,), True), expected, query)


def decide_t_transitive(group, t):
    """The orbit of the tuple (0, ..., t-1) is read off the stabilizer chain,
    whose base starts 0, 1, ..., t-1."""
    n = _check_t(group, t)
    query = "%d-transitive" % t
    if t == 0:
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    expected = math.perm(n, t)
    refuted = _order_refutes(group, expected, query)
    if refuted:
        return refuted
    size = group.chain().prefix_orbit_size(t)
    return QueryResult(query, size == expected, expected, size, METHOD_CHAIN)


def decide_lambda_homogeneous(group, lam):
    lam = check_shape(lam, group.degree)
    query = "lambda-homogeneous %s" % format_int_partition(lam)
    if all(k == 1 for k in lam):
        # the partition into singletons is unique, so every group works
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    expected = count_unordered(lam)
    return _decide_partition(group, lam, False, expected, query)


def decide_lambda_transitive(group, lam):
    lam = check_shape(lam, group.degree)
    query = "lambda-transitive %s" % format_int_partition(lam)
    expected = count_ordered(lam)
    return _decide_partition(group, lam, True, expected, query)


def _decide_partition(group, lam, ordered, expected, query):
    """The order shortcut, then the orbit of `first_partition_of_type(lam)`
    read off the chain through the plan with the fewest reorderings."""
    refuted = _order_refutes(group, expected, query)
    if refuted:
        return refuted
    plan = min(chain_plans(lam, ordered), key=lambda p: p.reorderings)
    return _read_chain(group, plan, expected, query)


# boolean fronts

def is_t_homogeneous(group, t):
    return decide_t_homogeneous(group, t).verdict


def is_t_transitive(group, t):
    return decide_t_transitive(group, t).verdict


def is_lambda_homogeneous(group, lam):
    return decide_lambda_homogeneous(group, lam).verdict


def is_lambda_transitive(group, lam):
    return decide_lambda_transitive(group, lam).verdict


def is_set_transitive(group):
    """Transitive on t-sets for every t; t up to n/2 suffices."""
    n = group.degree
    return all(is_t_homogeneous(group, t)
               for t in range(1, n // 2 + 1))


def exact_homogeneity_degree(group):
    """Largest t <= n/2 such that the group is s-homogeneous for all s <= t.

    Homogeneity at t implies it at t-1 on this side of n/2, so the answer is
    just where the climb stops; 0 means not even transitive.
    """
    n = group.degree
    best = 0
    for t in range(1, n // 2 + 1):
        if not is_t_homogeneous(group, t):
            break
        best = t
    return best


def is_standard_pair(group, lam):
    """Largest part n-t with t <= n/2, group t-homogeneous, and the setwise
    stabilizer of a t-set acting on it transitively on ordered partitions of
    the remaining shape (the shape with its largest part removed).

    The last two conjuncts together are lambda-transitivity.  Let T be a
    t-set and (B1, ..., Bk) an ordered partition of T of the remaining
    shape.  The orbit of the ordered partition (complement of T, B1, ...,
    Bk) has |T^G| * |(B1, ..., Bk)^(G_T)| elements, by orbit-stabilizer
    through the stabilizer G_T of T, which is the stabilizer of its
    complement.  The factors are at most C(n, t) and the number of ordered
    partitions of T of that shape, whose product is count_ordered(lam), so
    the orbit reaches count_ordered(lam) exactly when both factors are full.
    """
    lam = check_shape(lam, group.degree)
    n = group.degree
    if lam == (n,):
        raise ValueError("the one-block partition is excluded here")
    t = n - lam[0]
    return 2 * t <= n and is_lambda_transitive(group, lam)


def lambda_behavior(group, lam):
    """One of 'transitive', 'homogeneous-only', 'neither'."""
    if is_lambda_transitive(group, lam):
        return "transitive"
    if is_lambda_homogeneous(group, lam):
        return "homogeneous-only"
    return "neither"
