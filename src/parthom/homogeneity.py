"""Homogeneity and transitivity decision procedures for permutation groups.

Every decision reduces to one orbit computation compared against a closed-form
count, tried only after two exact-arithmetic shortcuts: an orbit can neither
exceed the group order nor fail to divide it, so most negative verdicts are
settled without any walk.  Verdicts are seed-independent, and all walks start
from the canonical first object of the relevant kind.  The walks run on the
compact states of `perm.CompactAction`: bitmasks for sets and blocks, bytes
for tuples of points.
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
)
from .perm import (
    DEFAULT_ORBIT_CAP,
    compact_set,
    compact_tuple,
    induced_action,
    mask_of,
    orbit,
    stabilizer_generators,
)

METHOD_BFS = "orbit-BFS"
METHOD_SHORTCUT = "order-bound shortcut"


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


def _decide_orbit(group, seed, act, expected, query, cap):
    """Shared shortcut-then-BFS skeleton behind every decision below.

    `seed` is in canonical tuple form; the walk runs on its compact encoding
    under the CompactAction `act`.
    """
    order = group.order()
    if expected > order or order % expected != 0:
        return QueryResult(query, False, expected, None, METHOD_SHORTCUT)
    start = act.encode(seed, group.degree)
    size = len(orbit(group, start, act, cap=cap))
    return QueryResult(query, size == expected, expected, size, METHOD_BFS)


def decide_t_homogeneous(group, t, cap=DEFAULT_ORBIT_CAP):
    n = group.degree
    if not 0 <= t <= n:
        raise ValueError("t must be between 0 and %d, got %d" % (n, t))
    query = "%d-homogeneous" % t
    t = min(t, n - t)    # orbits on t-sets and their complements agree
    expected = math.comb(n, t)
    if t == 0:
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    return _decide_orbit(group, tuple(range(t)), compact_set, expected, query,
                         cap)


def decide_t_transitive(group, t, cap=DEFAULT_ORBIT_CAP):
    n = group.degree
    if not 0 <= t <= n:
        raise ValueError("t must be between 0 and %d, got %d" % (n, t))
    query = "%d-transitive" % t
    if t == 0:
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    expected = falling_factorial(n, t)
    return _decide_orbit(group, tuple(range(t)), compact_tuple, expected, query,
                         cap)


def decide_lambda_homogeneous(group, lam, cap=DEFAULT_ORBIT_CAP):
    lam = _check_shape(group, lam)
    query = "lambda-homogeneous %s" % format_int_partition(lam)
    if all(k == 1 for k in lam):
        # the partition into singletons is unique, so every group works
        return QueryResult(query, True, 1, None, METHOD_SHORTCUT)
    expected = count_unordered(lam)
    seed = first_partition_of_type(lam)
    return _decide_orbit(group, seed, compact_set_partition, expected, query,
                         cap)


def decide_lambda_transitive(group, lam, cap=DEFAULT_ORBIT_CAP):
    lam = _check_shape(group, lam)
    query = "lambda-transitive %s" % format_int_partition(lam)
    expected = count_ordered(lam)
    seed = first_partition_of_type(lam)
    return _decide_orbit(group, seed, compact_ordered_partition, expected,
                         query, cap)


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
