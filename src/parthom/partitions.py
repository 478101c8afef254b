"""Integer partitions, set partitions, and ordered set partitions.

Canonical forms are fixed once and used everywhere:

- an integer partition is a non-increasing tuple of positive ints
- a set partition is a tuple of blocks, each block a sorted tuple of 0-based
  points, blocks ordered by (size descending, smallest element ascending)
- an ordered set partition keeps its block order, but block sizes must be
  non-increasing so the shape reads off directly

The group actions on set partitions, `act_set_partition` and
`act_ordered_partition`, work on these canonical forms.  The decisions walk
no partition orbits (they read them off the stabilizer chain); the actions
are there for `perm.orbit` walks, which the tests check those reads with.

Text formats (all 1-based at the boundary): an integer partition is written
"3,2,1"; a set partition "{1,2|3,4|5}"; a map row "1,1,3,4,5" belongs to the
transformation layer but reuses the same comma-separated style.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import combinations


def parse_numbers(text):
    """The numbers of a comma- or space-separated list such as "3,2,1".
    Each token must be plain ASCII digits: `int` alone would also read
    signs, underscores and other scripts' digits, taking "1_0" for 10."""
    values = []
    for tok in text.replace(",", " ").split():
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError("not a number: %r" % tok)
        values.append(int(tok))
    return values


def parse_int_partition(text, n=None):
    """Parse "3,2,1" (or "3 2 1") into a canonical integer partition.

    If n is given the parts must sum to n.
    """
    return check_shape(parse_numbers(text), n)


def check_shape(parts, n=None):
    """The canonical integer partition with these parts, which must be
    positive integers summing to n (any sum when n is None).  Each part goes
    through `operator.index`, so a float or a string is refused rather than
    truncated or parsed; every fault raises ValueError."""
    try:
        shape = tuple(sorted(map(operator.index, parts), reverse=True))
    except TypeError:
        raise ValueError("parts must be integers: %r" % (parts,)) from None
    if not shape:
        raise ValueError("empty partition")
    if shape[-1] < 1:
        raise ValueError("parts must be positive: %r" % (shape,))
    if n is not None and sum(shape) != n:
        raise ValueError("parts sum to %d, expected %d" % (sum(shape), n))
    return shape


def format_int_partition(parts):
    return ",".join(str(p) for p in parts)


def integer_partitions(n):
    """All partitions of n in reverse-lexicographic order, (n) first."""
    out = []

    def rec(remaining, bound, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(bound, remaining), 0, -1):
            prefix.append(k)
            rec(remaining - k, k, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


# ---------------------------------------------------------------------------
# set partitions


def canon_set_partition(blocks):
    """Canonical form: blocks sorted inside, ordered size-desc then min-asc."""
    blk = [tuple(sorted(b)) for b in blocks]
    blk.sort(key=lambda b: (-len(b), b[0]))
    return tuple(blk)


def canon_ordered_partition(blocks):
    """Canonical ordered form: blocks sorted inside, order kept.

    Block sizes must already be non-increasing; this is what makes the shape
    unambiguous without carrying it separately.
    """
    blk = [tuple(sorted(b)) for b in blocks]
    sizes = [len(b) for b in blk]
    if sizes != sorted(sizes, reverse=True):
        raise ValueError("ordered partition blocks must come size-descending")
    return tuple(blk)


def partition_shape(blocks):
    """Integer partition recording the block sizes."""
    return tuple(sorted((len(b) for b in blocks), reverse=True))


def check_set_partition(blocks, n):
    """Verify blocks tile 0..n-1 exactly once."""
    seen = [x for b in blocks for x in b]
    if sorted(seen) != list(range(n)):
        raise ValueError("blocks do not partition 1..%d" % n)


def parse_set_partition(text, n):
    """Parse "{1,2|3,4|5}" into canonical form on 0..n-1."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("set partition must look like {1,2|3}")
    blocks = []
    for chunk in text[1:-1].split("|"):
        pts = [v - 1 for v in parse_numbers(chunk)]
        if not pts:
            raise ValueError("empty block in %r" % text)
        blocks.append(pts)
    check_set_partition(blocks, n)
    return canon_set_partition(blocks)


def format_set_partition(blocks):
    return "{" + "|".join(",".join(str(x + 1) for x in b) for b in blocks) + "}"


def act_set_partition(blocks, images):
    """Right action of a permutation on an unordered set partition."""
    return canon_set_partition([images[x] for x in b] for b in blocks)


def act_ordered_partition(blocks, images):
    """Right action on an ordered set partition (block order preserved)."""
    return tuple(tuple(sorted(images[x] for x in b)) for b in blocks)


def first_partition_of_type(shape, n=None):
    """The canonical base point: consecutive runs 0..k1-1, k1..k1+k2-1, ..."""
    if n is not None and sum(shape) != n:
        raise ValueError("shape sums to %d, expected %d" % (sum(shape), n))
    blocks = []
    start = 0
    for k in shape:
        blocks.append(tuple(range(start, start + k)))
        start += k
    return tuple(blocks)


# ---------------------------------------------------------------------------
# counting

def count_unordered(shape):
    """Number of set partitions of shape `shape` (unordered blocks): the
    ordered ones divided by the orderings of equal-size blocks, exactly."""
    ordered = count_ordered(shape)
    per = ordered_per_unordered(shape)
    if ordered % per != 0:
        raise ArithmeticError("count_unordered: non-integer result")
    return ordered // per


def count_ordered(shape):
    """Number of ordered set partitions of shape `shape`: the multinomial."""
    n = sum(shape)
    denom = 1
    for k in shape:
        denom *= math.factorial(k)
    num = math.factorial(n)
    if num % denom != 0:
        raise ArithmeticError("count_ordered: non-integer result")
    return num // denom


def ordered_per_unordered(shape):
    """How many ordered partitions sit over one unordered: prod m_k!."""
    mult = {}
    for k in shape:
        mult[k] = mult.get(k, 0) + 1
    out = 1
    for m in mult.values():
        out *= math.factorial(m)
    return out


# ---------------------------------------------------------------------------
# enumeration (streaming; no list of everything unless the caller asks)


def iter_ordered_partitions(shape, points=None):
    """Yield all ordered set partitions of the given shape over `points`.

    Blocks are chosen left to right by combinations, so output order is
    deterministic.  `points` defaults to 0..n-1.
    """
    if points is None:
        points = tuple(range(sum(shape)))
    else:
        points = tuple(sorted(points))
    if len(points) != sum(shape):
        raise ValueError("shape sums to %d but %d points given"
                         % (sum(shape), len(points)))

    def rec(shape_idx, remaining, prefix):
        if shape_idx == len(shape):
            yield tuple(prefix)
            return
        k = shape[shape_idx]
        for block in combinations(remaining, k):
            rest = tuple(x for x in remaining if x not in set(block))
            prefix.append(block)
            yield from rec(shape_idx + 1, rest, prefix)
            prefix.pop()

    yield from rec(0, points, [])


# ---------------------------------------------------------------------------
# refinement and coarsening


def refines(fine, coarse):
    """True if every block of `fine` sits inside one block of `coarse`."""
    owner = {}
    for i, b in enumerate(coarse):
        for x in b:
            owner[x] = i
    for b in fine:
        if len({owner[x] for x in b}) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def coarsening_feasible(fine_shape, coarse_shape):
    """Can parts of `fine_shape` be grouped to sum to the parts of `coarse_shape`?

    Multiset bin packing: every fine part is used exactly once and each coarse
    part is the sum of its group.  Both arguments are canonical integer
    partitions (non-increasing tuples); answers are memoized.
    """
    if sum(fine_shape) != sum(coarse_shape):
        return False
    fine = sorted(fine_shape, reverse=True)
    coarse = sorted(coarse_shape, reverse=True)

    def pack(fine_left, bins):
        if not fine_left:
            return all(b == 0 for b in bins)
        part = fine_left[0]
        rest = fine_left[1:]
        tried = set()
        for i, cap in enumerate(bins):
            if cap < part or cap in tried:
                continue
            tried.add(cap)
            nxt = list(bins)
            nxt[i] = cap - part
            if pack(rest, tuple(sorted(nxt, reverse=True))):
                return True
        return False

    return pack(tuple(fine), tuple(coarse))
