"""Partition canonical forms, counting formulas, enumeration, coarsening."""

import re
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from parthom.catalog import build_group
from parthom.homogeneity import (
    decide_lambda_homogeneous,
    decide_lambda_transitive,
)
from parthom.partitions import (
    act_ordered_partition,
    act_set_partition,
    canon_ordered_partition,
    canon_set_partition,
    check_shape,
    coarsening_feasible,
    count_ordered,
    count_unordered,
    first_partition_of_type,
    format_int_partition,
    format_set_partition,
    integer_partitions,
    iter_ordered_partitions,
    ordered_per_unordered,
    parse_int_partition,
    parse_set_partition,
    partition_shape,
    refines,
)
from parthom.snpairs import is_sn_pair, symbolic_clause
from reference import iter_unordered_partitions


def shapes(max_n=8):
    """Hypothesis strategy drawing a random integer partition."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.sampled_from(integer_partitions(n)))


# -- integer partitions -------------------------------------------------------

def test_integer_partitions_counts():
    # partition numbers p(1)..p(10)
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, e in zip(range(1, 11), expected):
        assert len(integer_partitions(n)) == e


def test_integer_partitions_order_and_shape():
    parts = integer_partitions(5)
    assert parts[0] == (5,)
    assert parts[-1] == (1, 1, 1, 1, 1)
    assert parts == sorted(parts, reverse=True)        # reverse-lex
    for lam in parts:
        assert sum(lam) == 5
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_parse_format_int_partition():
    assert parse_int_partition("3,2,1") == (3, 2, 1)
    assert parse_int_partition("1 2 3") == (3, 2, 1)   # sorted canonical
    assert parse_int_partition("2,2,1", n=5) == (2, 2, 1)
    assert format_int_partition((3, 2, 1)) == "3,2,1"
    with pytest.raises(ValueError):
        parse_int_partition("3,2", n=6)
    with pytest.raises(ValueError):
        parse_int_partition("0,5")
    with pytest.raises(ValueError):
        parse_int_partition("")


@pytest.mark.parametrize("token", ["2_3", "+2", "-1", "\uff13", "2.0", "0x2"])
def test_parse_takes_only_ascii_digit_tokens(token):
    # int() alone reads 2_3 as 23, +2 as 2 and a fullwidth 3 as 3
    for text, parse in (("2,%s" % token, parse_int_partition),
                        ("{1|%s}" % token,
                         lambda text: parse_set_partition(text, 2))):
        with pytest.raises(ValueError, match="not a number: %s$"
                           % re.escape(repr(token))):
            parse(text)


def test_bad_shapes_raise_value_error_everywhere():
    """Floats, strings, an empty shape, a zero part and a wrong sum are
    refused the same way by every entry point that takes a shape of degree
    5, with ValueError, and not truncated, parsed or passed on."""
    group = build_group("s:5")
    bad = [((2.5, 2.5), "2.5,2.5"), (("2", "3"), "two,three"), ((), ""),
           ((5, 0), "5,0"), ((2, 2), "2,2")]
    calls = (lambda parts: check_shape(parts, 5),
             lambda parts: decide_lambda_homogeneous(group, parts),
             lambda parts: decide_lambda_transitive(group, parts),
             lambda parts: is_sn_pair(parts, group),
             lambda parts: symbolic_clause(parts, group))
    for parts, text in bad:
        with pytest.raises(ValueError):
            parse_int_partition(text, 5)
        for call in calls:
            with pytest.raises(ValueError):
                call(parts)
    assert check_shape([1, 3, 1], 5) == (3, 1, 1)


# -- set partitions -----------------------------------------------------------

def test_canon_set_partition_orders_blocks():
    blocks = [(4, 3), (0, 2), (1,)]
    assert canon_set_partition(blocks) == ((0, 2), (3, 4), (1,))


def test_canon_ordered_requires_sorted_sizes():
    canon_ordered_partition([(0, 1), (2,)])
    with pytest.raises(ValueError):
        canon_ordered_partition([(2,), (0, 1)])


def test_parse_format_set_partition():
    sp = parse_set_partition("{1,2|3,4|5}", 5)
    assert sp == ((0, 1), (2, 3), (4,))
    assert format_set_partition(sp) == "{1,2|3,4|5}"
    assert parse_set_partition(format_set_partition(sp), 5) == sp
    with pytest.raises(ValueError):
        parse_set_partition("{1,2|2,3}", 3)
    with pytest.raises(ValueError):
        parse_set_partition("{1,2}", 3)
    with pytest.raises(ValueError):
        parse_set_partition("1,2|3", 3)


def test_first_partition_of_type():
    fp = first_partition_of_type((3, 2, 1))
    assert fp == ((0, 1, 2), (3, 4), (5,))
    assert partition_shape(fp) == (3, 2, 1)


@given(shapes())
def test_first_partition_shape_round_trip(lam):
    assert partition_shape(first_partition_of_type(lam)) == lam


# -- counting against brute enumeration --------------------------------------

def brute_unordered(lam):
    """Independent oracle: canonicalize consecutive splits of every ordering."""
    n = sum(lam)
    seen = set()
    for perm in permutations(range(n)):
        blocks = []
        start = 0
        for k in lam:
            blocks.append(perm[start:start + k])
            start += k
        seen.add(canon_set_partition(blocks))
    return seen


def test_counts_small_known_values():
    assert count_unordered((3, 3)) == 10
    assert count_ordered((3, 3)) == 20
    assert count_unordered((2, 2, 1)) == 15
    assert count_ordered((2, 2, 1)) == 30
    assert count_unordered((2, 2, 1, 1, 1, 1, 1, 1, 1)) == 990  # 11 points
    assert count_unordered((1, 1, 1)) == 1
    assert count_ordered((1, 1, 1)) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_counting_matches_brute_force(n):
    for lam in integer_partitions(n):
        brute = brute_unordered(lam)
        assert count_unordered(lam) == len(brute), lam
        assert count_ordered(lam) == \
            count_unordered(lam) * ordered_per_unordered(lam), lam


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_enumeration_matches_counting(n):
    for lam in integer_partitions(n):
        unordered = list(iter_unordered_partitions(lam))
        assert len(unordered) == count_unordered(lam), lam
        assert len(set(unordered)) == len(unordered), lam
        for sp in unordered:
            assert sp == canon_set_partition(sp), lam
        ordered = list(iter_ordered_partitions(lam))
        assert len(ordered) == count_ordered(lam), lam
        assert len(set(ordered)) == len(ordered), lam


def test_enumeration_matches_brute_force():
    for lam in [(2, 2, 1), (3, 2), (2, 2, 2), (3, 1, 1)]:
        assert set(iter_unordered_partitions(lam)) == brute_unordered(lam)


def test_enumeration_first_item_is_canonical_seed():
    for lam in [(3, 2, 1), (2, 2, 2), (4, 1)]:
        assert next(iter_unordered_partitions(lam)) == first_partition_of_type(lam)


# -- actions ------------------------------------------------------------------

@given(shapes(max_n=7), st.data())
def test_action_is_shape_preserving_and_composes(lam, data):
    n = sum(lam)
    p = data.draw(st.permutations(range(n)))
    q = data.draw(st.permutations(range(n)))
    sp = first_partition_of_type(lam)
    moved = act_set_partition(sp, tuple(p))
    assert partition_shape(moved) == lam
    pq = tuple(q[p[i]] for i in range(n))
    assert act_set_partition(moved, tuple(q)) == act_set_partition(sp, pq)


@given(shapes(max_n=7), st.data())
def test_ordered_action_composes(lam, data):
    n = sum(lam)
    p = data.draw(st.permutations(range(n)))
    op = next(iter_ordered_partitions(lam))
    moved = act_ordered_partition(op, tuple(p))
    assert [len(b) for b in moved] == list(lam)
    back = tuple(p.index(x) for x in range(n))
    assert act_ordered_partition(moved, back) == op


# -- refinement and coarsening ------------------------------------------------

def test_refines_basic():
    fine = parse_set_partition("{1|2|3,4}", 4)
    coarse = parse_set_partition("{1,2|3,4}", 4)
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    everything = parse_set_partition("{1,2,3,4}", 4)
    assert refines(fine, everything)
    assert refines(coarse, coarse)


def test_coarsening_feasible_known():
    assert coarsening_feasible((2, 1, 1, 1), (2, 1, 1, 1))
    assert coarsening_feasible((1, 1, 1, 1), (2, 2))
    assert coarsening_feasible((2, 2, 1), (3, 2))
    assert coarsening_feasible((2, 2, 2), (4, 2))
    assert not coarsening_feasible((3, 1), (2, 2))
    assert not coarsening_feasible((3, 3), (4, 2))
    assert not coarsening_feasible((2, 2), (3, 2))     # sums differ
    assert coarsening_feasible((5,), (5,))
    assert not coarsening_feasible((4, 1), (3, 2))


@given(shapes(max_n=9))
def test_coarsening_reflexive_and_extremes(lam):
    n = sum(lam)
    assert coarsening_feasible(lam, lam)
    assert coarsening_feasible(lam, (n,))
    assert coarsening_feasible((1,) * n, lam)


@given(shapes(max_n=7), shapes(max_n=7))
@settings(max_examples=80)
def test_coarsening_matches_block_merging(fine, coarse):
    """Oracle: search over actual block merges of the first fine partition."""
    if sum(fine) != sum(coarse):
        assert not coarsening_feasible(fine, coarse)
        return
    base = first_partition_of_type(fine)

    def merge_search(blocks_left, bins):
        if not blocks_left:
            return all(b == 0 for b in bins)
        blk = blocks_left[0]
        for i in range(len(bins)):
            if bins[i] >= len(blk):
                nxt = list(bins)
                nxt[i] -= len(blk)
                if merge_search(blocks_left[1:], nxt):
                    return True
        return False

    assert coarsening_feasible(fine, coarse) == \
        merge_search(list(base), list(coarse))
