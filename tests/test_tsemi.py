"""Transformation semigroup tests.

Brute-force oracles: full T_n enumeration for n <= 5, naive pairwise-closure
worklists, cubic regularity scans, and a plain breadth-first walk on image
tuples that the walks on bytes rows are checked against. Generation
routines are checked against these before any structural claim is trusted.
"""

import math
import random
import re
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import omega_power
from parthom import tsemi
from parthom.catalog import build_group, catalog_entries
from parthom.partitions import (
    act_set_partition,
    canon_set_partition,
    coarsening_feasible,
    integer_partitions,
    refines,
)
from parthom.perm import (EnumerationCapExceeded, Permutation, PermGroup,
                          WideRow, enumerate_elements, point_tables,
                          walk_rows)
from parthom.snpairs import is_independent, is_sn_pair
from parthom.tsemi import (
    TransSemigroup,
    Transformation,
    closure,
    contains_all_constants,
    generate_arc,
    generate_arc_set,
    generate_conjugates,
    green_checks,
    idempotents,
    is_idempotent_generated,
    is_regular,
    local_group_at,
    parse_transformation,
    sn_normal_membership,
)

MAP_A5 = parse_transformation("1,1,3,4,5")   # kernel type (2,1,1,1)
MAP_B5 = parse_transformation("1,1,3,3,5")   # kernel type (2,2,1)


def all_maps(n):
    return [Transformation(t) for t in product(range(n), repeat=n)]


def singular_maps(n):
    return [t for t in all_maps(n) if not t.is_permutation()]


@lru_cache(maxsize=None)
def full_singular(n):
    """T_n minus S_n via generate_arc over the symmetric group."""
    return generate_arc(first_of_type(n, (2,) + (1,) * (n - 2)),
                        build_group("s:%d" % n))


def first_of_type(n, shape):
    """A transformation whose kernel type is the given partition."""
    images = []
    point = 0
    for size in shape:
        images.extend([point] * size)
        point += size
    return Transformation(images)


def naive_closure(gens):
    """Worklist with pairwise products in both orders; the slow oracle."""
    out = set(gens)
    changed = True
    while changed:
        changed = False
        for x in list(out):
            for y in list(out):
                for z in (x * y, y * x):
                    if z not in out:
                        out.add(z)
                        changed = True
    return out


small_maps = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n))


# ---------------------------------------------------------------------------
# Transformation basics


def test_parse_format_round_trip():
    assert MAP_A5.text() == "1,1,3,4,5"
    assert parse_transformation("2, 3, 4, 2").images == (1, 2, 3, 1)
    assert parse_transformation("1,1,3,4,5", n=5) == MAP_A5


def test_parse_rejects():
    with pytest.raises(ValueError):
        parse_transformation("")
    with pytest.raises(ValueError):
        parse_transformation("1,2,5", n=3)
    with pytest.raises(ValueError):
        parse_transformation("1,2", n=3)
    with pytest.raises(ValueError):
        Transformation([0, 4, 1])
    with pytest.raises(ValueError):
        Transformation([])


@pytest.mark.parametrize("token", ["1_0", "+2", "-1", "\uff13", "2.0", "0x2"])
def test_parse_takes_only_ascii_digit_tokens(token):
    # int() alone would read all but the last two of these as numbers
    with pytest.raises(ValueError, match="not a number: %s$"
                       % re.escape(repr(token))):
        parse_transformation("1,%s,3" % token)


def test_parse_names_the_one_based_range():
    # the text is 1-based, so its error is too; the constructor's stays
    # 0-based
    for text in ("1,1,4", "0,1,2"):
        with pytest.raises(ValueError, match=r"must lie in 1\.\.3$"):
            parse_transformation(text)
    with pytest.raises(ValueError, match=r"must lie in 0\.\.2$"):
        Transformation([0, 3, 1])


def test_cached_structure():
    assert MAP_A5.rank == 4
    assert MAP_A5.image_set == (0, 2, 3, 4)
    assert MAP_A5.kernel == ((0, 1), (2,), (3,), (4,))
    assert MAP_A5.kernel_type == (2, 1, 1, 1)
    assert MAP_B5.kernel_type == (2, 2, 1)
    assert MAP_B5.kernel == ((0, 1), (2, 3), (4,))


def test_composition_order():
    a = parse_transformation("2,2,3")
    b = parse_transformation("3,1,1")
    # apply a first, then b
    assert (a * b).images == tuple(b.images[v] for v in a.images)
    assert (a * b).text() == "1,1,1"


def test_composition_rejects_mixed_degrees():
    short = Transformation([0, 0, 1])
    long = Transformation([1, 0, 2, 3, 4])
    with pytest.raises(ValueError, match="degrees differ"):
        short * long
    with pytest.raises(ValueError, match="degrees differ"):
        long * short


def test_permutation_bridge():
    t = parse_transformation("2,3,1")
    assert t.is_permutation()
    assert t.to_permutation().images == (1, 2, 0)
    assert Transformation.from_permutation(t.to_permutation()) == t
    with pytest.raises(ValueError):
        MAP_A5.to_permutation()


def test_constructors():
    assert Transformation.identity(4).images == (0, 1, 2, 3)
    assert Transformation.constant(3, 1).images == (1, 1, 1)


def test_images_is_a_tuple_view_of_the_row():
    t = parse_transformation("2,2,3")
    assert type(t.images) is tuple and t.images == (1, 1, 2)
    assert t.row == b"\x01\x01\x02"
    assert Transformation(b"\x01\x01\x02") == t
    assert type((t * t).images) is tuple


@pytest.mark.parametrize("images", [[0.5, 1, 1], [0.0, 1.0], ["0", 1],
                                    [None, 0]])
def test_non_integer_images_rejected(images):
    with pytest.raises(ValueError, match="integers"):
        Transformation(images)


def test_integer_like_images_accepted():
    # bool is an int, and an object with __index__ is read through it
    class Point:
        def __init__(self, v):
            self.v = v

        def __index__(self):
            return self.v

    assert Transformation([True, False, 2]).images == (1, 0, 2)
    assert Transformation(map(Point, [2, 0, 0])).images == (2, 0, 0)


@given(small_maps)
def test_rank_equals_blocks_and_image(imgs):
    t = Transformation(imgs)
    assert t.rank == len(t.kernel) == len(t.image_set)
    assert canon_set_partition(t.kernel) == t.kernel


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n))))
def test_associative_and_rank_monotone(triple):
    x, y, z = (Transformation(t) for t in triple)
    assert (x * y) * z == x * (y * z)
    assert (x * y).rank <= min(x.rank, y.rank)


# ---------------------------------------------------------------------------
# omega power


def test_omega_power_odd_cycle():
    # squaring alone would loop a -> a^2 -> a^4 = a here, period 3 cycle
    a = parse_transformation("2,3,4,2")
    w = omega_power(a)
    assert w == parse_transformation("4,2,3,4")
    assert w * w == w
    assert a * a != a and (a * a) * (a * a) != a * a


def test_omega_power_fixed_by_idempotent():
    e = parse_transformation("1,1,3")
    assert omega_power(e) == e


@given(small_maps)
def test_omega_power_is_the_unique_idempotent_power(imgs):
    a = Transformation(imgs)
    powers = {a}
    x = a
    for _ in range(3 * len(imgs)):
        x = x * a
        powers.add(x)
    idem = {p for p in powers if p * p == p}
    assert idem == {omega_power(a)}


def test_single_generator_closure_has_one_idempotent():
    for a in singular_maps(4):
        assert idempotents(closure([a])) == {omega_power(a)}


# ---------------------------------------------------------------------------
# closure


def test_closure_single_idempotent():
    e = parse_transformation("1,1,3,4")
    assert closure([e]).elements == frozenset([e])


def test_closure_of_constants():
    consts = [Transformation.constant(3, v) for v in range(3)]
    s = closure(consts)
    assert s.elements == frozenset(consts)
    assert s.is_closed()


def test_closure_cap_counts_the_generators():
    # the three constant maps close on themselves: a cap of 3 holds them,
    # a cap of 1 or 2 cannot hold even the generators, and a cap of 0 is
    # refused
    consts = [Transformation.constant(3, v) for v in range(3)]
    assert len(closure(consts, cap=3).elements) == 3
    for cap in (1, 2):
        with pytest.raises(EnumerationCapExceeded, match="3 distinct seeds"):
            closure(consts, cap=cap)
    with pytest.raises(ValueError, match="at least 1"):
        closure(consts, cap=0)


def test_closure_rejects():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([Transformation.constant(3, 0), Transformation.constant(4, 0)])


def test_closure_cap():
    gens = [MAP_A5, parse_transformation("2,3,4,5,1")]
    with pytest.raises(EnumerationCapExceeded):
        closure(gens, cap=10)


def cap_message_counts(err):
    found = re.search(r"cap of (\d+) states \((\d+) states visited, "
                      r"(\d+) in the frontier", str(err.value))
    assert found, str(err.value)
    return tuple(int(v) for v in found.groups())


def test_closure_cap_boundary():
    gens = [MAP_A5, parse_transformation("2,3,4,5,1")]
    size = len(closure(gens))
    assert len(closure(gens, cap=size)) == size
    with pytest.raises(EnumerationCapExceeded) as err:
        closure(gens, cap=size - 1)
    cap, visited, frontier = cap_message_counts(err)
    assert cap == visited == size - 1
    assert 0 < frontier < size


def test_generate_arc_set_cap_boundary():
    # the walk holds the whole monoid: the non-units and the group itself
    for spec, a in (("agl1:5", MAP_A5), ("d:5", MAP_B5)):
        group = build_group(spec)
        units = group.order()
        size = len(generate_arc_set([a], group)) + units
        assert len(generate_arc_set([a], group, cap=size)) == size - units
        with pytest.raises(EnumerationCapExceeded) as err:
            generate_arc_set([a], group, cap=size - 1)
        cap, visited, frontier = cap_message_counts(err)
        assert cap == visited == size - 1
        assert 0 < frontier < size


def test_generate_arc_set_cap_counts_units_and_non_units():
    # raises for every cap below |G| + |arc| and for none from there on,
    # whether the group's own walk or a double class crosses the cap
    group = build_group("d:5")
    for maps in ([Transformation.constant(5, 0)],
                 [first_of_type(5, (3, 1, 1)), first_of_type(5, (2, 2, 1))]):
        size = len(generate_arc_set(maps, group)) + group.order()
        for cap in range(1, size + 2):
            if cap < size:
                with pytest.raises(EnumerationCapExceeded,
                                   match="walk stopped at the cap of %d "
                                         "states \\(%d states visited"
                                   % (cap, cap)):
                    generate_arc_set(maps, group, cap=cap)
            else:
                assert len(generate_arc_set(maps, group, cap=cap)) \
                    == size - group.order()


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=1, max_size=3)))
def test_closure_matches_pairwise_worklist(gen_lists):
    gens = [Transformation(g) for g in gen_lists]
    assert closure(gens).elements == frozenset(naive_closure(gens))


def test_closure_matches_pairwise_worklist_degree4():
    gens = [parse_transformation("2,3,4,2"), parse_transformation("1,1,3,4"),
            parse_transformation("2,1,4,3")]
    assert closure(gens).elements == frozenset(naive_closure(gens))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=2, max_size=3)))
def test_closure_idempotent_and_monotone(gen_lists):
    gens = [Transformation(g) for g in gen_lists]
    s = closure(gens)
    assert closure(sorted(s.elements, key=lambda t: t.images)).elements \
        == s.elements
    sub = closure(gens[:1])
    assert sub.elements <= s.elements


def test_closure_of_gah_orbit_is_all_singular_maps():
    els = [e.images for e in enumerate_elements(build_group("agl1:5"))]
    gens = {tuple(h[MAP_A5.images[g[i]]] for i in range(5))
            for g in els for h in els}
    s = closure([Transformation(t) for t in sorted(gens)])
    assert len(s) == 5 ** 5 - math.factorial(5) == 3005
    assert s.elements == full_singular(5).elements


def plain_walk(seeds, gens):
    """Breadth-first closure of image tuples under right multiplication by
    gens, on plain tuples: the reference the row walks are checked against."""
    gets = [g.__getitem__ for g in gens]
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for get in gets:
                q = tuple(map(get, p))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def as_maps(rows):
    return frozenset(Transformation(r) for r in rows)


def check_walk_rows(gens):
    """walk_rows from the generators' rows through their tables against
    plain_walk: the same rows, and the cap trips for every cap below the
    size and for none from there on, with walk's message."""
    rows = [g.row for g in gens]
    tables = point_tables(rows)
    plain = plain_walk([g.images for g in gens], [g.images for g in gens])
    walked = walk_rows(rows, tables, len(plain), EnumerationCapExceeded)
    assert {tuple(row) for row in walked} == plain
    assert all(type(row) is type(rows[0]) for row in walked)
    for cap in range(max(1, len(plain) - 3), len(plain)):
        with pytest.raises(EnumerationCapExceeded) as err:
            walk_rows(rows, tables, cap, EnumerationCapExceeded)
        if cap >= len(set(rows)):
            cap_seen, visited, frontier = cap_message_counts(err)
            assert cap_seen == visited == cap and 0 < frontier < len(plain)
    return walked


def test_walk_rows_matches_plain_walk():
    rng = random.Random(15)
    for n in (3, 4, 5):
        for _ in range(6):
            gens = [Transformation(rng.choices(range(n), k=n))
                    for _ in range(rng.randint(1, 3))]
            check_walk_rows(gens)
    check_walk_rows([MAP_A5, parse_transformation("2,3,4,5,1")])


def test_walk_rows_of_seeds_that_close_at_once():
    # with no tables the seeds are the result; constant maps and one
    # idempotent close on themselves; duplicate seeds count once
    consts = [Transformation.constant(4, v) for v in (0, 2)]
    e = parse_transformation("1,1,3,4")
    rows = [c.row for c in consts]
    assert walk_rows(rows + rows, [], 2, EnumerationCapExceeded) == set(rows)
    assert check_walk_rows(consts) == set(rows)
    assert check_walk_rows([e]) == {e.row}
    assert walk_rows([e.row], point_tables([e.row]), 1,
                     EnumerationCapExceeded) == {e.row}
    with pytest.raises(EnumerationCapExceeded, match="2 distinct seeds"):
        walk_rows(rows, [], 1, EnumerationCapExceeded)
    with pytest.raises(ValueError, match="at least 1"):
        walk_rows(rows, [], 0, EnumerationCapExceeded)


def test_walk_rows_above_degree_256():
    n = 300
    shift = Transformation([(i + 1) % 5 if i < 5 else i for i in range(n)])
    fold = Transformation([0, 0] + list(range(2, n)))
    walked = check_walk_rows([shift, fold])
    assert all(type(row) is WideRow for row in walked)
    assert len(walked) > 5


class CountingTables(list):
    """A list of tables that counts the tables handed out by iteration."""

    used = 0

    def __iter__(self):
        for table in list.__iter__(self):
            self.used += 1
            yield table


def test_walk_rows_cap_trips_within_a_level():
    # the 20 conjugates of a rank-4 idempotent over S_5, which are the
    # closure's rank-4 idempotents, as seeds and tables: the first level's
    # products pass a cap just above the seeds after the first table, and
    # the walk stops there rather than after all 20
    a = MAP_A5
    conj = generate_conjugates(a, build_group("s:5"))
    seeds = {x.row for x in conj if x.rank == 4 and x * x == x}
    assert len(seeds) == 20
    tables = CountingTables(point_tables(seeds))
    with pytest.raises(EnumerationCapExceeded) as err:
        walk_rows(seeds, tables, len(seeds) + 1, EnumerationCapExceeded)
    assert cap_message_counts(err) == (21, 21, 20)
    assert tables.used < len(seeds)
    with pytest.raises(EnumerationCapExceeded) as err:
        generate_conjugates(a, build_group("s:5"), cap=len(seeds) + 1)
    assert cap_message_counts(err) == (21, 21, 20)


def plain_conjugates(a, group):
    """The image tuples of g^-1 a g over the group, whose elements come
    from plain_walk too."""
    n = a.degree
    conj = set()
    for g in plain_walk([tuple(range(n))], group.raw_gens()):
        ginv = sorted(range(n), key=g.__getitem__)
        conj.add(tuple(g[a.images[ginv[i]]] for i in range(n)))
    return conj


def check_walks_against_plain(a, group, conjugates=True):
    """generate_arc_set, closure and (unless told not to)
    generate_conjugates against plain tuple walks."""
    n = group.degree
    raw = [a.images] + group.raw_gens()
    monoid = plain_walk([tuple(range(n))], raw)
    assert generate_arc_set([a], group).elements == as_maps(
        t for t in monoid if len(set(t)) < n)
    gens = [a] + [Transformation.from_permutation(g) for g in group.generators]
    assert closure(gens).elements == as_maps(plain_walk(raw, raw))
    if conjugates:
        conj = plain_conjugates(a, group)
        assert generate_conjugates(a, group).elements == as_maps(
            plain_walk(conj, conj))


def singular_types(n):
    return [shape for shape in integer_partitions(n) if max(shape) > 1]


@pytest.mark.parametrize("entry", catalog_entries(5), ids=lambda e: e.spec)
def test_row_walks_match_plain_walk_to_degree_five(entry):
    n = entry.group.degree
    for shape in singular_types(n):
        check_walks_against_plain(first_of_type(n, shape), entry.group)


DEGREE_SIX = [e.spec for e in catalog_entries(6) if e.group.degree == 6]


@pytest.mark.parametrize("spec", DEGREE_SIX)
def test_row_walks_match_plain_walk_degree_six(spec):
    group = build_group(spec)
    rng = random.Random(spec)
    for shape in singular_types(6):
        images = list(first_of_type(6, shape).images)
        rng.shuffle(images)
        # from rank 3 up a conjugate closure walks hundreds of generators
        # over up to 45936 maps, 1-25 s each in the plain walk, so only the
        # ranks 1 and 2 are checked here (degree 5 covers every rank)
        check_walks_against_plain(Transformation(images), group,
                                  conjugates=len(shape) <= 2)


def plain_arc(maps, group):
    """The non-units of the monoid the maps and the group generate, from
    plain_walk: the reference for generate_arc_set."""
    n = group.degree
    monoid = plain_walk([tuple(range(n))],
                        [a.images for a in maps] + group.raw_gens())
    return as_maps(t for t in monoid if len(set(t)) < n)


@pytest.mark.parametrize("spec", ["agl1:5", "d:5", "d:6", "psl2:5"])
def test_arc_of_an_independent_pair_matches_plain_walk(spec):
    # neither kernel type coarsens into the other, so neither map's arc
    # holds the other map, and the queue starts with two classes
    group = build_group(spec)
    n = group.degree
    maps = [first_of_type(n, (3,) + (1,) * (n - 3)),
            Transformation([1, 0, 1, 0] + list(range(4, n)))]
    assert is_independent(maps)
    arc = generate_arc_set(maps, group)
    assert arc.elements == plain_arc(maps, group)
    for a in maps:
        assert len(generate_arc(a, group)) < len(arc)


def test_degree_300_arc_matches_plain_walk():
    # a group of order 6 that moves points 0-4 and 297-299, and a map that
    # folds 0 onto 1 and 298 onto 297: every row of the arc is a WideRow
    n = 300
    group = PermGroup(n, [Permutation.from_cycles(
        n, [(1, 2, 3), (4, 5), (298, 299, 300)])], name="c6 on 300")
    assert group.order() == 6
    images = list(range(n))
    images[0], images[298] = 1, 297
    a = Transformation(images)
    arc = generate_arc_set([a], group)
    assert all(type(row) is WideRow for row in arc.rows)
    assert arc.elements == plain_arc([a], group)
    assert len(arc) > 6


def double_class_representatives(group):
    """One singular map of degree n per orbit of G x G, acting by
    x -> g x h, as image rows, with the orbits found by brute force."""
    n = group.degree
    g_rows = [bytes(g.images) for g in enumerate_elements(group)]
    g_tables = [g.ljust(256, b"\0") for g in g_rows]
    seen, reps = set(), []
    for images in product(range(n), repeat=n):
        x = bytes(images)
        if x in seen or len(set(x)) == n:
            continue
        reps.append(x)
        table = x.ljust(256, b"\0")
        seen.update(gx.translate(h) for gx in {g.translate(table)
                                               for g in g_rows}
                    for h in g_tables)
    assert len(seen) == n ** n - math.factorial(n)
    return reps


@pytest.mark.slow
def test_every_degree_six_map_decides_its_pair_by_its_arc():
    """ROADMAP direction 3: gah generates with G what a does, so one arc per
    G x G orbit on the 45,936 singular maps of degree 6 covers them all.
    For each catalog group of degree 6 and each orbit, the arc equals the
    S_6 arc of the same kernel type exactly when is_sn_pair accepts."""
    sym = build_group("s:6")
    sym_arcs = {shape: generate_arc(first_of_type(6, shape), sym).rows
                for shape in singular_types(6)}
    orbits = {}
    for spec in DEGREE_SIX:
        group = build_group(spec)
        reps = double_class_representatives(group)
        orbits[spec] = len(reps)
        for row in reps:
            a = Transformation(row)
            equal = generate_arc(a, group).rows == sym_arcs[a.kernel_type]
            assert equal == is_sn_pair(a, group).verdict, (spec, a.text())
    assert orbits == {"s:6": 10, "a:6": 10, "pgl2:5": 15, "psl2:5": 30,
                      "d:6": 400, "c:6": 1292}


def test_is_closed_detects_holes():
    a = parse_transformation("2,3,4,2")
    broken = TransSemigroup(4, frozenset([a]))
    assert not broken.is_closed()


def test_is_closed_checks_every_pair():
    # the maps of rank at most 2 on 5 points are closed; the rank-4 map a
    # keeps them closed on both sides but its square is missing, and with
    # 306 elements the hole lies past the first 10^4 pairs
    low_rank = [t for t in map(Transformation, product(range(5), repeat=5))
                if t.rank <= 2]
    assert TransSemigroup(5, frozenset(low_rank)).is_closed()
    a = parse_transformation("5,5,4,3,2")
    holed = TransSemigroup(5, frozenset(low_rank + [a]))
    assert len(holed) == 306 and a * a not in holed
    assert not holed.is_closed()


# ---------------------------------------------------------------------------
# generate_arc and the coarsening-cone law


def test_arc_rejects_permutation():
    with pytest.raises(ValueError, match="permutation given"):
        generate_arc(parse_transformation("2,1,3,4,5"), build_group("s:5"))
    with pytest.raises(ValueError, match="degree"):
        generate_arc(MAP_A5, build_group("s:4"))


def test_arc_constant_over_transitive():
    s = generate_arc(Transformation.constant(4, 0), build_group("c:4"))
    assert s.elements == frozenset(Transformation.constant(4, v)
                                   for v in range(4))
    assert contains_all_constants(s)


def test_arc_degree5_pair_reaches_everything():
    s = generate_arc(MAP_A5, build_group("agl1:5"))
    assert len(s) == 3005
    assert s.elements == full_singular(5).elements


def test_arc_degree5_non_pair_is_proper():
    small = generate_arc(MAP_B5, build_group("agl1:5"))
    big = generate_arc(MAP_B5, build_group("s:5"))
    assert small.elements < big.elements


@pytest.mark.parametrize("n", [2, 3, 4])
def test_arc_equals_coarsening_cone_exhaustive(n):
    sym = build_group("s:%d" % n)
    singular = singular_maps(n)
    for a in singular:
        arc = generate_arc(a, sym)
        expected = {b for b in singular
                    if coarsening_feasible(a.kernel_type, b.kernel_type)}
        assert arc.elements == frozenset(expected)
        for b in singular:
            assert sn_normal_membership(b, a) == (b in arc.elements)


def test_arc_equals_coarsening_cone_degree5_sampled():
    sym = build_group("s:5")
    reps = [first_of_type(5, shape) for shape in
            [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)]]
    rng = random.Random(55)
    pool = singular_maps(5)
    sample = reps + rng.sample(pool, 15)
    for a in sample:
        arc = generate_arc(a, sym)
        expected = {b for b in pool
                    if coarsening_feasible(a.kernel_type, b.kernel_type)}
        assert arc.elements == frozenset(expected)


@pytest.mark.parametrize("n", [3, 4])
def test_arc_alternating_equals_symmetric(n):
    alt = build_group("a:%d" % n)
    sym = build_group("s:%d" % n)
    for a in singular_maps(n):
        assert generate_arc(a, alt).elements == generate_arc(a, sym).elements


def test_arc_alternating_equals_symmetric_degree5():
    alt = build_group("a:5")
    sym = build_group("s:5")
    rng = random.Random(7)
    for a in rng.sample(singular_maps(5), 12):
        assert generate_arc(a, alt).elements == generate_arc(a, sym).elements


def _rank_slice(semigroup, r):
    return {t for t in semigroup if t.rank == r}


def test_top_rank_slice_decides_equality_degree4():
    sym = build_group("s:4")
    groups = [build_group(spec) for spec in ["c:4", "d:4", "a:4"]]
    for a in singular_maps(4):
        big = generate_arc(a, sym)
        for g in groups:
            small = generate_arc(a, g)
            full_eq = small.elements == big.elements
            slice_eq = _rank_slice(small, a.rank) == _rank_slice(big, a.rank)
            assert full_eq == slice_eq


def test_top_rank_slice_decides_equality_degree5():
    sym = build_group("s:5")
    groups = [build_group(spec) for spec in ["c:5", "agl1:5"]]
    rng = random.Random(11)
    for a in rng.sample(singular_maps(5), 10) + [MAP_A5, MAP_B5]:
        big = generate_arc(a, sym)
        for g in groups:
            small = generate_arc(a, g)
            full_eq = small.elements == big.elements
            slice_eq = _rank_slice(small, a.rank) == _rank_slice(big, a.rank)
            assert full_eq == slice_eq


# ---------------------------------------------------------------------------
# conjugate closure


def test_conjugates_under_trivial_group_give_powers():
    a = parse_transformation("2,3,4,2")
    trivial = build_group("fix+fix+fix+c:1")
    assert trivial.degree == 4 and trivial.order() == 1
    s = generate_conjugates(a, trivial)
    assert s.elements == closure([a]).elements


def test_conjugates_equal_arc_on_affine_pair():
    g = build_group("agl1:5")
    conj = generate_conjugates(MAP_A5, g)
    arc = generate_arc(MAP_A5, g)
    assert conj.elements == arc.elements
    assert idempotents(conj) == idempotents(arc)


def test_conjugates_always_inside_arc():
    g = build_group("d:4")
    for a in [parse_transformation("1,1,3,4"), parse_transformation("2,2,2,1"),
              parse_transformation("1,1,2,2")]:
        assert generate_conjugates(a, g).elements \
            <= generate_arc(a, g).elements


def test_conjugates_rejects_permutation():
    with pytest.raises(ValueError, match="permutation given"):
        generate_conjugates(parse_transformation("2,1,3,4"), build_group("c:4"))


# ---------------------------------------------------------------------------
# membership by kernel type


def test_membership_reflexive_and_strict():
    assert sn_normal_membership(MAP_A5, MAP_A5)
    assert sn_normal_membership(MAP_B5, MAP_A5)
    assert not sn_normal_membership(MAP_A5, MAP_B5)


def test_membership_matches_pointwise_kernel_translation():
    g5 = build_group("s:5")
    for a, b, expected in [(MAP_A5, MAP_B5, True), (MAP_B5, MAP_A5, False)]:
        found = any(refines(act_set_partition(a.kernel, g.images), b.kernel)
                    for g in enumerate_elements(g5))
        assert found == expected
        assert sn_normal_membership(b, a) == expected


def test_membership_rejects():
    with pytest.raises(ValueError):
        sn_normal_membership(MAP_A5, parse_transformation("2,1,3,4,5"))
    with pytest.raises(ValueError):
        sn_normal_membership(parse_transformation("1,1,3"), MAP_A5)


# ---------------------------------------------------------------------------
# idempotents


def test_idempotents_of_constants():
    consts = [Transformation.constant(3, v) for v in range(3)]
    assert idempotents(closure(consts)) == set(consts)


def _idempotent_count_formula(n):
    # one idempotent per (set partition with < n blocks, section of it):
    # the section picks the fixed image point inside each block
    total = 0
    for blocks in _set_partitions(tuple(range(n))):
        if len(blocks) == n:
            continue
        weight = 1
        for b in blocks:
            weight *= len(b)
        total += weight
    return total


def _set_partitions(points):
    if not points:
        yield ()
        return
    head, rest = points[0], points[1:]
    for k in range(len(rest) + 1):
        for others in combinations(rest, k):
            block = (head,) + others
            pool = tuple(p for p in rest if p not in others)
            for more in _set_partitions(pool):
                yield (block,) + more


@pytest.mark.parametrize("n,expected", [(3, 9), (4, 40), (5, 195)])
def test_idempotent_counts(n, expected):
    assert _idempotent_count_formula(n) == expected
    scan = {t for t in singular_maps(n) if t * t == t}
    assert len(scan) == expected
    assert idempotents(full_singular(n)) == scan


# ---------------------------------------------------------------------------
# regularity


def test_band_is_regular():
    consts = [Transformation.constant(4, v) for v in range(4)]
    assert is_regular(closure(consts))


def test_full_singular_part_is_regular():
    assert is_regular(full_singular(4))
    assert is_regular(full_singular(5))


def test_non_regular_single_generator_closure():
    a = parse_transformation("2,3,3,1")
    s = closure([a])
    assert not is_regular(s)
    # cubic oracle agrees: no y with a y a = a
    assert not any(a * y * a == a for y in s)


def brute_regular(semigroup):
    return all(any(x * y * x == x for y in semigroup) for x in semigroup)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                min_size=1, max_size=2))
def test_regularity_matches_cubic_oracle(gen_lists):
    gens = [Transformation(g) for g in gen_lists]
    s = closure(gens)
    assert is_regular(s) == brute_regular(s)


# ---------------------------------------------------------------------------
# idempotent generation


def test_band_idempotent_generated():
    consts = [Transformation.constant(3, v) for v in range(3)]
    assert is_idempotent_generated(closure(consts))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_full_singular_part_idempotent_generated(n):
    assert is_idempotent_generated(full_singular(n))


def test_conjugate_closures_idempotent_generated_degree4():
    sym = build_group("s:4")
    seen_types = set()
    for a in singular_maps(4):
        if a.kernel_type in seen_types:
            continue
        seen_types.add(a.kernel_type)
        assert is_idempotent_generated(generate_conjugates(a, sym))


def test_idempotent_generation_failure():
    a = parse_transformation("2,1,2,2")
    s = closure([a])
    assert len(s) == 2 and not is_idempotent_generated(s)
    found = next(t for t in singular_maps(4)
                 if t.rank == 2 and not is_idempotent_generated(closure([t])))
    assert found.rank == 2


def test_idempotent_generation_matches_the_closure_of_every_idempotent():
    """`is_idempotent_generated` closes only the idempotents that the
    closure of the higher ranks misses; here against the closure of all of
    them, on the arc of one map of each kernel type over every catalog
    group to degree 5.  A passing pair's arc is the arc of its kernel type
    over S_n, and over S_n every map passes, so every passing-pair arc to
    degree 5 is among them; the other arcs bring in semigroups that fail."""
    verdicts = {True: 0, False: 0}
    passing = 0
    for entry in catalog_entries(5):
        n = entry.group.degree
        for shape in singular_types(n):
            a = first_of_type(n, shape)
            s = generate_arc(a, entry.group)
            every = closure(sorted(idempotents(s), key=lambda t: t.row))
            verdict = is_idempotent_generated(s)
            assert verdict == (every.elements == s.elements), \
                (entry.spec, shape)
            verdicts[verdict] += 1
            passing += is_sn_pair(a, entry.group).verdict
    assert verdicts[True] > passing > 0 and verdicts[False] > 0


# ---------------------------------------------------------------------------
# constants


def test_constants_in_full_singular_part():
    assert contains_all_constants(full_singular(3))


def test_constants_missing_from_small_closure():
    e = parse_transformation("1,1,3,3")
    assert not contains_all_constants(closure([e]))


def test_constants_from_any_pair_with_transitive_group():
    s = generate_arc(MAP_A5, build_group("agl1:5"))
    assert contains_all_constants(s)


# ---------------------------------------------------------------------------
# Green's relations


def test_green_equal_elements():
    s = full_singular(3)
    a = Transformation.constant(3, 0)
    report = green_checks(s, a, a)
    assert report.all_agree
    assert all(v.by_ideals for v in report.verdicts)


def test_green_two_constants():
    s = full_singular(3)
    a = Transformation.constant(3, 0)
    b = Transformation.constant(3, 1)
    report = green_checks(s, a, b)
    by_name = report.as_dict()
    assert by_name["R"] == {"ideals": True, "invariants": True}
    assert by_name["L"] == {"ideals": False, "invariants": False}
    assert by_name["J"] == {"ideals": True, "invariants": True}
    assert report.all_agree


def test_green_random_pairs_agree_degree4():
    s = full_singular(4)
    pool = sorted(s.elements, key=lambda t: t.images)
    rng = random.Random(44)
    for _ in range(12):
        a, b = rng.choice(pool), rng.choice(pool)
        assert green_checks(s, a, b).all_agree


def test_green_one_pair_degree5():
    s = full_singular(5)
    report = green_checks(s, MAP_A5, MAP_B5)
    assert report.all_agree
    assert not report.as_dict()["J"]["ideals"]  # ranks 4 vs 3


def plain_ideals(semigroup, x):
    """R, L and J ideals of x as sets of image tuples, from pairwise tuple
    products: x S^1, S^1 x and S^1 x S^1."""
    def mul(p, q):
        return tuple(q[i] for i in p)
    rows = [t.images for t in semigroup]
    xi = x.images
    right = {xi} | {mul(xi, s) for s in rows}
    left = {xi} | {mul(s, xi) for s in rows}
    both = left | {mul(y, s) for y in left for s in rows}
    return right, left, both


@pytest.mark.parametrize("spec", ["c:4", "d:4", "a:4"])
def test_structure_checks_match_cubic_oracles_degree4(spec):
    group = build_group(spec)
    rng = random.Random(spec)
    for shape in singular_types(4):
        s = generate_arc(first_of_type(4, shape), group)
        assert is_regular(s) == brute_regular(s)
        ids = {x for x in s if x * x == x}
        assert idempotents(s) == ids
        assert is_idempotent_generated(s) == (naive_closure(ids) == s.elements)
        pool = sorted(s.elements, key=lambda t: t.images)
        for _ in range(4):
            a, b = rng.choice(pool), rng.choice(pool)
            expected = [ia == ib for ia, ib in zip(plain_ideals(s, a),
                                                   plain_ideals(s, b))]
            report = green_checks(s, a, b)
            assert [v.by_ideals for v in report.verdicts] == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=1, max_size=3)))
def test_structure_checks_match_cubic_oracles_random(gen_lists):
    s = closure(Transformation(g) for g in gen_lists)
    assert is_regular(s) == brute_regular(s)
    ids = {x for x in s if x * x == x}
    assert is_idempotent_generated(s) == (naive_closure(ids) == s.elements)
    pool = sorted(s.elements, key=lambda t: t.images)
    a, b = pool[0], pool[-1]
    expected = [ia == ib for ia, ib in zip(plain_ideals(s, a),
                                           plain_ideals(s, b))]
    assert [v.by_ideals for v in green_checks(s, a, b).verdicts] == expected


def test_sorting_by_row_is_sorting_by_images():
    for s in (full_singular(4), closure([Transformation(
            [(3 * i + 1) % 300 for i in range(300)]),
            Transformation.constant(300, 7)])):
        by_images = sorted(s.elements, key=lambda t: t.images)
        assert sorted(s.elements, key=lambda t: t.row) == by_images


@pytest.mark.parametrize("entry", catalog_entries(4), ids=lambda e: e.spec)
def test_green_ideals_and_regularity_match_plain_constructions(entry):
    """On the arc of each kernel type over each group to degree 4: the
    two-sided ideal from restriction tables is the plain one of every
    idempotent, green_checks' J verdict on every pair of idempotents
    compares those ideals, and is_regular agrees with its definition."""
    n = entry.group.degree
    for shape in singular_types(n):
        s = generate_arc(first_of_type(n, shape), entry.group)
        tables = point_tables(s.rows)
        ids = sorted(idempotents(s), key=lambda t: t.row)
        ideals = {}
        for e in ids:
            ideals[e] = reference.two_sided_ideal(s.rows, e.row)
            assert tsemi._two_sided_ideal(s.rows, tables, e.row) \
                == ideals[e]
        for e, f in product(ids, repeat=2):
            j = green_checks(s, e, f).verdicts[2]
            assert j.by_ideals == (ideals[e] == ideals[f]), (shape, e, f)
        assert is_regular(s) == reference.is_regular_by_definition(s.rows)


def test_regularity_matches_its_definition_on_random_closures():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(3, 5)
        gens = [Transformation(rng.choices(range(n), k=n))
                for _ in range(rng.randint(1, 2))]
        s = closure(gens)
        regular = is_regular(s)
        assert regular == reference.is_regular_by_definition(s.rows), gens
        verdicts.add(regular)
    assert verdicts == {True, False}


def test_regularity_matches_its_definition_on_small_cyclic_arcs():
    """is_regular, read off the right Cayley graph over a and C_6's
    generator, against its definition on every distinct arc of at most
    1,500 maps among the arcs of one map per G x G orbit; and on two of
    them rebuilt by `TransSemigroup(degree, maps)`, whose maps are then
    their own generators: the arc of 1,1,1,1,3,5 (186 maps), which is not
    regular, and that of 1,1,1,1,3,4 (258 maps), which is."""
    group = build_group("c:6")
    arcs = set()
    verdicts = set()
    for row in double_class_representatives(group):
        try:
            s = generate_arc(Transformation(row), group, cap=1500 + 6)
        except EnumerationCapExceeded:
            continue
        if frozenset(s.rows) not in arcs:
            arcs.add(frozenset(s.rows))
            regular = is_regular(s)
            assert regular == reference.is_regular_by_definition(s.rows)
            verdicts.add(regular)
    assert verdicts == {True, False}
    for text, size, regular in (("1,1,1,1,3,5", 186, False),
                                ("1,1,1,1,3,4", 258, True)):
        s = generate_arc(parse_transformation(text), group)
        assert len(s) == size and frozenset(s.rows) in arcs
        assert is_regular(s) == is_regular(TransSemigroup(6, s)) == regular


def test_regularity_needs_rows_closed_under_their_generators():
    broken = TransSemigroup(4, [parse_transformation("2,3,4,2")])
    with pytest.raises(ValueError, match="not closed"):
        is_regular(broken)


def test_idempotent_closures_stop_once_they_hold_the_semigroup(monkeypatch):
    """The closure of the 60 rank-3 idempotents of the S_5 arc of 1,1,3,3,5
    holds all 1,205 maps after two levels, and translates no third one."""
    levels = []

    class Tables(list):
        def __iter__(self):
            levels.append(len(self))
            return list.__iter__(self)

    walk = tsemi.walk_rows
    monkeypatch.setattr(tsemi, "walk_rows", lambda seeds, tables, *rest:
                        walk(seeds, Tables(tables), *rest))
    s = generate_arc(MAP_B5, build_group("s:5"))
    assert len(s) == 1205 and is_idempotent_generated(s)
    assert levels == [60, 60]


def test_idempotent_closures_resume_from_the_closed_rows():
    """1,1,3,4 and 1,2,1,2 generate four maps, among them their product
    1,1,1,2, which is not idempotent.  The closure of the rank-3 idempotent
    holds it alone, and the product is reached only when the rank-2 one
    joins, as a closed row times the new one."""
    e, f = parse_transformation("1,1,3,4"), parse_transformation("1,2,1,2")
    s = closure([e, f])
    assert len(s) == 4 and (e * f).text() == "1,1,1,2"
    assert e * f not in idempotents(s) and is_idempotent_generated(s)


def test_green_rejects_foreign_elements():
    s = full_singular(3)
    with pytest.raises(ValueError):
        green_checks(s, Transformation.constant(3, 0),
                     parse_transformation("1,2,3"))


def test_arcs_and_structure_checks_make_no_map_per_element(monkeypatch):
    """Arcs, their comparison and the structure checks work on image rows:
    they make at most one Transformation per idempotent, not one per
    element (3,005 per arc here)."""
    made = []
    from_row, init = tsemi._from_row, Transformation.__init__
    monkeypatch.setattr(tsemi, "_from_row",
                        lambda row: made.append(row) or from_row(row))
    monkeypatch.setattr(Transformation, "__init__",
                        lambda self, images: made.append(images)
                        or init(self, images))
    over_sym = generate_arc(MAP_A5, build_group("s:5"))
    over_group = generate_arc(MAP_A5, build_group("agl1:5"))
    equal = over_group.elements == over_sym.elements
    regular = is_regular(over_group)
    generated = is_idempotent_generated(over_group)
    monkeypatch.undo()
    assert len(over_group) == 3005 and equal and regular and generated
    assert len(made) <= len(idempotents(over_group)) == 195


FOREIGN = [Permutation.identity(3), b"\x00\x01\x02", b"\x00\x00\x00",
           Transformation.identity(4), Transformation.constant(4, 0)]


@pytest.mark.parametrize("foreign", FOREIGN, ids=repr)
def test_foreign_elements_are_not_members(foreign):
    """A permutation, a raw row and a map of another degree are neither in
    a semigroup nor in its elements, and the checks that take elements
    refuse them, although the identity and the constant map 1,1,1 are in
    it."""
    s = closure([Transformation.identity(3), Transformation.constant(3, 0)])
    assert Transformation.identity(3) in s.elements
    assert foreign not in s and foreign not in s.elements
    with pytest.raises(ValueError):
        green_checks(s, foreign, Transformation.identity(3))
    with pytest.raises(ValueError):
        green_checks(s, Transformation.identity(3), foreign)
    with pytest.raises(ValueError):
        local_group_at(s, foreign)


def test_elements_compare_with_plain_sets_from_either_side():
    small = generate_arc(MAP_B5, build_group("agl1:5"))
    big = generate_arc(MAP_B5, build_group("s:5"))
    assert len(small) < len(big)
    for arc in (small, big):
        plain = frozenset(arc)
        assert arc.elements == plain and plain == arc.elements
        assert arc.elements <= plain and plain <= arc.elements
        assert not arc.elements < plain and not plain < arc.elements
        assert arc.elements != plain - {min(plain, key=lambda t: t.row)}
    assert small.elements < frozenset(big) and frozenset(small) < big.elements
    assert big.elements > frozenset(small) and frozenset(big) > small.elements
    assert not big.elements <= frozenset(small)
    assert not frozenset(big) <= small.elements
    assert small.elements != big.elements and small.elements < big.elements


# ---------------------------------------------------------------------------
# local groups at idempotents


def test_local_group_at_constant():
    s = full_singular(3)
    e = Transformation.constant(3, 2)
    members, report = local_group_at(s, e)
    assert members == {e}
    assert report.size == 1 and report.factorial_match


def test_local_group_rank2_in_degree4():
    s = full_singular(4)
    e = parse_transformation("1,1,3,3")
    assert e * e == e
    members, report = local_group_at(s, e)
    assert report.size == 2 and report.rank == 2
    assert report.closed and report.has_identity and report.is_group_like


def test_local_group_rank3_in_degree5():
    s = full_singular(5)
    e = parse_transformation("1,1,3,4,4")
    assert e * e == e
    members, report = local_group_at(s, e)
    assert report.size == 6 and report.factorial_match


def test_local_groups_at_every_idempotent_degree4():
    s = full_singular(4)
    for e in idempotents(s):
        members, report = local_group_at(s, e)
        assert report.size == math.factorial(e.rank)
        assert report.is_group_like


def test_local_group_rejects():
    s = full_singular(3)
    with pytest.raises(ValueError):
        local_group_at(s, parse_transformation("2,3,3"))
    with pytest.raises(ValueError):
        local_group_at(s, parse_transformation("1,1,2,2"))


# ---------------------------------------------------------------------------
# above degree 256: rows are WideRow tuples, not bytes


def test_row_type_switches_above_degree_256():
    assert type(Transformation.identity(256).row) is bytes
    assert type(Transformation.identity(257).row) is WideRow
    assert type(Transformation.identity(257).images) is tuple


def test_degree_300_products_equality_and_hash():
    n = 300
    a = Transformation([(7 * i + 3) % n for i in range(n)])
    b = Transformation([i // 2 for i in range(n)])
    ab = a * b
    assert ab.images == tuple(b.images[v] for v in a.images)
    assert type(ab.row) is WideRow and ab.degree == n
    assert ab == Transformation(ab.images) and ab != a
    assert hash(ab) == hash(Transformation(ab.images))
    assert len({ab, Transformation(ab.images), a}) == 2
    assert (b * b).images == tuple(b.images[v] for v in b.images)


def test_degree_300_kernel_and_image_set():
    b = Transformation([i // 2 for i in range(300)])
    assert b.image_set == tuple(range(150))
    assert b.rank == 150 and not b.is_permutation()
    assert b.kernel == tuple((2 * k, 2 * k + 1) for k in range(150))
    assert b.kernel_type == (2,) * 150


def test_degree_300_rejects_mixed_degrees():
    big = Transformation.identity(300)
    for other in (Transformation.identity(299), MAP_A5):
        with pytest.raises(ValueError, match="degrees differ"):
            big * other
        with pytest.raises(ValueError, match="degrees differ"):
            other * big


def test_degree_300_closure_of_constants_and_idempotents():
    n = 300
    consts = [Transformation.constant(n, v) for v in (0, 5, 299)]
    assert closure(consts).elements == frozenset(consts)
    # e folds 1 onto 0, f folds 2 onto 1: both idempotent, ef is not
    e = Transformation([0, 0] + list(range(2, n)))
    f = Transformation([0, 1, 1] + list(range(3, n)))
    assert e * e == e and f * f == f
    gens = [e, f, consts[1]]
    s = closure(gens)
    assert s.elements == frozenset(naive_closure(gens))
    assert s.elements == as_maps(plain_walk([g.images for g in gens],
                                            [g.images for g in gens]))
    assert idempotents(s) >= {e, f, consts[1]}


# ---------------------------------------------------------------------------
# semigroup container


def test_semigroup_dump_format():
    consts = [Transformation.constant(3, v) for v in range(3)]
    s = closure(consts)
    assert s.sorted_texts() == ["1,1,1", "2,2,2", "3,3,3"]
    assert len(s) == 3
    assert Transformation.constant(3, 0) in s
