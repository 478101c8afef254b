"""Acceptance sweep: one test per criterion, one verdict line each.

Each criterion runs in full inside a single test so the pytest report line
is the criterion's pass/fail line.  Criterion 1 recomputes the bundled
reference tables, which are kept verbatim with four rows wrong as recorded.
Those rows are pinned in ERRATA: every other row must recompute to its
recorded verdict, the four must diverge exactly as pinned, and each pinned
verdict is proved by a certificate built from closures alone (README has
the analysis).
"""

import random
import time
from itertools import combinations, product
from math import comb, factorial

import pytest

from parthom.catalog import build_group, catalog_entries
from parthom.homogeneity import (
    METHOD_CHAIN,
    decide_lambda_homogeneous,
    decide_lambda_transitive,
    decide_t_transitive,
    is_lambda_transitive,
    is_set_transitive,
    is_standard_pair,
    is_t_homogeneous,
)
from parthom.partitions import (
    coarsening_feasible,
    count_ordered,
    count_unordered,
    integer_partitions,
)
from parthom.perm import (
    PermGroup,
    Permutation,
    act_point,
    act_set,
    act_tuple,
    burnside_orbit_count,
    enumerate_elements,
    orbit,
    orbit_count,
    stabilizer_generators,
)
from parthom.snpairs import is_sn_pair, verify_fixtures
from parthom.tsemi import (
    Transformation,
    contains_all_constants,
    generate_arc,
    generate_conjugates,
    green_checks,
    idempotents,
    is_idempotent_generated,
    is_regular,
    local_group_at,
    parse_transformation,
)
from reference import tuple_orbit, walked_standard_pair


def first_of_type(n, shape):
    images = []
    for block, size in enumerate(shape):
        images.extend([block] * size)
    assert len(images) == n
    return Transformation(images)


def singular_types(n):
    return [s for s in integer_partitions(n) if s[0] > 1]


def degree_entries(n):
    return [e for e in catalog_entries(n) if e.degree == n]


# ---------------------------------------------------------------------------
# criterion 1: the bundled reference tables, recomputed exactly


def element_tuples(group):
    """Every group element as an image tuple, closed from the generators.

    A plain walk, kept apart from the chain and orbit code that the
    decisions under test rest on.
    """
    identity = tuple(range(group.degree))
    seen = {identity}
    frontier = [identity]
    gens = group.raw_gens()
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def row_name(spec, shape):
    return "%s lambda=%s" % (spec, ",".join(map(str, shape)))


def certify_rank_type_fails(spec, shape):
    """A rank-r pair needs r-homogeneity; prove it missing, then compare arcs.

    Every rank-r element of <a, G> has image Im(a)g, so the rank-r images
    fill one G-orbit of r-sets.  Returns the pair verdict: whether the
    non-units of <a, G> equal those of <a, S_n>.
    """
    group = build_group(spec)
    n, r = group.degree, len(shape)
    a = first_of_type(n, shape)
    orbit_of_image = {frozenset(g[p] for p in a.image_set)
                      for g in element_tuples(group)}
    assert len(orbit_of_image) < comb(n, r), \
        "certificate: %s: group is %d-homogeneous" % (row_name(spec, shape), r)
    arc = generate_arc(a, group).elements
    assert {frozenset(t.image_set) for t in arc if t.rank == r} \
        <= orbit_of_image, ("certificate: %s: a rank-%d image lies outside "
                            "the orbit of Im(a)" % (row_name(spec, shape), r))
    sym = build_group("s:%d" % n)
    return arc == generate_arc(a, sym).elements


def certify_constant_passes(spec, shape):
    """A constant map passes over a transitive group.

    Over S_n the non-units generated with a constant are exactly the n
    constants (c g is constant, g c = c), so they are built by hand here.
    """
    group = build_group(spec)
    n = group.degree
    assert shape == (n,), \
        "certificate: %s: not the constant type" % row_name(spec, shape)
    assert {g[0] for g in element_tuples(group)} == set(range(n)), \
        "certificate: %s: group is not transitive" % row_name(spec, shape)
    constants = {Transformation.constant(n, v) for v in range(n)}
    return generate_arc(Transformation.constant(n, 0), group).elements \
        == constants


def certify_not_a_kernel_type(spec, shape):
    """Parts that do not sum to the degree name no kernel type: no verdict."""
    degree = build_group(spec).degree
    assert sum(shape) != degree, "certificate: %s: parts sum to %d" \
        % (row_name(spec, shape), degree)
    return None


# (group, lambda as recorded) -> (kind, recorded, recomputed, certificate);
# the certificate returns the verdict it proves and uses no decision code.
ERRATA = {
    ("psl2:5", "4,1,1"): ("verdict-mismatch", True, False,
                          certify_rank_type_fails),
    ("psl2:5", "2,2,2"): ("verdict-mismatch", True, False,
                          certify_rank_type_fails),
    ("psl2:5", "3,2,2"): ("invalid-row", False, None,
                          certify_not_a_kernel_type),
    ("pgl2:8", "9"): ("verdict-mismatch", False, True,
                      certify_constant_passes),
}


def test_criterion_01_reference_tables_reproduced():
    """Every bundled row recomputes to its proven verdict.

    Rows outside ERRATA must recompute to their recorded verdict; the ERRATA
    rows must diverge exactly as pinned, and each pinned verdict is proved
    by its certificate.
    """
    t0 = time.time()
    report = verify_fixtures()
    elapsed = time.time() - t0
    assert elapsed < 10.0, "fixture verification too slow: %.1fs" % elapsed
    found = [((entry["group"], m.get("lambda")),
              (m["kind"], m.get("expected"), m.get("computed")),
              m.get("detail"))
             for entry in report["tables"] for m in entry["mismatches"]]

    unexpected = ["%s lambda=%s %s recorded=%s recomputed=%s%s"
                  % (key + value + (" (%s)" % detail if detail else "",))
                  for key, value, detail in found if key not in ERRATA]
    assert not unexpected, (
        "reproduction: rows outside ERRATA diverge from recomputation:\n  "
        + "\n  ".join(unexpected))

    drift = []
    for key, (kind, recorded, computed, _) in ERRATA.items():
        reported = [value for k, value, _ in found if k == key]
        if reported != [(kind, recorded, computed)]:
            drift.append("%s lambda=%s pinned %s recorded=%s recomputed=%s, "
                         "report has %s" % (key + (kind, recorded, computed,
                                                   reported or "no mismatch")))
    assert not drift, ("errata drift: pinned rows no longer diverge as "
                       "pinned:\n  " + "\n  ".join(drift))

    for (spec, raw), (_, recorded, computed, certify) in ERRATA.items():
        shape = tuple(int(p) for p in raw.split(","))
        proven = certify(spec, shape)
        assert proven == computed and proven != recorded, (
            "certificate: %s lambda=%s proves %s, recorded=%s recomputed=%s"
            % (spec, raw, proven, recorded, computed))


# ---------------------------------------------------------------------------
# criterion 2: pair decision vs literal closure equality


def test_criterion_02_pair_decision_matches_closure_oracle():
    # degree 5, exhaustive: every singular kernel type x every catalog group
    sym5 = build_group("s:5")
    entries5 = degree_entries(5)
    assert {e.spec for e in entries5} == {"c:5", "d:5", "agl1:5", "a:5",
                                          "s:5"}
    sym_arc = {shape: generate_arc(first_of_type(5, shape), sym5).elements
               for shape in singular_types(5)}
    for entry in entries5:
        for shape in singular_types(5):
            a = first_of_type(5, shape)
            equal = generate_arc(a, entry.group).elements == sym_arc[shape]
            assert is_sn_pair(shape, entry.group).verdict == equal, \
                (entry.spec, shape)

    # degree 6, sampled: two kernel types per catalog group
    rng = random.Random(62)
    types6 = singular_types(6)
    sym6 = build_group("s:6")
    sym6_arc = {}
    checked = 0
    for entry in degree_entries(6):
        for shape in rng.sample(types6, 2):
            if shape not in sym6_arc:
                sym6_arc[shape] = generate_arc(first_of_type(6, shape),
                                               sym6).elements
            a = first_of_type(6, shape)
            equal = generate_arc(a, entry.group).elements == sym6_arc[shape]
            assert is_sn_pair(shape, entry.group).verdict == equal, \
                (entry.spec, shape)
            checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# criterion 3: the kernel-coarsening description of closures over S_n


def test_criterion_03_closure_over_symmetric_group_is_coarsening_cone():
    for n in range(2, 6):
        sym = build_group("s:%d" % n)
        singular = [Transformation(t) for t in product(range(n), repeat=n)]
        singular = [t for t in singular if not t.is_permutation()]
        cone = {}
        for shape in singular_types(n):
            cone[shape] = {b for b in singular
                           if coarsening_feasible(shape, b.kernel_type)}
        for a in singular:
            arc = generate_arc(a, sym)
            assert arc.elements == cone[a.kernel_type], (n, a.text())

    arc = generate_arc(parse_transformation("1,1,3,4,5"),
                       build_group("agl1:5"))
    assert len(arc) == 3005
    assert len(arc) == 5 ** 5 - factorial(5)


# ---------------------------------------------------------------------------
# criterion 4: homogeneous-but-not-transitive partition rows


CRITERION4_ROWS = [
    ("psl2:5", (3, 3)),
    ("fix+agl1:5", (3, 3)),
    ("fix+pgammal2:8", (5, 5)),
    ("fix+psl2:8", (5, 5)),
    ("m:11", (2, 2) + (1,) * 7),
    ("m:12", (2, 2) + (1,) * 8),
    ("m:12", (3, 2) + (1,) * 7),
]


def test_criterion_04_partition_homogeneous_only_rows():
    for spec, lam in CRITERION4_ROWS:
        group = build_group(spec)
        hom = decide_lambda_homogeneous(group, lam)
        trans = decide_lambda_transitive(group, lam)
        assert hom.verdict and not trans.verdict, (spec, lam)


def test_criterion_04_slow_largest_mathieu_rows():
    group = build_group("m:24")
    for lam in [(2, 2) + (1,) * 20, (3, 2) + (1,) * 19]:
        hom = decide_lambda_homogeneous(group, lam)
        trans = decide_lambda_transitive(group, lam)
        assert hom.verdict and not trans.verdict, lam
        assert hom.orbit_size == count_unordered(lam)


# ---------------------------------------------------------------------------
# criterion 5: partition-transitivity equals standardness off S_n/A_n


def test_criterion_05_partition_transitivity_is_standardness():
    for entry in catalog_entries(12, include_sym_alt=False):
        group = entry.group
        n = entry.degree
        for lam in integer_partitions(n):
            if lam == (n,) or lam[0] == 1:
                continue
            standard = walked_standard_pair(group, lam)
            assert is_lambda_transitive(group, lam) == standard, \
                (entry.spec, lam)
            assert is_standard_pair(group, lam) == standard, (entry.spec, lam)


# ---------------------------------------------------------------------------
# criterion 6: the four set-transitive groups, and monotonicity


def test_criterion_06_set_transitive_census_and_monotonicity():
    hits = [e.spec for e in catalog_entries(12, include_sym_alt=False)
            if is_set_transitive(e.group)]
    assert sorted(hits) == ["agl1:5", "pgammal2:8", "pgl2:5", "pgl2:8"]

    # Livingstone-Wagner: t-homogeneous forces (t-1)-homogeneous below n/2
    for entry in catalog_entries(12):
        n = entry.degree
        for t in range(2, n // 2 + 1):
            if is_t_homogeneous(entry.group, t):
                assert is_t_homogeneous(entry.group, t - 1), (entry.spec, t)


# ---------------------------------------------------------------------------
# criterion 7: counting formulas vs exhaustive enumeration


def set_partitions(points):
    if not points:
        yield ()
        return
    head, rest = points[0], points[1:]
    for sub in set_partitions(rest):
        yield ((head,),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + (tuple(sorted(block + (head,))),) + sub[i + 1:]


def ordered_partition_count(points, lam):
    """Visit every ordered partition of the type and count the leaves."""
    if not lam:
        return 1
    chosen_total = 0
    for block in combinations(points, lam[0]):
        chosen = set(block)
        chosen_total += ordered_partition_count(
            tuple(p for p in points if p not in chosen), lam[1:])
    return chosen_total


def test_criterion_07_counting_matches_enumeration():
    for n in range(1, 11):
        by_type = {}
        for part in set_partitions(tuple(range(n))):
            shape = tuple(sorted((len(b) for b in part), reverse=True))
            by_type[shape] = by_type.get(shape, 0) + 1
        for lam in integer_partitions(n):
            assert by_type[lam] == count_unordered(lam), lam
            assert (ordered_partition_count(tuple(range(n)), lam)
                    == count_ordered(lam)), lam

    # streamed count for the large degree-24 fixture type (3,2,1,...,1)
    streamed = sum(1 for triple in combinations(range(24), 3)
                   for pair in combinations(
                       [p for p in range(24) if p not in triple], 2))
    assert streamed == count_unordered((3, 2) + (1,) * 19) == 425040


# ---------------------------------------------------------------------------
# criterion 8: structure of every sampled passing pair's semigroup


def passing_pairs_up_to_degree_five():
    out = []
    for n in range(3, 6):
        for entry in degree_entries(n):
            for shape in singular_types(n):
                if is_sn_pair(shape, entry.group).verdict:
                    out.append((entry, shape))
    return out


def sample_element_pairs(elements, rng, count):
    """Random pairs, plus one same-kernel and one same-image pair if any."""
    pool = sorted(elements, key=lambda t: t.images)
    pairs = [tuple(rng.sample(pool, 2)) for _ in range(count)]
    by_kernel = {}
    by_image = {}
    for t in pool:
        by_kernel.setdefault(t.kernel, t)
        by_image.setdefault(t.image_set, t)
    for t in pool:
        k = by_kernel[t.kernel]
        if k is not t:
            pairs.append((k, t))
            break
    for t in pool:
        i = by_image[t.image_set]
        if i is not t:
            pairs.append((i, t))
            break
    return pairs


def test_criterion_08_pair_semigroup_structure():
    rng = random.Random(88)
    pairs = passing_pairs_up_to_degree_five()
    assert len(pairs) >= 20
    structure_done = set()
    for entry, shape in pairs:
        a = first_of_type(entry.degree, shape)
        semigroup = generate_arc(a, entry.group)

        conjugate_closure = generate_conjugates(a, entry.group)
        assert semigroup.elements == conjugate_closure.elements, \
            (entry.spec, shape)
        assert idempotents(semigroup) == idempotents(conjugate_closure)

        key = (entry.degree, shape)
        if key in structure_done:
            continue
        structure_done.add(key)
        assert is_regular(semigroup), key
        assert is_idempotent_generated(semigroup), key
        assert contains_all_constants(semigroup), key
        for x, y in sample_element_pairs(semigroup.elements, rng, 12):
            assert green_checks(semigroup, x, y).all_agree, key
        for e in sorted(idempotents(semigroup), key=lambda t: t.images):
            members, report = local_group_at(semigroup, e)
            assert report.is_group_like, (key, e.text())
            assert len(members) == factorial(e.rank), (key, e.text())


# ---------------------------------------------------------------------------
# criterion 9: orbit counting identities on randomized actions


def random_group(rng):
    degree = rng.randint(4, 9)
    gens = [Permutation(tuple(rng.sample(range(degree), degree)))
            for _ in range(rng.randint(1, 2))]
    return PermGroup(degree, gens, name="random")


def test_criterion_09_burnside_and_stabilizer_orbit_counts():
    rng = random.Random(909)
    cases = 0
    while cases < 20:
        group = random_group(rng)
        n = group.degree
        if group.order() > 5000:
            continue
        if rng.random() < 0.5:
            t = rng.randint(1, 3)
            domain = [tuple(c) for c in combinations(range(n), t)]
            act = act_set
        else:
            t = rng.randint(1, 2)
            domain = [tuple(p) for p in product(range(n), repeat=t)
                      if len(set(p)) == t]
            act = act_tuple
        assert len(domain) <= 500
        assert (burnside_orbit_count(group, domain, act)
                == orbit_count(group, domain, act))

        base = rng.randrange(n)
        transitive_part = sorted(orbit(group, base, act_point))
        pair_domain = [(x, b) for x in transitive_part for b in domain]

        def act_pair(pair, images):
            return (images[pair[0]], act(pair[1], images))

        stab = stabilizer_generators(group, base, act_point)
        assert (orbit_count(group, pair_domain, act_pair)
                == orbit_count(stab, domain, act)), cases
        cases += 1
    assert cases >= 20


# ---------------------------------------------------------------------------
# criterion 10: catalog orders and the two Mathieu transitivity degrees


def test_criterion_10_catalog_orders_and_mathieu_transitivity():
    for entry in catalog_entries(12):
        order = entry.group.order()
        if order <= 10 ** 5:
            words = enumerate_elements(entry.group, cap=2 * 10 ** 5)
            assert len(words) == order, entry.spec

    # the tuple orbits walked here are the evidence; the decision reads the
    # same numbers off the stabilizer chain
    for spec, t, size in (("m:11", 4, 7920), ("m:12", 5, 95040)):
        group = build_group(spec)
        assert len(tuple_orbit(group, t)) == size, spec

        decided = decide_t_transitive(group, t)
        assert decided.verdict and decided.method == METHOD_CHAIN, spec
        assert decided.orbit_size == size, spec
