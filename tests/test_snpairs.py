"""Pair-decision tests.

The two-orbit decision procedure is grounded against literal semigroup
closures at degree 4, then the symbolic clause dispatch is swept against it
across the whole catalog (degree <= 9 here, the rest behind the slow
marker).  Fixture verification pins the known divergences of the bundled
reference tables instead of hiding them.
"""

import json
from collections import Counter

import pytest

from parthom import homogeneity
from parthom.catalog import build_group, catalog_entries
from parthom.partitions import integer_partitions
from parthom.snpairs import (
    EXCLUDED_DEGREE9_ORDER1512,
    INCLUDED_DEGREE9_ORDER504,
    WITNESS_PARTITION,
    WITNESS_RANK,
    PairVerdict,
    classify_all,
    independent_set_pair_theorem_check,
    is_independent,
    is_sn_pair,
    load_fixture_tables,
    parse_fixture_text,
    symbolic_clause,
    symbolic_facts,
    verify_fixtures,
)
from parthom.tsemi import Transformation, generate_arc, parse_transformation


def first_of_type(n, shape):
    """A concrete map whose kernel type is the given shape."""
    images = []
    for block, size in enumerate(shape):
        images.extend([block] * size)
    assert len(images) == n
    return Transformation(images)


# ---------------------------------------------------------------------------
# is_sn_pair basics


def test_constant_type_over_transitive_group():
    v = is_sn_pair((5,), build_group("c:5"))
    assert v.verdict and v.witness is None
    assert v.rank == 1


def test_constant_type_over_intransitive_group():
    v = is_sn_pair((6,), build_group("fix+c:5"))
    assert not v.verdict
    assert v.witness == WITNESS_RANK
    assert v.lambda_query is None


def test_affine_group_fails_only_the_two_two_one_type():
    g = build_group("agl1:5")
    v = is_sn_pair((2, 2, 1), g)
    assert not v.verdict
    assert v.witness == WITNESS_PARTITION
    assert v.rank_query.verdict
    assert v.lambda_query.expected == 15
    # settled by the divisibility shortcut, no orbit run
    assert v.lambda_query.orbit_size is None


def test_rank_witness_short_circuits_the_partition_query():
    v = is_sn_pair((3, 1, 1), build_group("c:5"))
    assert not v.verdict
    assert v.witness == WITNESS_RANK
    assert v.lambda_query is None


def test_degree_nine_example_passes():
    assert is_sn_pair((5, 4), build_group("pgl2:8")).verdict


def test_shape_is_sorted_and_validated():
    g = build_group("agl1:5")
    assert is_sn_pair((1, 2, 1, 1), g).shape == (2, 1, 1, 1)
    with pytest.raises(ValueError):
        is_sn_pair((1, 1, 1, 1, 1), g)   # bijective kernel type
    with pytest.raises(ValueError):
        is_sn_pair((3, 3), g)            # wrong sum
    with pytest.raises(ValueError):
        is_sn_pair((), g)
    with pytest.raises(ValueError):
        is_sn_pair((6, 0, -1), g)


def test_transformation_input_uses_its_kernel_type():
    g = build_group("agl1:5")
    a = parse_transformation("1,1,3,4,5")
    assert is_sn_pair(a, g).verdict == is_sn_pair((2, 1, 1, 1), g).verdict
    b = parse_transformation("1,1,3,3,5")
    v = is_sn_pair(b, g)
    assert v.shape == (2, 2, 1) and not v.verdict
    with pytest.raises(ValueError):
        is_sn_pair(parse_transformation("2,3,4,5,1"), g)
    with pytest.raises(ValueError):
        is_sn_pair(parse_transformation("1,1,3"), g)


def test_verdict_dict_shape():
    v = is_sn_pair((4, 1), build_group("agl1:5"))
    d = v.as_dict()
    assert d["lambda"] == "4,1"
    assert d["verdict"] is True and d["witness"] is None
    assert d["rank_query"]["expected"] == 10   # 2-subsets of 5 points
    assert "clause" not in d
    v.clause = "3"
    assert v.as_dict()["clause"] == "3"


# ---------------------------------------------------------------------------
# grounding: the two-orbit test against literal closures, degree 4


def test_pair_verdict_matches_arc_equality_degree_four():
    sym = build_group("s:4")
    types = [s for s in integer_partitions(4) if s[0] > 1]
    for spec in ("c:4", "d:4", "a:4", "s:4"):
        g = build_group(spec)
        for shape in types:
            a = first_of_type(4, shape)
            equal = generate_arc(a, g).elements == generate_arc(a, sym).elements
            assert is_sn_pair(shape, g).verdict == equal, (spec, shape)


# ---------------------------------------------------------------------------
# classify_all


def test_classify_symmetric_group_all_pass():
    out = classify_all(build_group("s:9"))
    assert len(out) == 29
    assert all(v.verdict for v in out)
    assert {v.clause for v in out} == {"1"}
    assert [v.shape for v in out] == [s for s in integer_partitions(9)
                                      if s[0] > 1]


def test_classify_alternating_group_all_pass():
    out = classify_all(build_group("a:8"), with_clauses=False)
    assert all(v.verdict for v in out)
    assert all(v.clause is None for v in out)


def test_every_type_passes_over_symmetric_and_alternating():
    for spec in ("s:4", "a:4", "s:5", "a:5", "s:6", "a:6", "s:7", "a:7"):
        out = classify_all(build_group(spec), with_clauses=False)
        assert all(v.verdict for v in out), spec


def test_classify_affine_degree_five():
    out = classify_all(build_group("agl1:5"))
    passing = {v.shape for v in out if v.verdict}
    assert passing == {(5,), (4, 1), (3, 2), (3, 1, 1), (2, 1, 1, 1)}
    by_shape = {v.shape: v.clause for v in out}
    assert by_shape[(2, 2, 1)] == "none"
    assert by_shape[(5,)] == "2"
    assert by_shape[(2, 1, 1, 1)] == "3"


def test_classify_degree_six_order_sixty():
    out = classify_all(build_group("psl2:5"))
    passing = {v.shape for v in out if v.verdict}
    assert passing == {(6,), (5, 1), (4, 2), (3, 3), (2, 1, 1, 1, 1)}
    by_shape = {v.shape: v.clause for v in out}
    assert by_shape[(3, 3)] == "7ii"
    assert by_shape[(4, 2)] == "6"


def test_classify_degree_nine_groups():
    out = classify_all(build_group("pgammal2:8"))
    passing = {v.shape for v in out if v.verdict}
    every = {s for s in integer_partitions(9) if s[0] > 1}
    assert passing == every - EXCLUDED_DEGREE9_ORDER1512
    assert len(passing) == 16

    out = classify_all(build_group("pgl2:8"))
    passing = {v.shape for v in out if v.verdict}
    # the constant type passes over any transitive group, so the recorded
    # twelve-row list undercounts by one (see README)
    assert passing == INCLUDED_DEGREE9_ORDER504 | {(9,)}
    assert len(passing) == 13


# ---------------------------------------------------------------------------
# symbolic clause dispatch


def test_clause_examples():
    m12 = build_group("m:12")
    facts = symbolic_facts(m12)
    assert symbolic_clause((2, 2) + (1,) * 8, m12, facts) == "4"
    assert symbolic_clause((3, 2) + (1,) * 7, m12, facts) == "5"

    pgl8 = build_group("pgl2:8")
    f8 = symbolic_facts(pgl8)
    assert symbolic_clause((9,), pgl8, f8) == "2"
    assert symbolic_clause((2,) + (1,) * 7, pgl8, f8) == "3"
    # the first matching clause wins: (7,1,1) and (5,4) sit in the recorded
    # degree-9 inclusion list too, but the standard-pair clause fires earlier
    assert symbolic_clause((7, 1, 1), pgl8, f8) == "6"
    assert symbolic_clause((5, 4), pgl8, f8) == "6"

    assert symbolic_clause((3, 3), build_group("psl2:5")) == "7ii"
    assert symbolic_clause((3, 3), build_group("pgl2:5")) == "7iii"
    assert symbolic_clause((2, 2, 2), build_group("pgl2:5")) == "none"
    assert symbolic_clause((2, 2, 1), build_group("agl1:5")) == "none"


def test_clause_one_trumps_everything():
    s6 = build_group("s:6")
    facts = symbolic_facts(s6)
    for shape in integer_partitions(6):
        if shape[0] > 1:
            assert symbolic_clause(shape, s6, facts) == "1"
    assert symbolic_facts(build_group("a:7"))["symmetric_or_alternating"]


def test_clause_none_for_intransitive_group():
    g = build_group("fix+agl1:5")
    facts = symbolic_facts(g)
    assert not facts["homogeneous"][1]
    assert symbolic_clause((6,), g, facts) == "none"
    assert symbolic_clause((2, 2, 1, 1), g, facts) == "none"


def test_facts_computed_on_demand():
    assert symbolic_clause((5,), build_group("c:5")) == "2"


def catalog_clause_agreement(entries):
    for entry in entries:
        g = entry.group
        facts = symbolic_facts(g)
        for shape in integer_partitions(g.degree):
            if shape[0] == 1:
                continue
            v = is_sn_pair(shape, g)
            clause = symbolic_clause(shape, g, facts)
            assert v.verdict == (clause != "none"), (entry.spec, shape, clause)
            # internal consistency of the verdict record
            assert v.rank == len(shape)
            if v.verdict:
                assert v.witness is None
                assert v.rank_query.verdict and v.lambda_query.verdict
            elif v.witness == WITNESS_RANK:
                assert not v.rank_query.verdict and v.lambda_query is None
            else:
                assert v.witness == WITNESS_PARTITION
                assert v.rank_query.verdict and not v.lambda_query.verdict


def test_clause_dispatch_matches_computation_catalog_to_degree_nine():
    catalog_clause_agreement(catalog_entries(max_degree=9))


def test_clause_dispatch_matches_computation_catalog_to_degree_twelve():
    entries = [e for e in catalog_entries(max_degree=12) if e.degree > 9]
    catalog_clause_agreement(entries)


def test_no_decision_walks(monkeypatch):
    # every QueryResult built while classifying the catalog to degree 12,
    # clauses and standard pairs included, and while verifying the
    # fixtures: each orbit size is read off a chain or not needed at all,
    # and a chain result is true exactly when its orbit is full
    methods = Counter()
    unbacked = []

    class Recorded(homogeneity.QueryResult):
        def __init__(self, *args):
            super().__init__(*args)
            methods[self.method] += 1
            if self.method == homogeneity.METHOD_CHAIN and \
                    self.verdict != (self.orbit_size == self.expected):
                unbacked.append(self)

    monkeypatch.setattr(homogeneity, "QueryResult", Recorded)
    for entry in catalog_entries(max_degree=12):
        classify_all(entry.group)
    verify_fixtures()
    assert set(methods) == {homogeneity.METHOD_SHORTCUT,
                            homogeneity.METHOD_CHAIN}, methods
    assert unbacked == []


# ---------------------------------------------------------------------------
# fixture tables


def test_bundled_fixture_inventory():
    tables = load_fixture_tables()
    assert [(t.group_spec, t.degree, len(t.rows)) for t in tables] == [
        ("agl1:5", 5, 6),
        ("psl2:5", 6, 11),
        ("pgl2:5", 6, 10),
        ("pgammal2:8", 9, 29),
        ("pgl2:8", 9, 29),
    ]


def test_parse_fixture_text():
    tables = parse_fixture_text(
        "# comment\n"
        "[group agl1:5 degree 5]\n"
        "lambda=4,1 expect=true\n"
        "\n"
        "lambda=2,2,1 expect=false  # trailing note\n")
    assert len(tables) == 1
    assert tables[0].group_spec == "agl1:5" and tables[0].degree == 5
    assert tables[0].rows == [((4, 1), True, "4,1"),
                              ((2, 2, 1), False, "2,2,1")]


@pytest.mark.parametrize("text", [
    "[group agl1:5 degree 5",
    "[agl1:5 degree 5]",
    "[group agl1:5 deg 5]",
    "lambda=4,1 expect=true",
    "[group agl1:5 degree 5]\nlambda=4,1 expect=yes",
    "[group agl1:5 degree 5]\nlambda=4,1",
    "[group agl1:5 degree 5]\nlambda=4,1 expect=true rank=2",
])
def test_parse_fixture_rejects(text):
    with pytest.raises(ValueError):
        parse_fixture_text(text)


def test_parse_error_reports_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_fixture_text("# ok\n[group c:4 degree 4]\nlambda=4\n")


def by_group(report):
    return {t["group"]: t for t in report["tables"]}


def test_verify_fixtures_pins_the_known_divergences():
    report = verify_fixtures()
    assert not report["ok"]
    tables = by_group(report)
    assert set(tables) == {"agl1:5", "psl2:5", "pgl2:5", "pgammal2:8",
                           "pgl2:8"}

    assert tables["agl1:5"]["mismatches"] == []
    assert tables["pgl2:5"]["mismatches"] == []
    assert tables["pgammal2:8"]["mismatches"] == []

    # degree-6 order-60 block: two rows the group cannot realize (it is not
    # even 3-homogeneous) and one row whose parts sum to 7
    got = {(m["kind"], m["lambda"]) for m in tables["psl2:5"]["mismatches"]}
    assert got == {("verdict-mismatch", "4,1,1"),
                   ("verdict-mismatch", "2,2,2"),
                   ("invalid-row", "3,2,2")}
    for m in tables["psl2:5"]["mismatches"]:
        if m["kind"] == "verdict-mismatch":
            assert m["expected"] is True and m["computed"] is False
            assert (m["rank_orbit"], m["rank_expected"]) == (10, 20)
        else:
            assert "sum" in m["detail"]

    # degree-9 order-504 block: the constant type is missing from the
    # recorded inclusion list but passes over any transitive group
    got = tables["pgl2:8"]["mismatches"]
    assert len(got) == 1 and got[0]["kind"] == "verdict-mismatch"
    assert got[0]["lambda"] == "9"
    assert got[0]["expected"] is False and got[0]["computed"] is True


def test_verify_fixtures_flags_coverage_gaps():
    tables = parse_fixture_text(
        "[group agl1:5 degree 5]\nlambda=5 expect=true\n")
    report = verify_fixtures(tables)
    assert not report["ok"]
    kinds = [m["kind"] for m in report["tables"][0]["mismatches"]]
    assert kinds == ["coverage-gap"] * 5


def test_verify_fixtures_flags_degree_mismatch():
    tables = parse_fixture_text(
        "[group agl1:5 degree 6]\nlambda=5,1 expect=true\n")
    report = verify_fixtures(tables)
    assert report["tables"][0]["mismatches"][0]["kind"] == "degree-mismatch"


def test_verify_fixtures_flags_invalid_rows():
    tables = parse_fixture_text(
        "[group c:4 degree 4]\n"
        "lambda=4 expect=true\nlambda=3,1 expect=false\n"
        "lambda=2,2 expect=false\nlambda=2,1,1 expect=false\n"
        "lambda=1,1,1,1 expect=false\n")
    report = verify_fixtures(tables)
    bad = [m for m in report["tables"][0]["mismatches"]
           if m["kind"] == "invalid-row"]
    assert len(bad) == 1 and bad[0]["lambda"] == "1,1,1,1"


def test_fixture_report_round_trips_as_json():
    report = verify_fixtures(parse_fixture_text(
        "[group c:4 degree 4]\n"
        "lambda=4 expect=true\nlambda=3,1 expect=false\n"
        "lambda=2,2 expect=false\nlambda=2,1,1 expect=false\n"))
    assert json.loads(json.dumps(report, indent=2, sort_keys=True)) == report


# ---------------------------------------------------------------------------
# independent sets


def test_singleton_and_empty_sets_are_independent():
    assert is_independent([])
    assert is_independent([parse_transformation("1,1,3,4,5")])


def test_comparable_kernel_types_are_dependent():
    a = parse_transformation("1,1,3,4,5")   # (2,1,1,1)
    b = parse_transformation("1,1,3,3,5")   # (2,2,1)
    assert not is_independent([a, b])
    assert not is_independent([b, a])


def test_incomparable_kernel_types_are_independent():
    a = first_of_type(5, (3, 1, 1))
    b = first_of_type(5, (2, 2, 1))
    assert is_independent([a, b])


def test_is_independent_rejects():
    with pytest.raises(ValueError):
        is_independent([parse_transformation("2,1,3,4,5")])
    with pytest.raises(ValueError):
        is_independent([first_of_type(5, (3, 1, 1)),
                        first_of_type(4, (2, 1, 1))])


def test_theorem_check_positive_singleton():
    out = independent_set_pair_theorem_check(
        [parse_transformation("1,1,3,4,5")], build_group("agl1:5"))
    assert out == {"semigroups_equal": True, "members_all_pairs": True,
                   "theorem_holds": True}


def test_theorem_check_negative_singleton():
    out = independent_set_pair_theorem_check(
        [parse_transformation("1,1,3,3,5")], build_group("agl1:5"))
    assert out == {"semigroups_equal": False, "members_all_pairs": False,
                   "theorem_holds": True}


def test_theorem_check_mixed_independent_pair():
    # one member passes with the affine group, the other does not, and the
    # generated semigroup falls short exactly as the equivalence predicts
    maps = [first_of_type(5, (3, 1, 1)), first_of_type(5, (2, 2, 1))]
    out = independent_set_pair_theorem_check(maps, build_group("agl1:5"))
    assert out == {"semigroups_equal": False, "members_all_pairs": False,
                   "theorem_holds": True}


def test_theorem_check_both_members_pass():
    maps = [first_of_type(5, (3, 1, 1)), first_of_type(5, (2, 2, 1))]
    out = independent_set_pair_theorem_check(maps, build_group("a:5"))
    assert out == {"semigroups_equal": True, "members_all_pairs": True,
                   "theorem_holds": True}


def test_theorem_check_rejects_dependent_sets():
    with pytest.raises(ValueError):
        independent_set_pair_theorem_check(
            [parse_transformation("1,1,3,4,5"),
             parse_transformation("1,1,3,3,5")],
            build_group("agl1:5"))
