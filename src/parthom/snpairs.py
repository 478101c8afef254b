"""Deciding when a group reproduces the full symmetric group's singular part.

A pair (a, G) passes when the non-bijective elements of <a, G> are exactly
those of <a, S_n>. The decision needs only the kernel type of a: the group
must act transitively on image-sized subsets and on kernel-typed partitions.
A symbolic case analysis runs alongside the computational test and is kept
in agreement with it; the bundled fixture tables record the reference row
data verbatim, and verification reports any divergence instead of hiding
it.
"""

from __future__ import annotations

from .catalog import BUNDLED_DATA, build_group, read_data
from .homogeneity import (
    decide_lambda_homogeneous,
    decide_t_homogeneous,
    is_standard_pair,
    is_t_homogeneous,
    is_t_transitive,
)
from .partitions import (
    check_shape,
    coarsening_feasible,
    format_int_partition,
    integer_partitions,
    parse_number,
)
from .tsemi import Transformation

WITNESS_RANK = "rank-homogeneity"
WITNESS_PARTITION = "partition-homogeneity"


class PairVerdict:
    def __init__(self, shape, rank, verdict, witness, rank_query,
                 lambda_query, clause=None):
        self.shape = shape
        self.rank = rank
        self.verdict = verdict
        self.witness = witness
        self.rank_query = rank_query
        self.lambda_query = lambda_query
        self.clause = clause

    def as_dict(self):
        out = {
            "lambda": format_int_partition(self.shape),
            "rank": self.rank,
            "verdict": self.verdict,
            "witness": self.witness,
            "rank_query": self.rank_query.as_dict(),
            "lambda_query": (self.lambda_query.as_dict()
                             if self.lambda_query is not None else None),
        }
        if self.clause is not None:
            out["clause"] = self.clause
        return out


def _shape_from(lam, degree):
    if isinstance(lam, Transformation):
        if lam.degree != degree:
            raise ValueError("map degree %d does not match group degree %d"
                             % (lam.degree, degree))
        shape = lam.kernel_type
    else:
        shape = check_shape(lam, degree)
    if shape[0] == 1:
        raise ValueError("not a singular kernel type")
    return shape


def is_sn_pair(lam, group):
    """The two-orbit test: rank-homogeneous and kernel-type-homogeneous."""
    shape = _shape_from(lam, group.degree)
    r = len(shape)
    rank_q = decide_t_homogeneous(group, r)
    if not rank_q.verdict:
        return PairVerdict(shape, r, False, WITNESS_RANK, rank_q, None)
    lam_q = decide_lambda_homogeneous(group, shape)
    witness = None if lam_q.verdict else WITNESS_PARTITION
    return PairVerdict(shape, r, lam_q.verdict, witness, rank_q, lam_q)


def classify_all(group, with_clauses=True):
    """One verdict per kernel type of the degree, in fixed enumeration order."""
    facts = symbolic_facts(group) if with_clauses else None
    out = []
    for shape in integer_partitions(group.degree):
        if shape[0] == 1:
            continue
        v = is_sn_pair(shape, group)
        if facts is not None:
            v.clause = symbolic_clause(shape, group, facts)
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# symbolic classifier


def symbolic_facts(group):
    """Everything the clause dispatch needs, computed once per group."""
    n = group.degree
    return {
        "degree": n,
        "order": group.order(),
        "symmetric_or_alternating": group.is_symmetric_or_alternating(),
        "homogeneous": {t: is_t_homogeneous(group, t)
                        for t in range(1, n)},
        "transitive": {t: is_t_transitive(group, t)
                       for t in range(1, min(n, 6))},
    }


# exceptional blocks, keyed by (degree, order, sharpest transitivity seen);
# the two degree-9 row lists are repeated in the bundled fixture file on
# purpose, so classifier and data can be cross-checked against each other
EXCLUDED_DEGREE5_ORDER20 = {(2, 2, 1)}
# the recorded degree-6 order-60 exclusion list is defective (see README);
# these five types are what the two-orbit test actually rejects
EXCLUDED_DEGREE6_ORDER60 = {(4, 1, 1), (3, 2, 1), (3, 1, 1, 1),
                            (2, 2, 2), (2, 2, 1, 1)}
EXCLUDED_DEGREE6_ORDER120 = {(2, 2, 1, 1), (2, 2, 2)}
EXCLUDED_DEGREE9_ORDER1512 = {
    (2, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1), (3, 2, 1, 1, 1, 1),
    (3, 2, 2, 1, 1), (3, 2, 2, 2), (3, 3, 1, 1, 1), (3, 3, 2, 1),
    (3, 3, 3), (4, 2, 1, 1, 1), (4, 2, 2, 1), (4, 3, 1, 1),
    (4, 3, 2), (4, 4, 1),
}
INCLUDED_DEGREE9_ORDER504 = {
    (2, 1, 1, 1, 1, 1, 1, 1), (3, 1, 1, 1, 1, 1, 1), (4, 1, 1, 1, 1, 1),
    (5, 1, 1, 1, 1), (5, 3, 1), (5, 4), (6, 1, 1, 1), (6, 2, 1),
    (6, 3), (7, 1, 1), (7, 2), (8, 1),
}


def symbolic_clause(lam, group, facts=None):
    """First matching clause id of the case analysis, or "none".

    The clause list is a disjunction, not a partition, so overlaps are fine;
    a non-"none" return is the symbolic claim that the pair passes.
    """
    shape = _shape_from(lam, group.degree)
    if facts is None:
        facts = symbolic_facts(group)
    n = facts["degree"]
    r = len(shape)
    hom = facts["homogeneous"]
    trans = facts["transitive"]

    if facts["symmetric_or_alternating"]:
        return "1"
    if r == 1:
        return "2" if hom[1] else "none"
    if (2 * r > n and shape == (n - r + 1,) + (1,) * (r - 1)
            and hom[n - r] and hom[r - 1]):
        # the bare recorded clause omits the (r-1)-homogeneity half; without
        # it the clause over-fires (see README)
        return "3"
    if r == n - 2 and shape == (2, 2) + (1,) * (n - 4) and trans.get(4):
        return "4"
    if r == n - 3 and shape == (3, 2) + (1,) * (n - 5) and trans.get(5):
        return "5"
    t = n - shape[0]
    if (2 * t < n and hom[t] and hom[r]
            and is_standard_pair(group, shape)):
        # r-homogeneity likewise restored here
        return "6"
    order = facts["order"]
    if n == 5 and order == 20 and trans.get(2):
        return "7i" if shape not in EXCLUDED_DEGREE5_ORDER20 else "none"
    if n == 6 and order == 60 and trans.get(2):
        return "7ii" if shape not in EXCLUDED_DEGREE6_ORDER60 else "none"
    if n == 6 and order == 120 and trans.get(3):
        return "7iii" if shape not in EXCLUDED_DEGREE6_ORDER120 else "none"
    if n == 9 and order == 1512 and trans.get(3):
        return "7iv" if shape not in EXCLUDED_DEGREE9_ORDER1512 else "none"
    if n == 9 and order == 504 and trans.get(3):
        return "7v" if shape in INCLUDED_DEGREE9_ORDER504 else "none"
    return "none"


# ---------------------------------------------------------------------------
# fixture tables


class FixtureTable:
    def __init__(self, group_spec, degree):
        self.group_spec = group_spec
        self.degree = degree
        self.rows = []   # (shape, expected, raw text)


def parse_fixture_text(text):
    """Tables of `[group SPEC degree N]` headers and `lambda=SHAPE
    expect=true|false` rows; a malformed line is a ValueError naming it."""
    tables = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("["):
                fields = line[1:-1].split() if line.endswith("]") else ()
                if len(fields) != 4 or fields[::2] != ["group", "degree"]:
                    raise ValueError("bad table header")
                tables.append(FixtureTable(fields[1], parse_number(fields[3])))
                continue
            if not tables:
                raise ValueError("row before any table header")
            parts = dict(tok.split("=", 1) for tok in line.split())
            if set(parts) != {"lambda", "expect"}:
                raise ValueError("expected lambda=... expect=...")
            if parts["expect"] not in ("true", "false"):
                raise ValueError("expect must be true or false")
            shape = tuple(map(parse_number, parts["lambda"].split(",")))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from None
        tables[-1].rows.append(
            (shape, parts["expect"] == "true", parts["lambda"]))
    return tables


def load_fixture_tables():
    return parse_fixture_text(
        read_data(BUNDLED_DATA / "classification_fixtures.txt"))


def verify_fixtures(tables=None):
    """Recompute every fixture row; report mismatches rather than raising."""
    if tables is None:
        tables = load_fixture_tables()
    report = {"tables": [], "ok": True}
    for table in tables:
        group = build_group(table.group_spec)
        entry = {"group": table.group_spec, "degree": table.degree,
                 "rows": len(table.rows), "mismatches": []}
        if group.degree != table.degree:
            entry["mismatches"].append({
                "kind": "degree-mismatch",
                "detail": "group has degree %d" % group.degree})
            report["tables"].append(entry)
            report["ok"] = False
            continue
        covered = set()
        for shape, expected, raw in table.rows:
            try:
                v = is_sn_pair(shape, group)
            except ValueError as err:
                entry["mismatches"].append({
                    "kind": "invalid-row", "lambda": raw,
                    "expected": expected, "computed": None,
                    "detail": str(err)})
                continue
            covered.add(v.shape)
            if v.verdict != expected:
                entry["mismatches"].append({
                    "kind": "verdict-mismatch", "lambda": raw,
                    "expected": expected, "computed": v.verdict,
                    "rank_orbit": v.rank_query.orbit_size,
                    "rank_expected": v.rank_query.expected,
                    "lambda_orbit": (v.lambda_query.orbit_size
                                     if v.lambda_query else None),
                    "lambda_expected": (v.lambda_query.expected
                                        if v.lambda_query else None)})
        for shape in integer_partitions(table.degree):
            if shape[0] == 1 or shape in covered:
                continue
            entry["mismatches"].append({
                "kind": "coverage-gap",
                "lambda": format_int_partition(shape),
                "detail": "kernel type has no fixture row"})
        if entry["mismatches"]:
            report["ok"] = False
        report["tables"].append(entry)
    return report


# ---------------------------------------------------------------------------
# independent sets


def is_independent(maps):
    """No member's kernel type feasibly coarsens into another's."""
    maps = list(maps)
    if any(m.is_permutation() for m in maps):
        raise ValueError("independent sets contain non-bijective maps only")
    degrees = {m.degree for m in maps}
    if len(degrees) > 1:
        raise ValueError("degree mismatch")
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            if i != j and coarsening_feasible(a.kernel_type, b.kernel_type):
                return False
    return True


def independent_set_pair_theorem_check(maps, group, cap=10**6):
    """Both sides of the independent-set equivalence, computed outright.

    Left: the non-units generated together with the group equal those
    generated with the full symmetric group (closure both times).  Right:
    every member forms a passing pair with the group.  Returns the two
    booleans and whether they agree.
    """
    from .catalog import build_group
    from .tsemi import generate_arc_set

    maps = list(maps)
    if not is_independent(maps):
        raise ValueError("the given set is not independent")
    sym = build_group("s:%d" % group.degree)
    left = generate_arc_set(maps, group, cap=cap).rows \
        == generate_arc_set(maps, sym, cap=cap).rows
    right = all(is_sn_pair(m, group).verdict for m in maps)
    return {"semigroups_equal": left, "members_all_pairs": right,
            "theorem_holds": left == right}
