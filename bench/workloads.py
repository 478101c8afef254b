"""Seeded request lists for the benchmark workloads.

A request is a JSON-ready dict.  CLI requests carry the argv that goes to
`parthom.cli.run` plus the facts its output must match; oracle requests carry
a group spec and a map row for the semigroup oracle.  The program under test
only ever sees the argv, spec, shape and map strings: every expected value
here comes from textbook facts or from this module's own arithmetic.

Requests come in passes.  Every pass of a workload holds the same mix of
request kinds, so each pass costs about the same and a run can stop at a
pass boundary without changing the mix it measured.  Pass `i` of seed `s`
depends on nothing but `(workload, s, i)`.
"""

import math
import random

WORKLOADS = ("catalog-classify", "mathieu-deep", "semigroup-oracle")

# The specs `parthom.catalog.catalog_entries(10)` lists; the benchmark's own
# tests pin the two together.
CATALOG_SPECS = (
    "s:2", "a:3", "s:3", "a:4", "c:4", "d:4", "s:4", "a:5", "agl1:5", "c:5",
    "d:5", "s:5", "a:6", "c:6", "d:6", "pgl2:5", "psl2:5", "s:6", "a:7",
    "agl1:7", "c:7", "d:7", "s:7", "a:8", "agammal1:8", "agl1:8", "c:8",
    "d:8", "pgl2:7", "psl2:7", "s:8", "a:9", "agammal1:9", "agl1:9", "c:9",
    "d:9", "pgammal2:8", "pgl2:8", "s:9", "a:10", "c:10", "d:10",
    "pgammal2:9", "pgl2:9", "psl2:9", "s:10",
)

# The four bundled reference-table rows that recomputation contradicts (see
# the README), as (group, lambda, kind).
STANDING_MISMATCHES = (
    ("pgl2:8", "9", "verdict-mismatch"),
    ("psl2:5", "2,2,2", "verdict-mismatch"),
    ("psl2:5", "3,2,2", "invalid-row"),
    ("psl2:5", "4,1,1", "verdict-mismatch"),
)

# Textbook orders of the large groups.
ORDERS = {
    "m:11": 7920,
    "m:12": 95040,
    "m:23": 10200960,
    "m:24": 244823040,
    "pgammal2:32": 163680,
}

# Groups of degree 5 and 6 that the oracle workload draws maps over
# (catalog_entries lists psl2:4 = pgl2:4 under a:5, so it is absent).
ORACLE_GROUPS = ("a:5", "agl1:5", "c:5", "d:5", "s:5",
                 "a:6", "c:6", "d:6", "pgl2:5", "psl2:5", "s:6")

# Shortcut-settled pair queries per large group and pass.  They are the
# short requests the median sees (chain build plus CLI), and they bring a
# pass to 66 requests: the two passes of a run then put 13 samples beyond
# the 90th percentile, and it falls in the middle of the four fixed queries
# of like cost that follow the four dearest, not at the edge of that group.
SHORT_PAIRS_PER_GROUP = 10


def spec_degree(spec):
    family, _, param = spec.partition(":")
    q = int(param)
    return q + 1 if family in ("pgl2", "psl2", "pgammal2") else q


def partitions(n, largest=None):
    """Integer partitions of n as non-increasing tuples, largest part first."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    out = []
    for k in range(min(n, largest), 0, -1):
        out.extend((k,) + rest for rest in partitions(n - k, k))
    return out


def singular_shapes(n):
    """Kernel types of the non-bijective maps on n points."""
    return [shape for shape in partitions(n) if shape[0] > 1]


def fmt(shape):
    return ",".join(str(k) for k in shape)


def cli_request(argv, check, **expect):
    return {"call": "cli", "argv": list(argv) + ["--json"], "check": check,
            "expect": expect}


def _classify_pass(rng):
    specs = list(CATALOG_SPECS)
    rng.shuffle(specs)
    reqs = [cli_request(["classify", "--group", s], "classify",
                        degree=spec_degree(s)) for s in specs]
    fixtures = cli_request(["verify-fixtures"], "fixtures",
                           mismatches=[list(m) for m in STANDING_MISMATCHES])
    reqs.insert(rng.randrange(len(reqs) + 1), fixtures)
    return reqs


def _ones(head, n):
    return ",".join([head] + ["1"] * n)


# Large-degree queries whose verdicts are known facts.
MATHIEU_FIXED = (
    (["group-order", "--group", "m:11"], "order", {"order": 7920}),
    (["group-order", "--group", "m:12"], "order", {"order": 95040}),
    (["group-order", "--group", "m:23"], "order", {"order": 10200960}),
    (["group-order", "--group", "m:24"], "order", {"order": 244823040}),
    (["group-order", "--group", "pgammal2:32"], "order", {"order": 163680}),
    # M24 and M23 are 4-transitive; PGammaL(2,32) is 4-homogeneous only
    (["check-homog", "--group", "m:24", "--t", "4"], "query",
     {"homogeneous": True, "transitive": True}),
    (["check-homog", "--group", "m:23", "--t", "4"], "query",
     {"homogeneous": True, "transitive": True}),
    (["check-homog", "--group", "pgammal2:32", "--t", "4"], "query",
     {"homogeneous": True, "transitive": False}),
    # rank 5 asks for 5-homogeneity of M24; the 5-transitivity walk that
    # `check-homog --t 5` adds (5.1M tuples) stays in `pytest -m slow`
    (["check-pair", "--group", "m:24", "--lambda", "20,1,1,1,1"], "pair",
     {"verdict": True, "rank_verdict": True}),
    (["check-lambda", "--group", "m:24", "--lambda", _ones("2,2", 20)],
     "query", {"homogeneous": True, "transitive": False}),
    (["check-lambda", "--group", "m:24", "--lambda", _ones("4", 20)],
     "query", {"homogeneous": True, "transitive": False}),
    # neither count divides |M24|
    (["check-lambda", "--group", "m:24", "--lambda", "12,12"], "query",
     {"homogeneous": False, "transitive": False}),
    # M23 is 4-transitive, so the stabilizer of a 4-set acts as S_4 on it:
    # a standard pair, the case-analysis clause 6
    (["check-pair", "--group", "m:23", "--lambda", "19,2,2", "--clause"],
     "pair", {"verdict": True, "clause": "6"}),
    (["classify", "--group", "m:11"], "classify", {"degree": 11}),
    (["classify", "--group", "m:12"], "classify", {"degree": 12}),
    (["validate-catalog", "--quiet"], "validate", {}),
)


def _rank_refuted(n, order, rank):
    """True when no group of this order can be rank-homogeneous on n points:
    an orbit on rank-sets has C(n, rank) elements only if that divides the
    order."""
    count = math.comb(n, min(rank, n - rank))
    return count > order or order % count != 0


def random_shape(rng, n, rank):
    """A kernel type of the given rank: cut 1..n at rank-1 random places."""
    cuts = [0] + sorted(rng.sample(range(1, n), rank - 1)) + [n]
    return tuple(sorted((b - a for a, b in zip(cuts, cuts[1:])), reverse=True))


def _mathieu_pass(rng):
    """The fixed queries in fixed order, so that the walks, which set the
    peak memory, always follow one another the same way; the seeded short
    queries go in between at seeded places."""
    reqs = [cli_request(argv, check, **expect)
            for argv, check, expect in MATHIEU_FIXED]
    for spec in sorted(ORDERS):
        n = spec_degree(spec)
        ranks = [r for r in range(2, n) if _rank_refuted(n, ORDERS[spec], r)]
        for _ in range(SHORT_PAIRS_PER_GROUP):
            shape = random_shape(rng, n, rng.choice(ranks))
            reqs.insert(rng.randrange(len(reqs) + 1), cli_request(
                ["check-pair", "--group", spec, "--lambda", fmt(shape)],
                "pair", verdict=False, rank_verdict=False))
    return reqs


def random_map(rng, n, shape):
    """A map row (1-based) with the given kernel type, at random."""
    points = list(range(n))
    rng.shuffle(points)
    values = rng.sample(range(n), len(shape))
    images = [0] * n
    it = iter(points)
    for size, value in zip(shape, values):
        for _ in range(size):
            images[next(it)] = value
    return ",".join(str(v + 1) for v in images)


def _oracle_pass(rng):
    """One map per group and kernel type, and a second one of the most
    common kernel type, 2,1,...,1 (10800 of the 45936 singular maps at
    degree 6), which gives the dearest closures.  The degree-6 ones are then
    12% of a pass, so the 90th percentile falls among them rather than on
    the edge between them and the next cheaper kind; the degree-5 ones bring
    a pass to 101 requests, so that one pass puts ten beyond it."""
    reqs = []
    for spec in ORACLE_GROUPS:
        n = spec_degree(spec)
        shapes = singular_shapes(n) + [(2,) + (1,) * (n - 2)]
        for shape in shapes:
            reqs.append({"call": "oracle", "group": spec,
                         "map": random_map(rng, n, shape),
                         "structure": n == 5, "pick": rng.randrange(2**32)})
    rng.shuffle(reqs)
    return reqs


_PASS_BUILDERS = {
    "catalog-classify": _classify_pass,
    "mathieu-deep": _mathieu_pass,
    "semigroup-oracle": _oracle_pass,
}


def make_pass(workload, seed, index):
    """Pass `index` of a workload: a list of requests fixed by the seed."""
    rng = random.Random("%s/%d/%d" % (workload, seed, index))
    return _PASS_BUILDERS[workload](rng)
