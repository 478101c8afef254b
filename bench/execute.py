"""Running one request against the program and checking what it returned.

`perform` times a single request and then checks its output.  Every call
into the program goes through a module attribute (`cli.run`,
`tsemi.generate_arc`, ...) so that the traced run, which rebinds those
names, sees it.
"""

import contextlib
import io
import json
import time
import traceback

from parthom import catalog, cli, snpairs, tsemi

from workloads import singular_shapes

BFS = "orbit-BFS"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _is_idempotent(images):
    return all(images[v] == v for v in images)


def run_oracle(req):
    """Closure over G against closure over S_n, and the pair test on G; on
    a passing degree-5 pair also the structure checks."""
    group = catalog.build_group(req["group"])
    sym = catalog.build_group("s:%d" % group.degree)
    a = tsemi.parse_transformation(req["map"], group.degree)
    over_group = tsemi.generate_arc(a, group)
    over_sym = tsemi.generate_arc(a, sym)
    pair = snpairs.is_sn_pair(a, group)
    out = {"equal": over_group.elements == over_sym.elements,
           "pair": pair.verdict}
    if req["structure"] and pair.verdict:
        # the seed picks two idempotents of rank 2 (rank 1 for a constant
        # map): the ideals green_checks builds then have one size per kernel
        # type of a, where top-rank picks would cost seconds more each
        rank = min(2, len(set(a.images)))
        ids = sorted((x for x in over_group if _is_idempotent(x.images)
                      and len(set(x.images)) == rank), key=lambda x: x.images)
        e = ids[req["pick"] % len(ids)]
        f = ids[req["pick"] // len(ids) % len(ids)]
        out["regular"] = tsemi.is_regular(over_group)
        out["idempotent_generated"] = tsemi.is_idempotent_generated(over_group)
        out["green_agree"] = tsemi.green_checks(over_group, e, f).all_agree
        out["local_group"] = tsemi.local_group_at(over_group, e)[1].is_group_like
    return out


def perform(req):
    """Run one request; returns (seconds, problems).  No problems = pass."""
    start = time.perf_counter()
    try:
        result = run_cli(req["argv"]) if req["call"] == "cli" \
            else run_oracle(req)
    except Exception as err:    # a raising request is a failed request
        frame = traceback.extract_tb(err.__traceback__)[-1]
        return time.perf_counter() - start, ["raised %r at %s:%d" % (
            err, frame.filename, frame.lineno)]
    seconds = time.perf_counter() - start
    if req["call"] == "oracle":
        return seconds, check_oracle(result)
    return seconds, check_cli(req, result)


# ---------------------------------------------------------------------------
# output checks


def check_oracle(out):
    problems = []
    if out["equal"] != out["pair"]:
        problems.append("closure equality %s but pair verdict %s"
                        % (out["equal"], out["pair"]))
    problems += ["%s failed" % k for k, v in out.items()
                 if k not in ("equal", "pair") and v is not True]
    return problems


def _bfs_mismatches(node, found):
    """Every true walk verdict must have walked exactly the expected count."""
    if isinstance(node, dict):
        if node.get("method") == BFS and node.get("verdict") is True \
                and node.get("orbit_size") != node.get("expected"):
            found.append("%s: orbit %s != expected %s" % (
                node.get("query"), node.get("orbit_size"),
                node.get("expected")))
        for value in node.values():
            _bfs_mismatches(value, found)
    elif isinstance(node, list):
        for value in node:
            _bfs_mismatches(value, found)
    return found


def check_cli(req, result):
    expect = req["expect"]
    kind = req["check"]
    want_code = 1 if kind == "fixtures" else 0
    if result["code"] != want_code:
        return ["exit code %s, expected %d: %s" % (
            result["code"], want_code, result["stderr"].strip()[-200:])]
    try:
        payload = json.loads(result["stdout"])
    except ValueError:
        return ["stdout is not one JSON document"]
    problems = _bfs_mismatches(payload, [])
    problems += CHECKS[kind](payload, expect)
    return problems


def _check_classify(payload, expect):
    rows = payload["rows"]
    shapes = sorted(r["lambda"] for r in rows)
    wanted = sorted(",".join(map(str, s))
                    for s in singular_shapes(expect["degree"]))
    problems = [] if shapes == wanted else ["rows %s, expected one per kernel "
                                            "type %s" % (shapes, wanted)]
    problems += ["%s: verdict %s but clause %s" % (r["lambda"], r["verdict"],
                                                   r.get("clause"))
                 for r in rows if (r.get("clause") != "none") != r["verdict"]]
    return problems


def _check_fixtures(payload, expect):
    found = sorted([t["group"], m.get("lambda"), m["kind"]]
                   for t in payload["tables"] for m in t["mismatches"])
    if found != sorted(expect["mismatches"]):
        return ["fixture mismatches %s, expected %s"
                % (found, expect["mismatches"])]
    return []


def _check_order(payload, expect):
    if payload["order"] != expect["order"]:
        return ["order %s, expected %s" % (payload["order"], expect["order"])]
    return []


def _check_query(payload, expect):
    return ["%s %s, expected %s" % (key, payload[key]["verdict"], want)
            for key, want in sorted(expect.items())
            if payload[key]["verdict"] != want]


def _check_pair(payload, expect):
    got = {"verdict": payload["verdict"],
           "rank_verdict": payload["rank_query"]["verdict"],
           "clause": payload.get("clause")}
    return ["%s %s, expected %s" % (key, got[key], want)
            for key, want in sorted(expect.items()) if got[key] != want]


def _check_validate(payload, expect):
    return ["validate-catalog: %s" % f["check"] for f in payload["failures"]]


CHECKS = {
    "classify": _check_classify,
    "fixtures": _check_fixtures,
    "order": _check_order,
    "query": _check_query,
    "pair": _check_pair,
    "validate": _check_validate,
}
