"""Command-line front end.

Every verb is a thin wrapper over one library call chain.  Exit codes: 0 when
a verdict was computed (true or false alike) or fixture verification found no
mismatch, 1 when fixture verification found any mismatch, 2 for usage and
data errors.  Verdicts print as lowercase true/false; --json swaps the text
for one JSON document on stdout.  Progress chatter, when any, goes to stderr.
"""

import argparse
import functools
import json
import sys

from .catalog import CatalogError, build_group, validate_catalog
from .homogeneity import (
    decide_lambda_homogeneous,
    decide_lambda_transitive,
    decide_t_homogeneous,
    decide_t_transitive,
)
from .partitions import format_int_partition, parse_int_partition
from .perm import (
    DEFAULT_ORBIT_CAP,
    EnumerationCapExceeded,
    OrbitCapExceeded,
    act_point,
    orbit,
)
from .snpairs import (
    classify_all,
    is_sn_pair,
    load_fixture_tables,
    symbolic_clause,
    verify_fixtures,
)
from .tsemi import DEFAULT_SEMIGROUP_CAP, generate_arc, parse_transformation


def _bool(value):
    return "true" if value else "false"


def _query_line(label, result):
    if result.orbit_size is None:
        tail = "(%s)" % result.method
    else:
        tail = "(orbit %d of %d)" % (result.orbit_size, result.expected)
    return "%s %s %s" % (label, _bool(result.verdict), tail)


def cmd_group_order(args):
    group = build_group(args.group)
    payload = {"group": args.group, "degree": group.degree,
               "order": group.order()}
    return 0, payload, ["%d" % payload["order"]]


def cmd_orbit(args):
    group = build_group(args.group)
    if not 1 <= args.point <= group.degree:
        raise ValueError("point %d out of range for degree %d"
                         % (args.point, group.degree))
    points = sorted(orbit(group, args.point - 1, act_point, cap=args.cap))
    shown = [p + 1 for p in points]
    payload = {"group": args.group, "point": args.point, "orbit": shown,
               "size": len(shown)}
    return 0, payload, [",".join(str(p) for p in shown)]


def cmd_check_homog(args):
    group = build_group(args.group)
    hom = decide_t_homogeneous(group, args.t)
    trans = decide_t_transitive(group, args.t)
    payload = {"group": args.group, "t": args.t,
               "homogeneous": hom.as_dict(), "transitive": trans.as_dict()}
    return 0, payload, [_query_line("%d-homogeneous" % args.t, hom),
                        _query_line("%d-transitive" % args.t, trans)]


def cmd_check_lambda(args):
    group = build_group(args.group)
    lam = parse_int_partition(args.lam, group.degree)
    hom = decide_lambda_homogeneous(group, lam)
    trans = decide_lambda_transitive(group, lam)
    shown = format_int_partition(lam)
    payload = {"group": args.group, "lambda": shown,
               "homogeneous": hom.as_dict(), "transitive": trans.as_dict()}
    return 0, payload, [_query_line("%s-homogeneous" % shown, hom),
                        _query_line("%s-transitive" % shown, trans)]


def _pair_target(args, group):
    if args.map is not None:
        return parse_transformation(args.map, group.degree)
    return parse_int_partition(args.lam, group.degree)


def cmd_check_pair(args):
    group = build_group(args.group)
    target = _pair_target(args, group)
    verdict = is_sn_pair(target, group)
    if args.clause:
        verdict.clause = symbolic_clause(verdict.shape, group)
    payload = {"group": args.group}
    payload.update(verdict.as_dict())
    lines = ["pair %s" % _bool(verdict.verdict)]
    if verdict.witness is not None:
        lines.append("witness %s" % verdict.witness)
    if verdict.clause is not None:
        lines.append("clause %s" % verdict.clause)
    return 0, payload, lines


def cmd_classify(args):
    group = build_group(args.group)
    rows = classify_all(group, with_clauses=not args.no_clauses)
    payload = {"group": args.group, "degree": group.degree,
               "rows": [v.as_dict() for v in rows]}
    lines = []
    for v in rows:
        line = "%s %s" % (format_int_partition(v.shape), _bool(v.verdict))
        if v.witness is not None:
            line += " witness=%s" % v.witness
        if v.clause is not None:
            line += " clause=%s" % v.clause
        lines.append(line)
    return 0, payload, lines


def cmd_verify_fixtures(args):
    tables = load_fixture_tables()
    if args.group is not None:
        tables = [t for t in tables if t.group_spec == args.group]
        if not tables:
            raise ValueError("no fixture table for group %r" % args.group)
    report = verify_fixtures(tables)
    lines = []
    for entry in report["tables"]:
        lines.append("%s rows %d mismatches %d"
                     % (entry["group"], entry["rows"],
                        len(entry["mismatches"])))
        for m in entry["mismatches"]:
            if m["kind"] == "verdict-mismatch":
                lines.append("  %s lambda=%s expected=%s computed=%s"
                             % (m["kind"], m["lambda"], _bool(m["expected"]),
                                _bool(m["computed"])))
            else:
                lines.append("  %s %s" % (m["kind"],
                                          m.get("lambda", m.get("detail"))))
    lines.append("ok" if report["ok"] else "MISMATCH")
    return (0 if report["ok"] else 1), report, lines


def cmd_oracle_semigroup(args):
    group = build_group(args.group)
    target = parse_transformation(args.map, group.degree)
    sym = build_group("s:%d" % group.degree)
    over_group = generate_arc(target, group, cap=args.cap)
    over_sym = generate_arc(target, sym, cap=args.cap)
    equal = over_group.rows == over_sym.rows
    payload = {"group": args.group, "map": args.map,
               "group_closure": len(over_group),
               "symmetric_closure": len(over_sym), "equal": equal}
    return 0, payload, ["group-closure %d" % len(over_group),
                        "symmetric-closure %d" % len(over_sym),
                        "equal %s" % _bool(equal)]


def cmd_validate_catalog(args):
    progress = None
    if not args.quiet:
        progress = lambda msg: print(msg, file=sys.stderr)
    report = validate_catalog(progress=progress)
    ok = not report["failures"]
    lines = ["checks %d failures %d" % (len(report["checks"]),
                                        len(report["failures"]))]
    for c in report["failures"]:
        lines.append("  FAIL %s (%s)" % (c["check"], c["detail"]))
    lines.append("ok" if ok else "FAIL")
    return (0 if ok else 2), report, lines


def _add_group(parser):
    parser.add_argument("--group", required=True,
                        help="group spec, e.g. s:5, agl1:5, pgl2:8, m:12, "
                             "file:PATH, fix+SPEC")


def _cap(text):
    """A --cap value: an integer of at least 1, since every walk holds its
    seed."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) \
            from None
    if cap < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % cap)
    return cap


def _add_cap(parser, default):
    parser.add_argument("--cap", type=_cap, default=default,
                        help="orbit/closure size cap (default %d)" % default)


@functools.cache
def build_parser():
    """The argument parser, built on first use and then shared: parsing
    leaves it unchanged, and building it costs more than most requests."""
    parser = argparse.ArgumentParser(
        prog="parthom",
        description="Partition-homogeneity, partition-transitivity, and "
                    "symmetric-group pair checks for finite permutation "
                    "groups.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("group-order", help="order of a catalog group")
    _add_group(p)

    p = sub.add_parser("orbit", help="orbit of a point, 1-based")
    _add_group(p)
    p.add_argument("--point", type=int, required=True)
    _add_cap(p, DEFAULT_ORBIT_CAP)

    p = sub.add_parser("check-homog",
                       help="t-homogeneity and t-transitivity")
    _add_group(p)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("check-lambda",
                       help="partition-homogeneity and -transitivity")
    _add_group(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="partition of the degree, e.g. 3,2,1")

    p = sub.add_parser("check-pair",
                       help="does the map generate the full singular part")
    _add_group(p)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--lambda", dest="lam", help="kernel type, e.g. 2,2,1")
    what.add_argument("--map", help="transformation images, e.g. 1,1,3,4,5")
    p.add_argument("--clause", action="store_true",
                   help="also report the matching case-analysis clause")

    p = sub.add_parser("classify", help="pair verdict for every kernel type")
    _add_group(p)
    p.add_argument("--no-clauses", action="store_true",
                   help="skip the symbolic case analysis")

    p = sub.add_parser("verify-fixtures",
                       help="recompute the bundled reference tables")
    p.add_argument("--all", action="store_true",
                   help="verify every table (the default)")
    p.add_argument("--group", help="verify a single table")

    p = sub.add_parser("oracle-semigroup",
                       help="closure sizes over the group and over S_n")
    _add_group(p)
    p.add_argument("--map", required=True)
    _add_cap(p, DEFAULT_SEMIGROUP_CAP)

    p = sub.add_parser("validate-catalog",
                       help="recompute bundled group data promises")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-check progress on stderr")

    for name, p in sub.choices.items():
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")

    return parser


HANDLERS = {
    "group-order": cmd_group_order,
    "orbit": cmd_orbit,
    "check-homog": cmd_check_homog,
    "check-lambda": cmd_check_lambda,
    "check-pair": cmd_check_pair,
    "classify": cmd_classify,
    "verify-fixtures": cmd_verify_fixtures,
    "oracle-semigroup": cmd_oracle_semigroup,
    "validate-catalog": cmd_validate_catalog,
}


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, lines = HANDLERS[args.verb](args)
    except (CatalogError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except (OrbitCapExceeded, EnumerationCapExceeded) as err:
        print("error: cap exceeded: %s" % err, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
