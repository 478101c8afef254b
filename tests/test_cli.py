"""Command-line interface tests.

Everything drives run(argv) in-process and checks stdout, stderr, and the
exit code; one test confirms the installed console entry point resolves, and
one replays a sequence through the one shared parser against fresh
processes.
"""

import argparse
import json
import subprocess
import sys

import pytest

from parthom.cli import build_parser, run
from parthom.homogeneity import METHOD_CHAIN, METHOD_SHORTCUT


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# plain verbs


def test_group_order_text(capsys):
    code, out, _ = invoke(capsys, "group-order", "--group", "agl1:5")
    assert code == 0 and out == "20\n"


def test_group_order_json(capsys):
    code, payload, _ = invoke_json(capsys, "group-order", "--group", "m:12")
    assert code == 0
    assert payload == {"group": "m:12", "degree": 12, "order": 95040}


def test_orbit_whole_domain(capsys):
    code, out, _ = invoke(capsys, "orbit", "--group", "c:5", "--point", "1")
    assert code == 0 and out == "1,2,3,4,5\n"


def test_orbit_fixed_point(capsys):
    code, payload, _ = invoke_json(capsys, "orbit", "--group", "fix+c:5",
                                   "--point", "6")
    assert code == 0
    assert payload["orbit"] == [6] and payload["size"] == 1


def test_orbit_point_out_of_range(capsys):
    code, out, err = invoke(capsys, "orbit", "--group", "c:5", "--point", "7")
    assert code == 2 and out == ""
    assert "out of range" in err


def test_orbit_cap_exceeded(capsys):
    code, _, err = invoke(capsys, "orbit", "--group", "s:8", "--point", "1",
                          "--cap", "3")
    assert code == 2 and "cap exceeded" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("verb", [
    ["orbit", "--group", "fix+c:3", "--point", "4"],
    ["oracle-semigroup", "--group", "agl1:5", "--map", "1,1,3,4,5"],
], ids=["orbit", "oracle-semigroup"])
def test_cap_below_one_is_a_usage_error(capsys, verb, cap):
    with pytest.raises(SystemExit) as exc:
        run(verb + ["--cap", cap])
    assert exc.value.code == 2
    assert "argument --cap: must be at least 1" in capsys.readouterr().err


def test_check_homog(capsys):
    code, out, _ = invoke(capsys, "check-homog", "--group", "agl1:5",
                          "--t", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("3-homogeneous true")
    assert lines[1].startswith("3-transitive false")


def test_check_homog_m24_five_tuples_from_the_chain(capsys):
    # the orbit of 5,100,480 tuples is read off the chain, and t-homogeneity
    # follows from t-transitivity
    code, payload, _ = invoke_json(capsys, "check-homog", "--group", "m:24",
                                   "--t", "5")
    assert code == 0
    trans = payload["transitive"]
    assert trans["verdict"] is True
    assert trans["orbit_size"] == trans["expected"] == 5100480
    assert trans["method"] == "stabilizer-chain"
    assert payload["homogeneous"]["verdict"] is True


def test_check_lambda_json(capsys):
    code, payload, _ = invoke_json(capsys, "check-lambda", "--group",
                                   "psl2:5", "--lambda", "3,3")
    assert code == 0
    assert payload["lambda"] == "3,3"
    assert payload["homogeneous"]["verdict"] is True
    assert payload["transitive"]["verdict"] is False
    assert payload["transitive"]["orbit_size"] == 10
    assert payload["transitive"]["expected"] == 20


# ---------------------------------------------------------------------------
# pair checks


def test_check_pair_false_still_exits_zero(capsys):
    code, out, _ = invoke(capsys, "check-pair", "--group", "agl1:5",
                          "--lambda", "2,2,1")
    assert code == 0
    assert out.splitlines() == ["pair false",
                                "witness partition-homogeneity"]


def test_check_pair_with_map_and_clause(capsys):
    code, payload, _ = invoke_json(capsys, "check-pair", "--group", "agl1:5",
                                   "--map", "1,1,3,4,5", "--clause")
    assert code == 0
    assert payload["verdict"] is True and payload["witness"] is None
    assert payload["lambda"] == "2,1,1,1"
    assert payload["clause"] == "3"


def test_check_pair_requires_exactly_one_target(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check-pair", "--group", "agl1:5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["check-pair", "--group", "agl1:5", "--lambda", "5",
             "--map", "1,1,3,4,5"])
    assert exc.value.code == 2


def test_check_pair_degree_mismatch(capsys):
    code, _, err = invoke(capsys, "check-pair", "--group", "agl1:5",
                          "--map", "1,1,3")
    assert code == 2 and "expected 5 images" in err


def test_classify_text(capsys):
    code, out, _ = invoke(capsys, "classify", "--group", "agl1:5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "5 true clause=2"
    assert "2,2,1 false witness=partition-homogeneity clause=none" in lines


def test_classify_json_row_count(capsys):
    code, payload, _ = invoke_json(capsys, "classify", "--group", "pgl2:8")
    assert code == 0
    rows = payload["rows"]
    assert len(rows) == 29
    # 13, not the recorded 12: the constant type passes too (see README)
    assert sum(r["verdict"] for r in rows) == 13


def test_classify_no_clauses(capsys):
    code, out, _ = invoke(capsys, "classify", "--group", "c:4",
                          "--no-clauses")
    assert code == 0 and "clause=" not in out


def decision_nodes(node):
    """Every query result in a JSON payload: the objects with a method."""
    if isinstance(node, dict):
        if "method" in node:
            yield node
        for value in node.values():
            yield from decision_nodes(value)
    elif isinstance(node, list):
        for value in node:
            yield from decision_nodes(value)


def _ones(head, count):
    return head + ",1" * count


@pytest.mark.parametrize("argv", [
    ["check-homog", "--group", "m:24", "--t", "4"],
    ["check-homog", "--group", "m:23", "--t", "4"],
    ["check-homog", "--group", "pgammal2:32", "--t", "4"],
    ["check-pair", "--group", "m:24", "--lambda", "20,1,1,1,1"],
    ["check-pair", "--group", "m:23", "--lambda", "19,2,2", "--clause"],
    ["check-lambda", "--group", "m:24", "--lambda", _ones("2,2", 20)],
    ["check-lambda", "--group", "m:24", "--lambda", _ones("4", 20)],
    ["check-lambda", "--group", "m:24", "--lambda", "12,12"],
    ["classify", "--group", "m:11"],
    ["classify", "--group", "m:12"],
    ["classify", "--group", "pgl2:8"],
    ["classify", "--group", "s:6"],
    # chain reads of orbits short of the count: false verdicts
    ["classify", "--group", "d:5"],
    ["classify", "--group", "psl2:9"],
], ids=" ".join)
def test_every_reported_orbit_size_backs_its_verdict(capsys, argv):
    # a chain result is true exactly when its orbit has the expected size;
    # a shortcut reads no orbit and is true only for a count of 1
    code, payload, _ = invoke_json(capsys, *argv)
    assert code == 0
    nodes = list(decision_nodes(payload))
    assert nodes
    for q in nodes:
        if q["method"] == METHOD_CHAIN:
            assert q["verdict"] == (q["orbit_size"] == q["expected"]), q
        else:
            assert q["method"] == METHOD_SHORTCUT, q
            assert q["orbit_size"] is None, q
            assert q["verdict"] == (q["expected"] == 1), q


# ---------------------------------------------------------------------------
# fixtures, oracle, catalog


def test_verify_fixtures_all_mismatch_exit(capsys):
    code, out, _ = invoke(capsys, "verify-fixtures", "--all")
    assert code == 1
    assert out.splitlines()[-1] == "MISMATCH"
    assert "verdict-mismatch lambda=9 expected=false computed=true" in out


def test_verify_fixtures_clean_table(capsys):
    code, out, _ = invoke(capsys, "verify-fixtures", "--group", "agl1:5")
    assert code == 0
    assert out.splitlines() == ["agl1:5 rows 6 mismatches 0", "ok"]


def test_verify_fixtures_unknown_table(capsys):
    code, _, err = invoke(capsys, "verify-fixtures", "--group", "s:3")
    assert code == 2 and "no fixture table" in err


def test_verify_fixtures_json_round_trip(capsys):
    code, payload, _ = invoke_json(capsys, "verify-fixtures", "--group",
                                   "pgl2:8")
    assert code == 1
    assert payload["ok"] is False
    assert payload["tables"][0]["mismatches"][0]["lambda"] == "9"


def test_oracle_semigroup(capsys):
    code, payload, _ = invoke_json(capsys, "oracle-semigroup", "--group",
                                   "agl1:5", "--map", "1,1,3,4,5")
    assert code == 0
    assert payload["group_closure"] == 3005
    assert payload["symmetric_closure"] == 3005
    assert payload["equal"] is True
    code, out, _ = invoke(capsys, "oracle-semigroup", "--group", "agl1:5",
                          "--map", "1,1,3,4,5")
    assert code == 0
    assert out.splitlines() == ["group-closure 3005", "symmetric-closure 3005",
                                "equal true"]


@pytest.mark.parametrize("verb", ["oracle-semigroup", "check-pair"])
@pytest.mark.parametrize("images", ["1,1,4", "0,1,2"])
def test_map_out_of_range_names_the_one_based_range(capsys, verb, images):
    code, out, err = invoke(capsys, verb, "--group", "s:3", "--map", images)
    assert code == 2 and out == ""
    assert err == "error: image values must lie in 1..3\n"


def test_oracle_semigroup_proper_subset(capsys):
    code, out, _ = invoke(capsys, "oracle-semigroup", "--group", "agl1:5",
                          "--map", "1,1,3,3,5")
    assert code == 0
    lines = dict(line.rsplit(" ", 1) for line in out.splitlines())
    assert lines["equal"] == "false"
    assert int(lines["group-closure"]) < int(lines["symmetric-closure"])


def test_validate_catalog(capsys):
    code, out, err = invoke(capsys, "validate-catalog")
    assert code == 0
    assert out.splitlines()[-1] == "ok"
    # progress goes to the diagnostic stream, stdout stays machine-clean
    assert "ok   " in err
    code, out, err = invoke(capsys, "validate-catalog", "--quiet")
    assert code == 0 and err == ""


# ---------------------------------------------------------------------------
# error surface


def test_unknown_family(capsys):
    code, _, err = invoke(capsys, "group-order", "--group", "zz:9")
    assert code == 2 and "unknown family" in err


def test_malformed_lambda(capsys):
    code, _, err = invoke(capsys, "check-lambda", "--group", "agl1:5",
                          "--lambda", "3,2,1")
    assert code == 2 and "sum" in err


@pytest.mark.parametrize("argv, token", [
    (["check-lambda", "--group", "s:5", "--lambda", "1_0"], "1_0"),
    (["check-lambda", "--group", "s:5", "--lambda", "+3,2"], "+3"),
    (["oracle-semigroup", "--group", "s:3", "--map", "1,\uff11,2"], "\uff11"),
    (["oracle-semigroup", "--group", "s:3", "--map", "1,1_0,2"], "1_0")])
def test_non_ascii_digit_tokens_are_usage_errors(capsys, argv, token):
    # int() alone read 1_0 as 10, so check-lambda said "parts sum to 10"
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: not a number: %r\n" % token


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_every_verb_has_json_flag():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        flags = {s for a in sub._actions for s in a.option_strings}
        assert "--json" in flags, name


def test_cap_only_on_the_verbs_that_walk():
    # the decisions read every orbit off the stabilizer chain, so only the
    # point orbit and the semigroup closures have a walk to bound
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    capped = {name for name, sub in subparsers.choices.items()
              if any("--cap" in a.option_strings for a in sub._actions)}
    assert capped == {"orbit", "oracle-semigroup"}


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "parthom.cli", "group-order",
                          "--group", "c:7"], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "7"


# ---------------------------------------------------------------------------
# one parser per process


REUSE_SEQUENCE = [
    ["check-pair", "--group", "agl1:5", "--lambda", "2,1,1,1",
     "--map", "1,1,3,4,5"],
    ["check-pair", "--group", "agl1:5", "--lambda", "2,1,1,1"],
    ["check-pair", "--group", "agl1:5", "--map", "1,1,3,4,5", "--clause"],
    ["check-homog", "--group", "m:12", "--t", "4", "--json"],
    ["check-homog", "--group", "m:12", "--t", "4"],
]


def run_in_process(capsys, argv):
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_like_a_fresh_process(capsys, monkeypatch):
    # usage text wraps at the terminal width, so both sides get the same
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser() is build_parser()
    results = [run_in_process(capsys, argv) for argv in REUSE_SEQUENCE]
    assert results[0][0] == 2 and "not allowed with" in results[0][2]
    assert [code for code, _, _ in results[1:]] == [0, 0, 0, 0]
    for argv, result in zip(REUSE_SEQUENCE, results):
        fresh = subprocess.run([sys.executable, "-m", "parthom.cli", *argv],
                               capture_output=True, text=True)
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv
