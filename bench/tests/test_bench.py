"""Tests of the benchmark itself: seeded request lists, repeatable exact
counts in the traced run, and output checks that catch wrong answers.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import execute  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from parthom import homogeneity, perm  # noqa: E402
from parthom.catalog import catalog_entries  # noqa: E402


def test_requests_are_scaled_by_the_reference_samples_around_them():
    ref = hostspeed.REFERENCE_S
    speed = hostspeed.HostSpeed()
    speed.samples = [(0.0, ref), (10.0, 2 * ref), (10.1, 2 * ref),
                     (20.0, 4 * ref)]
    speed.starts = [0.0, 10.1]
    # a 4 s first request has only the samples just before and after it;
    # the second also the one 0.1 s before it, within the window
    assert speed.scale([4.0, 0.5]) == pytest.approx([4 / 1.5, 0.25])
    # a 9 s first request also has the samples within its own length
    assert speed.scale([9.0, 0.5]) == pytest.approx([4.5, 0.25])
    assert speed.factor() == pytest.approx(4 / 9)
    assert hostspeed.reference_task() == 720


def test_catalog_specs_are_catalog_entries():
    assert tuple(e.spec for e in catalog_entries(10)) == workloads.CATALOG_SPECS


def _listing(workload, seed, hash_seed):
    code = ("import json, workloads; print(json.dumps([workloads.make_pass("
            "%r, %d, i) for i in range(3)], sort_keys=True))"
            % (workload, seed))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed)).stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_request_list(workload):
    first = _listing(workload, 5, "1")
    assert first == _listing(workload, 5, "2")
    assert first != _listing(workload, 6, "1")


def _small_requests():
    """A quick slice of each workload that still reaches every counted
    layer: walks, shortcuts, stabilizers (clause 6) and monoid closures."""
    seed = 3
    reqs = [r for r in workloads.make_pass("catalog-classify", seed, 0)
            if r["check"] == "fixtures"
            or workloads.spec_degree(r["argv"][2]) <= 7]
    reqs += [r for r in workloads.make_pass("mathieu-deep", seed, 0)
             if r["check"] in ("order", "pair")
             and "20,1,1,1,1" not in r["argv"]]
    reqs += [r for r in workloads.make_pass("semigroup-oracle", seed, 0)
             if r["group"] in ("s:5", "c:5", "agl1:5")]
    return reqs


def _traced_counts(requests):
    tracer = tracing.Tracer()
    with tracer:
        _, failures = run.run_pass(
            requests, tracer.wrap("bench.request", execute.perform), tracer)
    assert failures == []
    metrics = tracer.span_metrics()
    return {name: metrics[name][0] for name in tracing.EXACT_COUNTS}


def test_exact_counts_repeat_across_traced_runs():
    requests = _small_requests()
    first = _traced_counts(requests)
    assert all(first[name] > 0 for name in tracing.EXACT_COUNTS), first
    assert _traced_counts(requests) == first
    # leaving the traced block restored every rebound name
    assert homogeneity.orbit is perm.orbit
    assert perm.orbit.__code__.co_name == "orbit"


def _fixed(argv_part):
    for argv, check, expect in workloads.MATHIEU_FIXED:
        if argv_part in " ".join(argv):
            return workloads.cli_request(argv, check, **expect)
    raise LookupError(argv_part)


def _wrong_transitivity():
    req = _fixed("check-homog --group pgammal2:32")
    req["expect"]["transitive"] = True
    return req


def _wrong_order():
    req = _fixed("group-order --group m:11")
    req["expect"]["order"] += 1
    return req


def _missing_standing_row():
    req = [r for r in workloads.make_pass("catalog-classify", 1, 0)
           if r["check"] == "fixtures"][0]
    req["expect"]["mismatches"].pop()
    return req


@pytest.mark.parametrize("make_wrong", [_wrong_transitivity, _wrong_order,
                                        _missing_standing_row])
def test_wrong_expectation_counts_as_failed_request(make_wrong):
    right = [_fixed("check-homog --group pgammal2:32"),
             _fixed("group-order --group m:11")]
    _, failures = run.run_pass(right + [make_wrong()], execute.perform)
    assert [f["request"] for f in failures] == [len(right)]


def test_oracle_disagreement_counts_as_failure():
    assert execute.check_oracle({"equal": True, "pair": True}) == []
    assert execute.check_oracle({"equal": True, "pair": False})
    assert execute.check_oracle({"equal": True, "pair": True,
                                 "regular": False})
