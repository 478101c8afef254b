#!/usr/bin/env python3
"""Benchmark for parthom: closed-loop workloads through the CLI and library.

Usage, from the repository root:

    python3 bench/run.py --workload catalog-classify --seed 1 --seconds 30
    python3 bench/run.py --workload mathieu-deep --seed 1 --trace 1
    python3 bench/run.py --workload all --seed 1

One client in one process sends the next request when the previous one has
finished.  CLI requests go through `parthom.cli.run(argv)` in-process with
stdout captured; oracle requests call the public `tsemi` and `snpairs`
functions.  Every request builds its groups from spec strings, so chain
construction is part of its time.  Each request's output is checked against
facts the benchmark knows independently; a request that raises, exits with
an unexpected code or fails its check counts as failed.

A run measures whole passes (see workloads.py), at least one pass and 100
requests, and stops at the pass boundary expected to lie nearest to
`--seconds`.
Every pass of a workload holds the same mix of requests, so a percentile
reads the same whether a slow host fits fewer passes or a fast one more.
With `--trace 0` the last line reports the end-to-end metrics; setup_s is
the median over fresh processes of the time from process start to the
first request.  These timings are scaled to a reference host speed, which
the run measures alongside the requests (see hostspeed.py); the raw
timings are printed beside them.  With `--trace 1` the run makes one
untraced and one traced pass of the same requests and reports per-layer
metrics, the tracing overhead (the difference of the two passes' scaled
request times), and fixed baseline measurements; the spans go to
bench/results/.  The last line of stdout is always one JSON object: correct,
attempted, failed, metrics.
`--workload all` runs every workload in a fresh process and prints a table.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 21
PROBE_SAMPLES = 10
MIN_REQUESTS = 100
CHILD_TIMEOUT = 170

# At most this many failed requests are printed to stderr, so a run in which
# every request fails stays readable.
SHOWN_FAILURES = 5


def load_program():
    """Import the parthom sources of this checkout, never an installed copy."""
    if not (SRC / "parthom" / "__init__.py").is_file():
        raise SystemExit("error: no parthom sources under %s" % SRC)
    sys.path.insert(0, str(SRC))


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "parthom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:     # no git installed: the source digest still holds
            pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "seed": seed}


def measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter to its first request,
    raw and scaled by the reference samples each probe takes once it is
    ready.  A first probe, not counted, fills the page and bytecode caches
    as any earlier run would have."""
    raw, scaled = [], []
    for probe in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise SystemExit("error: setup probe failed: %s" % proc.stderr)
        ready, *samples = map(float, proc.stdout.split())
        if probe:
            raw.append(ready - start)
            scaled.append(raw[-1] * hostspeed.REFERENCE_S
                          / statistics.median(samples))
    return statistics.median(scaled), statistics.median(raw)


def run_pass(requests, perform, tracer=None, speed=None):
    """Run requests in order; returns (latencies, failures).  With `speed`,
    reference samples are taken before each request and after the last."""
    latencies, failures = [], []
    for index, req in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        if speed is not None:
            speed.begin_request()
        seconds, problems = perform(req)
        latencies.append(seconds)
        if problems:
            failures.append({"request": index, "problems": problems[:3]})
    if speed is not None:
        speed.sample()
    return latencies, failures


def timed_run(workload, seed, seconds, first_pass, perform):
    from workloads import make_pass

    latencies, failures, executed = [], [], []
    speed = hostspeed.HostSpeed()
    elapsed = 0.0
    passes = 0
    requests = first_pass
    while True:
        start = time.perf_counter() - speed.spent
        lat, fails = run_pass(requests, perform, speed=speed)
        elapsed += time.perf_counter() - speed.spent - start
        for f in fails:
            f["request"] += len(latencies)
        latencies += lat
        failures += fails
        executed += requests
        passes += 1
        if len(latencies) >= MIN_REQUESTS and \
                elapsed + elapsed / passes / 2 >= seconds:
            break
        requests = make_pass(workload, seed, passes)
    raw = {"requests_per_s": len(latencies) / elapsed,
           "request_p50_s": statistics.median(latencies),
           "request_p90_s": statistics.quantiles(latencies, n=10)[8]}
    # the throughput is that of the scaled request times, without the
    # benchmark's own output checks
    scaled = speed.scale(latencies)
    metrics = {
        "requests_per_s": (len(scaled) / math.fsum(scaled), "1/s"),
        "request_p50_s": (statistics.median(scaled), "s"),
        "request_p90_s": (statistics.quantiles(scaled, n=10)[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {"passes": passes, "measured_s": elapsed, "raw": raw,
            "host_factor": speed.factor(),
            "reference_samples": len(speed.samples)}
    return metrics, executed, latencies, failures, info


def traced_run(workload, seed, first_pass, perform):
    import tracing
    from parthom import catalog

    speed = hostspeed.HostSpeed()
    lat0, fails0 = run_pass(first_pass, perform, speed=speed)
    untraced = math.fsum(speed.scale(lat0))

    tracer = tracing.Tracer()
    speed = hostspeed.HostSpeed()
    with tracer:
        lat1, fails1 = run_pass(
            first_pass, tracer.wrap("bench.request", perform), tracer, speed)
    traced = math.fsum(speed.scale(lat1))
    for f in fails1:
        f["request"] += len(lat0)

    metrics = tracer.span_metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    m24 = catalog.build_group("m:24")
    metrics.update(tracing.kernel_metrics(tracer, m24))
    states, largest = tracer.max_orbit
    metrics["perm.orbit.bytes_per_state"] = (
        tracing.bytes_per_state(*largest) if states else 0.0, "bytes")
    metrics.update(tracing.baseline_metrics(m24))

    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / ("spans-%s-seed%d.json" % (workload, seed))
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "request"],
         "spans": tracer.spans}))
    info = {"passes": 1, "untraced_s": untraced, "traced_s": traced,
            "spans_file": str(spans_path.relative_to(ROOT))}
    return (metrics, first_pass + first_pass, lat0 + lat1, fails0 + fails1,
            info)


def run_all(args):
    """Every workload in its own fresh process; prints one table."""
    from workloads import WORKLOADS

    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise SystemExit("error: %s failed: %s" % (workload, proc.stderr))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = result
        print("%s: attempted %d failed %d correct %s" % (
            workload, result["attempted"], result["failed"],
            result["correct"]))
        rows = dict(result["metrics"])
        rows["error_rate"] = {"value": result["failed"] / result["attempted"],
                              "unit": "ratio"}
        for name, m in sorted(rows.items()):
            print("  %-44s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)

    import execute
    from workloads import make_pass

    first_pass = make_pass(args.workload, args.seed, 0)
    if args.setup_probe:
        ready = time.monotonic()
        samples = [hostspeed.time_reference() for _ in range(PROBE_SAMPLES)]
        print(" ".join(map(repr, [ready] + samples)))
        return 0

    if args.trace:
        metrics, executed, latencies, failures, info = traced_run(
            args.workload, args.seed, first_pass, execute.perform)
    else:
        setup, setup_raw = measure_setup(args.workload, args.seed)
        metrics, executed, latencies, failures, info = timed_run(
            args.workload, args.seed, args.seconds, first_pass,
            execute.perform)
        metrics["setup_s"] = (setup, "s")
        info["raw"]["setup_s"] = setup_raw

    attempted = len(latencies)
    for f in failures[:SHOWN_FAILURES]:
        print("FAILED request %d %s: %s" % (
            f["request"], json.dumps(executed[f["request"]], sort_keys=True),
            "; ".join(f["problems"])), file=sys.stderr)
    print("%s seed %d: %d requests, %d failed, error_rate %.6g ratio, %s" % (
        args.workload, args.seed, attempted, len(failures),
        len(failures) / attempted, json.dumps(info, sort_keys=True)))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-44s %16.6g %s" % (name, value, unit))
    listing = json.dumps(executed, sort_keys=True)
    record = {"environment": environment(args.seed),
              "workload": args.workload,
              "requests_sha256": hashlib.sha256(listing.encode()).hexdigest(),
              "requests": executed}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())}},
        sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
