"""Per-layer tracing for the benchmark's traced run.

`Tracer` wraps the public functions at each layer boundary by rebinding the
name in every parthom module that holds it, which is where callers look it
up (`homogeneity.orbit`, `cli.classify_all`, `perm.schreier_sims`, ...).
Each call records a span [name, start, end, parent, request] in memory;
exact counts are read off return values.  Leaving the `with` block restores
every binding.

Layers are named after the modules.  Hot kernels (`act_set`, `__mul__`, ...)
are not wrapped, since a span per call would swamp them; `kernel_metrics`
times them afterwards in loops over states sampled from the traced walks.
"""

import itertools
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

from parthom import catalog, cli, homogeneity, partitions, perm, snpairs, tsemi

TRACED = (
    (perm, ("orbit", "schreier_sims", "stabilizer_generators",
            "induced_action")),
    (homogeneity, ("decide_t_homogeneous", "decide_t_transitive",
                   "decide_lambda_homogeneous", "decide_lambda_transitive",
                   "is_standard_pair")),
    (snpairs, ("is_sn_pair", "classify_all", "symbolic_facts",
               "symbolic_clause", "verify_fixtures", "load_fixture_tables")),
    (tsemi, ("generate_arc", "is_regular", "is_idempotent_generated",
             "green_checks", "local_group_at")),
    (catalog, ("build_group", "validate_catalog")),
    (cli, ("run",)),
)

KERNELS = (
    ("partitions.act_set_partition", partitions.act_set_partition),
    ("partitions.act_ordered_partition", partitions.act_ordered_partition),
    ("perm.act_set", perm.act_set),
    ("perm.act_tuple", perm.act_tuple),
)

SAMPLES_PER_CALL = 4
SAMPLE_CAP = 256


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.paused = False
        self.counts = Counter()
        self.max_orbit = (0, None)          # (states, (group, seed, act))
        self.act_samples = {act: [] for _, act in KERNELS}
        self.perm_samples = []
        self.trans_samples = []
        self._bindings = []

    def __enter__(self):
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "parthom" or name.startswith("parthom.")]
        for module, names in TRACED:
            for name in names:
                original = getattr(module, name, None)
                if original is None:    # a layer the program no longer has
                    continue
                layer = "%s.%s" % (module.__name__.rsplit(".", 1)[1], name)
                wrapper = self.wrap(layer, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._bindings.append((holder, attr, original))
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._bindings):
            setattr(holder, attr, original)
        self._bindings = []

    def wrap(self, layer, fn):
        count = COUNTERS.get(layer)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                self.paused = True
                try:
                    count(self, args, kwargs, result)
                finally:
                    self.paused = False
            return result

        return traced

    # -- counts read off return values ------------------------------------

    def _count_orbit(self, args, kwargs, result):
        group = _arg(args, kwargs, 0, "group")
        seed = _arg(args, kwargs, 1, "seed")
        act = _arg(args, kwargs, 2, "act")
        states = len(result)
        self.counts["perm.orbit.states"] += states
        self.counts["perm.orbit.gen_apps"] += states * len(group.generators)
        if states > self.max_orbit[0]:
            self.max_orbit = (states, (group, seed, act))
        samples = self.act_samples.get(act)
        if samples is not None and len(samples) < SAMPLE_CAP:
            raw = group.raw_gens()
            samples.extend((x, raw) for x in
                           itertools.islice(result, SAMPLES_PER_CALL))

    def _count_schreier_sims(self, args, kwargs, result):
        gens = list(_arg(args, kwargs, 1, "generators"))[:SAMPLES_PER_CALL]
        if len(self.perm_samples) < SAMPLE_CAP:
            self.perm_samples.extend(zip(gens, gens[1:] + gens[:1]))

    def _count_stabilizer(self, args, kwargs, result):
        self.counts["perm.stabilizer_generators.gens_out"] += \
            len(result.generators)

    def _count_decision(self, args, kwargs, result):
        self.counts["homogeneity.decisions"] += 1
        if result.method == homogeneity.METHOD_SHORTCUT:
            self.counts["homogeneity.shortcuts"] += 1

    def _count_arc(self, args, kwargs, result):
        group = _arg(args, kwargs, 1, "group")
        # monoid states: the non-units plus the units, which are all of G;
        # the order comes from a fresh chain so the caller's group object
        # keeps no cached chain the untraced run would not have had
        units = perm.PermGroup(group.degree, group.generators).order()
        self.counts["tsemi.generate_arc.states"] += len(result) + units
        if len(self.trans_samples) < SAMPLE_CAP:
            xs = list(itertools.islice(result.elements, SAMPLES_PER_CALL))
            self.trans_samples.extend(zip(xs, xs[1:] + xs[:1]))

    # -- metrics ----------------------------------------------------------

    def span_metrics(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        module_self = defaultdict(float)
        for name, seconds in own.items():
            module_self[name.split(".")[0]] += seconds
        c = self.counts
        orbit_s = total["perm.orbit"]
        arc_s = total["tsemi.generate_arc"]
        m = {
            "perm.orbit.s": (orbit_s, "s"),
            "perm.orbit.calls": (calls["perm.orbit"], "count"),
            "perm.orbit.states": (c["perm.orbit.states"], "count"),
            "perm.orbit.gen_apps": (c["perm.orbit.gen_apps"], "count"),
            "perm.orbit.us_per_state": (_ratio(orbit_s * 1e6,
                                               c["perm.orbit.states"]), "us"),
            "perm.orbit.new_ratio": (_ratio(c["perm.orbit.states"],
                                            c["perm.orbit.gen_apps"]),
                                     "ratio"),
            "perm.orbit.max_states": (self.max_orbit[0], "count"),
            "perm.schreier_sims.s": (total["perm.schreier_sims"], "s"),
            "perm.schreier_sims.calls": (calls["perm.schreier_sims"], "count"),
            "perm.stabilizer_generators.s":
                (total["perm.stabilizer_generators"], "s"),
            "perm.stabilizer_generators.gens_out":
                (c["perm.stabilizer_generators.gens_out"], "count"),
            "perm.induced_action.s": (total["perm.induced_action"], "s"),
            "homogeneity.decisions": (c["homogeneity.decisions"], "count"),
            "homogeneity.shortcut_share": (_ratio(c["homogeneity.shortcuts"],
                                                  c["homogeneity.decisions"]),
                                           "ratio"),
            "homogeneity.is_standard_pair.s":
                (total["homogeneity.is_standard_pair"], "s"),
            "snpairs.is_sn_pair.s": (total["snpairs.is_sn_pair"], "s"),
            "snpairs.is_sn_pair.calls": (calls["snpairs.is_sn_pair"], "count"),
            "snpairs.symbolic_facts.s": (total["snpairs.symbolic_facts"], "s"),
            "snpairs.symbolic_clause.self_s":
                (own["snpairs.symbolic_clause"], "s"),
            "snpairs.verify_fixtures.s": (total["snpairs.verify_fixtures"],
                                          "s"),
            "tsemi.generate_arc.s": (arc_s, "s"),
            "tsemi.generate_arc.states": (c["tsemi.generate_arc.states"],
                                          "count"),
            "tsemi.generate_arc.us_per_state":
                (_ratio(arc_s * 1e6, c["tsemi.generate_arc.states"]), "us"),
            "tsemi.is_regular.s": (total["tsemi.is_regular"], "s"),
            "tsemi.is_idempotent_generated.s":
                (total["tsemi.is_idempotent_generated"], "s"),
            "tsemi.green_checks.s": (total["tsemi.green_checks"], "s"),
            "tsemi.local_group_at.s": (total["tsemi.local_group_at"], "s"),
            "catalog.build_group.self_s": (own["catalog.build_group"], "s"),
            "catalog.validate_catalog.s": (total["catalog.validate_catalog"],
                                           "s"),
            "cli.self_s": (own["cli.run"], "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        for module in ("perm", "homogeneity", "snpairs", "tsemi", "catalog",
                       "bench"):
            m["%s.self_s" % module] = (module_self[module], "s")
        return m


COUNTERS = {
    "perm.orbit": Tracer._count_orbit,
    "perm.schreier_sims": Tracer._count_schreier_sims,
    "perm.stabilizer_generators": Tracer._count_stabilizer,
    "homogeneity.decide_t_homogeneous": Tracer._count_decision,
    "homogeneity.decide_t_transitive": Tracer._count_decision,
    "homogeneity.decide_lambda_homogeneous": Tracer._count_decision,
    "homogeneity.decide_lambda_transitive": Tracer._count_decision,
    "tsemi.generate_arc": Tracer._count_arc,
}

# The counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = ("perm.orbit.states", "perm.orbit.gen_apps",
                "homogeneity.shortcut_share",
                "perm.stabilizer_generators.gens_out",
                "tsemi.generate_arc.states")


def _ratio(num, den):
    return num / den if den else 0.0


def per_call_ns(loop, calls, repeats=5, min_seconds=0.02):
    """Median over repeats of the time per call of `loop()`, which makes
    `calls` calls; each repeat loops until it has run `min_seconds`."""
    results = []
    for _ in range(repeats):
        rounds = 0
        start = time.perf_counter()
        while True:
            loop()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        results.append(elapsed / (rounds * calls) * 1e9)
    return statistics.median(results)


def _walk(start, act, raw, steps):
    """Deterministic states near start: apply the generators in turn."""
    out, x = [], start
    for k in range(steps):
        x = act(x, raw[k % len(raw)])
        out.append((x, raw))
    return out


def degree24_states(m24):
    raw = m24.raw_gens()
    shape = (2, 2) + (1,) * 20
    seeds = {
        partitions.act_set_partition: partitions.first_partition_of_type(shape),
        partitions.act_ordered_partition:
            partitions.first_partition_of_type(shape),
        perm.act_set: (0, 1, 2, 3),
        perm.act_tuple: (0, 1, 2, 3),
    }
    return {act: _walk(seed, act, raw, 32) for act, seed in seeds.items()}


def kernel_metrics(tracer, m24):
    """ns per kernel call, over the traced run's states plus degree 24."""
    deg24 = degree24_states(m24)
    out = {}
    for name, act in KERNELS:
        cases = tracer.act_samples[act] + deg24[act]
        calls = sum(len(raw) for _, raw in cases)

        def loop(cases=cases, act=act):
            for x, raw in cases:
                for images in raw:
                    act(x, images)

        out[name + ".ns"] = (per_call_ns(loop, calls), "ns")
    gens = list(m24.generators)
    pairs = tracer.perm_samples + list(zip(gens, gens[1:] + gens[:1]))
    out["perm.mul.ns"] = (per_call_ns(lambda: [p * q for p, q in pairs],
                                      len(pairs)), "ns")
    tpairs = tracer.trans_samples
    out["tsemi.mul.ns"] = ((per_call_ns(lambda: [a * b for a, b in tpairs],
                                        len(tpairs)), "ns")
                           if tpairs else (0.0, "ns"))
    return out


def bytes_per_state(group, seed, act):
    """Peak traced allocation of one orbit walk, per state walked."""
    tracemalloc.start()
    try:
        states = len(perm.orbit(group, seed, act))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / states


def baseline_metrics(m24):
    """Fixed reference measurements that no workload changes: composition
    at degree 24 against raw tuples, three chain builds, the stabilizer of
    an m:24 4-set, and bytes per degree-24 set-partition state."""
    out = {}
    elements = [m24.generators[0]]
    for k in range(31):
        elements.append(elements[-1] * m24.generators[k % len(m24.generators)])
    pairs = list(zip(elements, elements[1:]))
    raw_pairs = [(p.images, q.images) for p, q in pairs]
    out["baseline.perm_mul_deg24.ns"] = (
        per_call_ns(lambda: [p * q for p, q in pairs], len(pairs)), "ns")
    out["baseline.tuple_compose_deg24.ns"] = (
        per_call_ns(lambda: [tuple(q[i] for i in p) for p, q in raw_pairs],
                    len(raw_pairs)), "ns")
    for spec, key in (("m:24", "m24"), ("pgammal2:32", "pgammal2_32"),
                      ("s:12", "s12")):
        group = catalog.build_group(spec)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            perm.schreier_sims(group.degree, group.generators)
            times.append(time.perf_counter() - start)
        out["baseline.schreier_sims_%s.s" % key] = (statistics.median(times),
                                                    "s")
    start = time.perf_counter()
    stab = perm.stabilizer_generators(m24, (0, 1, 2, 3), perm.act_set)
    out["baseline.stabilizer_generators_m24_4set.s"] = (
        time.perf_counter() - start, "s")
    out["baseline.stabilizer_generators_m24_4set.gens"] = (
        len(stab.generators), "count")
    seed = partitions.first_partition_of_type((2, 2) + (1,) * 20)
    out["baseline.partition_state_deg24.bytes"] = (
        bytes_per_state(m24, seed, partitions.act_set_partition), "bytes")
    return out
