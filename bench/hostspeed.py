"""The host's speed during a run, for scaling the run's timings.

The benchmark runs on a share of a machine whose speed changes with the load
of the machine's other tenants, from one second to the next and from one
hour to the next.  On the 2-vCPU host the benchmark was defined on, the same
catalog-classify pass took 3.2 s in one minute and 6.3 s in the minute
before; a fixed pure-Python loop switched between two speeds 1.35 times
apart every second or so, and an hour later ran 1.6 times slower
throughout.  Those swings are no property of the program, and they are
larger than the regressions the benchmark must catch.

So a run also times a fixed reference task before each request and after
the last: a breadth-first walk over the 720 permutations of six points that
composes tuples and fills a set, as the program's orbit walks do.  The task
never calls the program, so a change to the program does not move it.  Each
request's time is multiplied by `REFERENCE_S / median(samples near it)`, so
it reads in seconds on a host on which the reference task takes
`REFERENCE_S`.  The samples near a request are those within `WINDOW_S` of
it, or within its own length if that is longer: a long request ran through
many swings of the host's speed, and more samples estimate their mean.
The raw timings and the run's mean factor are printed beside the scaled
ones.
"""

import bisect
import gc
import statistics
import time

# The reference task's time on the 2-vCPU x86-64 host with CPython 3.11.7
# on which the benchmark was defined, in its faster state.
REFERENCE_S = 0.0007

# Within a quarter of a second the host seldom changes speed.
WINDOW_S = 0.25


def reference_task():
    """Walk the orbit of the identity of S_6 under a transposition and a
    6-cycle, as tuples; returns the number of states (720)."""
    gens = ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))
    start = tuple(range(6))
    seen = {start}
    frontier = [start]
    while frontier:
        found = []
        for p in frontier:
            for g in gens:
                q = tuple([p[i] for i in g])
                if q not in seen:
                    seen.add(q)
                    found.append(q)
        frontier = found
    return len(seen)


def time_reference():
    """One timing of the reference task.  The cyclic collector is held off
    during it, so that the size of the program's heap cannot move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference samples taken before each request of a run and after its
    last one."""

    def __init__(self):
        self.samples = []           # (perf_counter when taken, seconds)
        self.starts = []            # perf_counter at each request's start
        self.spent = 0.0            # seconds the samples took, wall clock

    def sample(self):
        start = time.perf_counter()
        seconds = time_reference()
        now = time.perf_counter()
        self.samples.append((now, seconds))
        self.spent += now - start

    def begin_request(self):
        self.sample()
        self.starts.append(time.perf_counter())

    def factor(self):
        """The factor from all samples of the run."""
        return REFERENCE_S / statistics.fmean(s for _, s in self.samples)

    def local_factor(self, start, end):
        """The factor from the samples taken within WINDOW_S, or the
        request's own length if that is longer, of the interval [start, end],
        and always the last one before it and the first one after it."""
        times = [t for t, _ in self.samples]
        window = max(WINDOW_S, end - start)
        lo = min(bisect.bisect_left(times, start - window),
                 bisect.bisect_right(times, start) - 1)
        hi = max(bisect.bisect_right(times, end + window),
                 bisect.bisect_left(times, end) + 1)
        near = [s for _, s in self.samples[max(lo, 0):hi]]
        return REFERENCE_S / statistics.median(near)

    def scale(self, latencies):
        """The latencies of the requests begun with `begin_request`, in
        order, each scaled by its local factor."""
        return [seconds * self.local_factor(start, start + seconds)
                for start, seconds in zip(self.starts, latencies)]
