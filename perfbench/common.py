"""Helpers shared by the workloads: timing loop, statistics, the gate."""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for stores, span files and reports (git-ignored)
WORK = ROOT / ".perfbench-work"
SIGNATURES = HERE / "signatures.json"


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """90th percentile (inclusive interpolation; the max below 2 samples)."""
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


#: :func:`spin_s` on the reference host: scaled times are seconds there
SPIN_REF_S = 0.040


def _loop_s(n):
    start = time.perf_counter()
    total = 0
    for i in range(n):
        total += i * i % 7
    return time.perf_counter() - start


def spin_s():
    """Time of a fixed pure-Python loop: the host's speed right now.

    The shared hosts this benchmark runs on alternate between fast and
    slow phases (about 1.4x apart, each lasting seconds to minutes), so
    CPU-bound times are divided by this probe, taken just before and
    just after each timed call.  It is the fastest of four quarters, so
    a preemption in one quarter does not count as a slow host.
    """
    return 4 * min(_loop_s(100_000) for _ in range(4))


def scaled_call(fn, *args):
    """``(result, seconds)`` of ``fn(*args)``, scaled to the reference host."""
    before = spin_s()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall * 2 * SPIN_REF_S / (before + spin_s())


def repeat_for(seconds, op, check):
    """Run ``op()`` once, then again while another call like the last fits
    in ``seconds`` of calls.

    Each result goes to ``check`` outside the timed region and is then
    dropped, and the garbage collector runs before each call, so neither
    memory nor collection pauses grow with the number of calls a run
    makes.  Returns the durations, each scaled to the reference host
    (:func:`scaled_call`).
    """
    durations = []
    spent = 0.0
    while True:
        gc.collect()
        t = time.perf_counter()
        result, scaled = scaled_call(op)
        last = time.perf_counter() - t
        spent += last
        durations.append(scaled)
        check(result)
        del result
        if spent + last > seconds:
            return durations


def own_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pinned_signature(workload, seed):
    """The quality signature pinned for ``seed``, or None if unpinned."""
    with open(SIGNATURES, encoding="utf-8") as fh:
        pins = json.load(fh)
    return pins.get(workload, {}).get(str(seed))


class Gate:
    """Counts checked operations and the ones that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0

    def verified_frac(self):
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


def report_unpinned(workload, seed, sig):
    """Print a signature no pin covers, so a new seed can be pinned."""
    print(f"perfbench: {workload} seed {seed} signature (unpinned): "
          f"{json.dumps(sig)}", file=sys.stderr)


def signature_matches(got, pinned):
    """Exact channel width; wirelength and delay to 1e-6 relative."""
    if got["channel_width"] != pinned["channel_width"]:
        return False
    return all(
        abs(got[k] - pinned[k]) <= 1e-6 * max(1.0, abs(pinned[k]))
        for k in ("total_wirelength", "critical_path_delay")
    )
