"""Route workloads: the paper's width sweep and a PathFinder timing route.

``paper_sweep`` is the paper's headline experiment: the minimum channel
width of ``term1`` on XC4000 with IKMB for most nets and PFA for the
20% longest.  ``pathfinder_timing`` routes ``apex7`` at a fixed width
with timing-driven PathFinder negotiation.  Both run on the serial
engine.

Both circuits are scaled down so that one run repeats the operation
fifteen times or more.  A run of one or two full-size sweeps (term1 at
0.5, ~15 s each) cannot average out a shared host's speed phases.  At
0.15, term1 still fails one width and rips up 24 passes in all; apex7
at 0.35 on W=6 still negotiates for 18 iterations.

Each workload routes one pinned circuit (synthesis seed 1 unless
``--circuit-seed`` says otherwise): the synthesis seed changes the work
several times over, so runs with different ``--seed`` values must not
change the circuit.

Run as a script, this module performs one workload's set-up (import
the routing stack, synthesize and lint the circuit) and exits; the
benchmark times that process to measure ``setup_s``.
"""

from __future__ import annotations

import functools
import subprocess
import sys
from dataclasses import dataclass, field

from common import (
    Gate, median, own_peak_rss_mb, p90, pinned_signature, repeat_for,
    report_unpinned, scaled_call, signature_matches, SRC,
)

SETUP_REPEATS = 5
#: a traced run alternates this many untraced and traced routes
TRACE_REPEATS = 3


@dataclass(frozen=True)
class RouteWorkload:
    circuit: str
    fraction: float
    tiny_fraction: float
    family: str
    width: int = None  # None: minimum-channel-width sweep
    config: dict = field(default_factory=dict)


WORKLOADS = {
    "paper_sweep": RouteWorkload(
        "term1", 0.15, 0.1, "xc4000",
        config={"critical_algorithm": "pfa", "critical_fraction": 0.2},
    ),
    "pathfinder_timing": RouteWorkload(
        "apex7", 0.35, 0.15, "xc4000", width=6,
        config={"mode": "negotiate", "timing": True},
    ),
}

#: engine axis (report only): parallel engines timed beside serial
ENGINE_AXIS = ("thread", "process")
ENGINE_AXIS_WORKERS = 2


def family_builder(wl):
    from repro.fpga import xc3000, xc4000

    return {"xc3000": xc3000, "xc4000": xc4000}[wl.family]


def make_circuit(wl, tiny, seed):
    from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit

    fraction = wl.tiny_fraction if tiny else wl.fraction
    return synthesize_circuit(
        scaled_spec(circuit_spec(wl.circuit), fraction), seed=seed
    )


def config_of(wl):
    from repro.router import RouterConfig

    return RouterConfig(**wl.config)


def route_once(wl, circuit, engine="serial"):
    """One routing operation; returns the routed result."""
    from repro.engine import RoutingSession
    from repro.router import minimum_channel_width

    cfg = config_of(wl)
    workers = ENGINE_AXIS_WORKERS if engine != "serial" else None
    family = family_builder(wl)
    if wl.width is None:
        _, result = minimum_channel_width(
            circuit, family, cfg, engine=engine, max_workers=workers
        )
        return result
    arch = family(circuit.rows, circuit.cols, wl.width)
    with RoutingSession(arch, cfg, engine=engine, max_workers=workers) as s:
        return s.route(circuit)


def signature(result, circuit):
    """Channel width, wirelength and Elmore Dmax of one result."""
    from repro.router import critical_path_delay

    trees = {r.name: r.tree() for r in result.routes}
    nets = {n.name: n.to_graph_net() for n in circuit.nets}
    return {
        "channel_width": result.channel_width,
        "total_wirelength": round(result.total_wirelength, 6),
        "critical_path_delay": round(critical_path_delay(trees, nets), 6),
    }


def certify(wl, circuit, result, gate, expected):
    """Full checker pass plus signature check; returns the signature."""
    from repro.validate import verify_result

    arch = family_builder(wl)(circuit.rows, circuit.cols, result.channel_width)
    report = verify_result(result, circuit, arch, config_of(wl), level="full")
    sig = signature(result, circuit)
    problems = [d.render() for d in report.errors]
    if expected is not None and not signature_matches(sig, expected):
        problems.append(f"signature {sig} != expected {expected}")
    gate.check(not problems, "; ".join(problems))
    return sig


def timed_setup(name, tiny, seed):
    """Median scaled time of a fresh process doing the workload's set-up."""
    cmd = [sys.executable, __file__, name, "tiny" if tiny else "full", str(seed)]
    setup = functools.partial(subprocess.run, cmd, check=True, timeout=120)
    return median([scaled_call(setup)[1] for _ in range(SETUP_REPEATS)])


def run(name, args):
    """Run one route workload; returns (gate, metrics, report)."""
    wl = WORKLOADS[name]
    seed = args.circuit_seed
    gate = Gate()
    setup_s = timed_setup(name, args.tiny, seed)
    circuit = make_circuit(wl, args.tiny, seed)
    pinned = None if args.tiny else pinned_signature(name, seed)
    # first routes pay lazy imports and first-call costs; set-up owns those
    route_once(wl, make_circuit(wl, True, seed))

    if args.trace:
        return gate, *traced(name, wl, circuit, gate, pinned, setup_s)

    sig = pinned

    def check(result):
        nonlocal sig
        got = certify(wl, circuit, result, gate, sig)
        sig = sig or got  # every repeat must match the first result

    durations = repeat_for(args.seconds, lambda: route_once(wl, circuit), check)
    peak = own_peak_rss_mb()
    if pinned is None and not args.tiny:
        report_unpinned(name, seed, sig)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "verified_frac": gate.verified_frac(),
        "latency_s": median(durations),
        "latency_p90_s": p90(durations),
        "ops_per_min": 60.0 * len(durations) / sum(durations),
        "total_wirelength": sig["total_wirelength"],
        "critical_path_delay": sig["critical_path_delay"],
        "channel_width": sig["channel_width"],
    }
    return gate, metrics, None


def traced(name, wl, circuit, gate, pinned, setup_s):
    """Untraced and traced routes, alternating; plus the engine axis.

    The untraced routes are the overhead reference and the serial point
    of the engine axis.  These times are scaled to the reference host;
    span times are wall times.
    """
    from layers import Tracer, layer_metrics, span_totals

    tracer = Tracer()
    untraced, traced_s = [], []
    sig = pinned
    for _ in range(TRACE_REPEATS):
        result, seconds = scaled_call(route_once, wl, circuit)
        untraced.append(seconds)
        sig = certify(wl, circuit, result, gate, sig)
        tracer.install()
        try:
            result, seconds = scaled_call(tracer.span, "op", route_once, wl, circuit)
        finally:
            tracer.uninstall()
        traced_s.append(seconds)
        certify(wl, circuit, result, gate, sig)

    axis = {"serial": median(untraced)}
    if name == "paper_sweep":
        for engine in ENGINE_AXIS:
            times = []
            for _ in range(TRACE_REPEATS):
                result, seconds = scaled_call(route_once, wl, circuit, engine)
                times.append(seconds)
                certify(wl, circuit, result, gate, sig)
            axis[engine] = median(times)

    totals = span_totals(tracer.spans)
    op = totals.pop("op")
    per_layer = layer_metrics(totals, tracer.counts)
    per_layer["trace.unattributed_s"] = op["self_s"]
    per_layer["trace.overhead_frac"] = median(traced_s) / axis["serial"] - 1.0
    for engine in ("serial",) + ENGINE_AXIS:
        per_layer[f"engine_axis.{engine}_route_s"] = axis.get(engine, 0.0)
    report = {
        "workload": name,
        "setup_s": setup_s,
        "op": "minimum-channel-width sweep" if wl.width is None
        else f"PathFinder route at W={wl.width}",
        "ops": TRACE_REPEATS,
        "op_s": op["total_s"],
        "traced_op_s": median(traced_s),
        "untraced_op_s": axis["serial"],
        "spans": totals,
        "counts": dict(tracer.counts),
        "engine_axis_s": axis if len(axis) > 1 else None,
        "signature": sig,
    }
    return per_layer, report


def _setup_main(name, scale, seed):
    """Import the routing stack, synthesize and lint the circuit."""
    sys.path.insert(0, str(SRC))
    from repro.router.channel_width import estimate_lower_bound
    from repro.validate import validate_circuit

    wl = WORKLOADS[name]
    circuit = make_circuit(wl, scale == "tiny", int(seed))
    width = wl.width or estimate_lower_bound(circuit)
    arch = family_builder(wl)(circuit.rows, circuit.cols, width)
    validate_circuit(circuit, arch).raise_if_errors()


if __name__ == "__main__":
    _setup_main(*sys.argv[1:4])
