"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main workflows so the paper's experiments
can be driven without writing Python:

* ``route``  — route a (synthetic) benchmark circuit, print the summary
  and optionally the occupancy map / SVG;
* ``width``  — minimum-channel-width search for one circuit and one or
  more algorithms;
* ``table1`` — regenerate Table 1 at a chosen trial count;
* ``net``    — route a single random net on a congested grid with every
  tree algorithm (the quickstart, parameterized);
* ``circuits`` — list the built-in benchmark circuit specs.
* ``report`` — run the fast drivers and emit a markdown report.
* ``validate`` — lint circuit files / verify result files without
  routing anything; validation findings exit with code 4.
* ``jobs``   — the durable routing job service: ``submit`` / ``status``
  / ``list`` / ``result`` / ``cancel`` / ``serve`` against a crash-safe
  job store (see ``docs/service.md``); admission refusals exit with
  code 5.  ``serve --http HOST:PORT`` additionally exposes the HTTP
  API, and every other verb accepts ``--server URL`` to drive such a
  server over the wire instead of opening the store directly.

``route``, ``width`` and ``report`` share one engine option group —
``--engine/--seed/--passes/--trace`` — so the routing engine and its
JSON trace are driven the same way everywhere (``route``/``width``
*write* the trace; ``report`` *renders* one).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from .analysis import run_table1
from .analysis.tables import render_table
from .engine import ENGINES
from .errors import (
    AdmissionError,
    EngineTimeoutError,
    ReproError,
    UnroutableError,
    ValidationError,
)
from .graph.search import SEARCH_BACKENDS
from .fpga import (
    XC3000_CIRCUITS,
    XC4000_CIRCUITS,
    circuit_spec,
    scaled_spec,
    synthesize_circuit,
    xc3000,
    xc4000,
)
from .router import ALGORITHMS, MODES, RouterConfig, minimum_channel_width


def _family(spec):
    return xc3000 if spec.family == "xc3000" else xc4000


def _add_engine_options(
    parser, *, seed_default: int, trace_help: str, checkpointing: bool = False
) -> None:
    """The shared ``--engine/--seed/--passes/--trace`` option group.

    ``checkpointing`` adds ``--checkpoint/--resume`` for the commands
    that actually run routing sessions.
    """
    group = parser.add_argument_group("engine options")
    group.add_argument(
        "--engine", choices=ENGINES, default="serial",
        help="routing engine (serial is the bit-exact reference)",
    )
    group.add_argument(
        "--seed", type=int, default=seed_default,
        help="deterministic RNG seed",
    )
    group.add_argument(
        "--passes", type=int, default=None, metavar="N",
        help="move-to-front pass budget (RouterConfig.max_passes)",
    )
    group.add_argument(
        "--search", choices=SEARCH_BACKENDS, default="astar",
        help=(
            "negotiated search (RouterConfig.search), --mode negotiate "
            "only: A* is faster, plain Dijkstra can negotiate different "
            "trees (see docs/pathfinder.md)"
        ),
    )
    group.add_argument(
        "--mode", choices=MODES, default="paper",
        help=(
            "routing strategy (RouterConfig.mode): the paper's "
            "rip-up-and-retry loop, or PathFinder negotiated "
            "congestion (see docs/pathfinder.md)"
        ),
    )
    group.add_argument(
        "--timing", action="store_true",
        help=(
            "timing-driven negotiation: blend Elmore slack ratios "
            "into the negotiated costs (requires --mode negotiate)"
        ),
    )
    group.add_argument("--trace", metavar="PATH", help=trace_help)
    if checkpointing:
        group.add_argument(
            "--checkpoint", metavar="PATH",
            help=(
                "snapshot the negotiation state to PATH after every "
                "committed pass (removed on success)"
            ),
        )
        group.add_argument(
            "--resume", metavar="PATH",
            help=(
                "continue from a checkpoint written by an interrupted "
                "run; the result is bit-identical to an uninterrupted one"
            ),
        )


def _check_trace_destination(path) -> None:
    """Reject an unwritable ``--trace`` PATH before routing, not after."""
    if not path:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ReproError(
            f"--trace {path}: directory {directory!r} does not exist"
        )


def _config(args, algorithm: str) -> RouterConfig:
    """RouterConfig from the shared option group + an algorithm."""
    extra = {}
    if getattr(args, "passes", None) is not None:
        extra["max_passes"] = args.passes
    search = getattr(args, "search", None)
    if search is not None:
        extra["search"] = search
    mode = getattr(args, "mode", None)
    if mode is not None:
        extra["mode"] = mode
    if getattr(args, "timing", False):
        extra["timing"] = True
    return RouterConfig(algorithm=algorithm, **extra)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Alexander & Robins (DAC 1995): "
            "performance-driven FPGA routing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser(
        "route", help="route a benchmark circuit at minimum channel width"
    )
    p_route.add_argument(
        "circuit", nargs="?", default="term1",
        help="benchmark name, e.g. busc, term1 (default: term1)",
    )
    p_route.add_argument("--algorithm", default="ikmb", choices=ALGORITHMS)
    p_route.add_argument("--fraction", type=float, default=0.25,
                         help="circuit scale (1.0 = published size)")
    p_route.add_argument("--map", action="store_true",
                         help="print the channel-occupancy map")
    p_route.add_argument("--svg", metavar="PATH",
                         help="write an SVG rendering to PATH")
    p_route.add_argument("--save-circuit", metavar="PATH",
                         help="write the synthesized circuit as JSON")
    p_route.add_argument("--save-result", metavar="PATH",
                         help="write the routing result as JSON")
    _add_engine_options(
        p_route, seed_default=1,
        trace_help="write the engine's JSON trace to PATH",
        checkpointing=True,
    )

    p_width = sub.add_parser(
        "width", help="compare algorithms' minimum channel widths"
    )
    p_width.add_argument("circuit")
    p_width.add_argument(
        "--algorithms", nargs="+", default=["ikmb", "two_pin"],
        choices=ALGORITHMS,
    )
    p_width.add_argument("--fraction", type=float, default=0.25)
    _add_engine_options(
        p_width, seed_default=1,
        trace_help=(
            "write the engine's JSON trace to PATH (with several "
            "algorithms, one file per algorithm: PATH.<algo>.json)"
        ),
        checkpointing=True,
    )

    p_t1 = sub.add_parser("table1", help="regenerate Table 1")
    p_t1.add_argument("--trials", type=int, default=5)
    p_t1.add_argument("--grid", type=int, default=20)
    p_t1.add_argument("--seed", type=int, default=1995)
    p_t1.add_argument("--no-published", action="store_true",
                      help="omit the published reference columns")

    p_net = sub.add_parser(
        "net", help="route one random net with every tree algorithm"
    )
    p_net.add_argument("--pins", type=int, default=5)
    p_net.add_argument("--grid", type=int, default=20)
    p_net.add_argument("--congestion", type=int, default=10,
                       help="number of pre-routed nets")
    p_net.add_argument("--seed", type=int, default=7)

    sub.add_parser("circuits", help="list built-in benchmark circuits")

    p_rep = sub.add_parser(
        "report", help="run the fast drivers and emit a markdown report"
    )
    p_rep.add_argument("--trials", type=int, default=3,
                       help="Table 1 trials per cell")
    p_rep.add_argument("--output", metavar="PATH",
                       help="write the report to PATH instead of stdout")
    _add_engine_options(
        p_rep, seed_default=1995,
        trace_help=(
            "render an engine trace (written by route/width --trace) "
            "as a report section"
        ),
    )

    p_val = sub.add_parser(
        "validate",
        help="lint a circuit file or verify a result file (exit 4 on "
             "findings)",
    )
    p_val.add_argument(
        "file",
        help="a circuit or result JSON file (format auto-detected)",
    )
    p_val.add_argument(
        "--circuit", metavar="PATH",
        help="the circuit a result file was routed from (required to "
             "verify a result)",
    )
    p_val.add_argument(
        "--family", choices=["xc3000", "xc4000"], default="xc3000",
        help="architecture family for device-aware checks",
    )
    p_val.add_argument(
        "--width", type=int, default=None, metavar="W",
        help="channel width for device-aware circuit lint (results "
             "carry their own width)",
    )
    p_val.add_argument(
        "--level", choices=["static", "full"], default="full",
        help="result verification depth: static checks only, or the "
             "full shortest-path replay (default)",
    )
    p_val.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors (exit 4 on any finding)",
    )

    p_jobs = sub.add_parser(
        "jobs",
        help="durable routing job service (submit/status/result/cancel/"
             "serve)",
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)

    def _root_arg(p):
        p.add_argument(
            "--root", default=".repro-jobs", metavar="DIR",
            help="job store directory (default: .repro-jobs)",
        )
        p.add_argument(
            "--server", default=None, metavar="URL",
            help="talk to a running `repro jobs serve --http` server "
                 "at URL instead of opening --root directly",
        )

    j_submit = jobs_sub.add_parser(
        "submit", help="enqueue a routing job (prints its id)"
    )
    j_submit.add_argument(
        "circuit",
        help="a circuit JSON file, or a benchmark name to synthesize",
    )
    _root_arg(j_submit)
    j_submit.add_argument("--algorithm", default="ikmb", choices=ALGORITHMS)
    j_submit.add_argument(
        "--family", choices=["xc3000", "xc4000"], default=None,
        help="architecture family (default: the benchmark's, else xc3000)",
    )
    j_submit.add_argument(
        "--width", type=int, default=None, metavar="W",
        help="route at exactly this channel width (default: sweep for "
             "the minimum)",
    )
    j_submit.add_argument(
        "--w-max", type=int, default=40, metavar="W",
        help="sweep upper bound when --width is not given",
    )
    j_submit.add_argument("--tenant", default="default")
    j_submit.add_argument(
        "--priority", type=int, default=None, metavar="P",
        help="claim priority (higher runs first; default: the tenant's "
             "configured priority, else 0)",
    )
    j_submit.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="per-pass wall-clock budget (RouterConfig.pass_timeout_s)",
    )
    j_submit.add_argument(
        "--passes", type=int, default=None, metavar="N",
        help="move-to-front pass budget (RouterConfig.max_passes)",
    )
    j_submit.add_argument(
        "--fraction", type=float, default=0.25,
        help="scale for synthesized benchmarks (1.0 = published size)",
    )
    j_submit.add_argument(
        "--seed", type=int, default=1,
        help="synthesis seed for benchmark circuits",
    )

    j_status = jobs_sub.add_parser(
        "status", help="show one job's record, or all jobs"
    )
    j_status.add_argument("job", nargs="?", default=None)
    _root_arg(j_status)
    j_status.add_argument(
        "--json", action="store_true",
        help="print the full record(s) as JSON (stable keys, same "
             "payload as the HTTP API)",
    )

    j_list = jobs_sub.add_parser(
        "list", help="list every job record, in submission order"
    )
    _root_arg(j_list)
    j_list.add_argument(
        "--json", action="store_true",
        help="print the records as a JSON array (stable keys, same "
             "payload as GET /v1/jobs)",
    )

    j_result = jobs_sub.add_parser(
        "result", help="print (and optionally save) a done job's result"
    )
    j_result.add_argument("job")
    _root_arg(j_result)
    j_result.add_argument(
        "--save", metavar="PATH", help="write the result JSON to PATH"
    )

    j_cancel = jobs_sub.add_parser("cancel", help="cancel a job")
    j_cancel.add_argument("job")
    _root_arg(j_cancel)

    j_serve = jobs_sub.add_parser(
        "serve", help="run workers against the job store"
    )
    _root_arg(j_serve)
    j_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent worker threads",
    )
    j_serve.add_argument(
        "--engine", choices=ENGINES, default="serial",
        help="routing engine each job runs on unless it requested one",
    )
    j_serve.add_argument(
        "--exit-when-idle", action="store_true",
        help="stop once the queue is drained (batch/CI mode)",
    )
    j_serve.add_argument(
        "--stale-after-s", type=float, default=None, metavar="S",
        help="heartbeat age before a running job is taken over",
    )
    j_serve.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="also expose the HTTP API (submit/status/result/cancel/"
             "events) on this address; PORT 0 picks a free port",
    )
    j_serve.add_argument(
        "--max-result-bytes", type=int, default=None, metavar="N",
        help="evict least-recently-served cached results once their "
             "summed size exceeds N bytes",
    )
    j_serve.add_argument(
        "--max-results", type=int, default=None, metavar="N",
        help="evict least-recently-served cached results beyond N",
    )
    j_serve.add_argument(
        "--tenant-priority", action="append", default=[],
        metavar="TENANT=P",
        help="claim priority for a tenant's jobs (repeatable; higher "
             "runs first)",
    )
    governance = j_serve.add_argument_group(
        "overload protection (with --http)"
    )
    governance.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help="concurrent TCP connections before 503 + Retry-After",
    )
    governance.add_argument(
        "--max-sse-subscribers", type=int, default=None, metavar="N",
        help="concurrent SSE subscribers before 429 SSE_LIMIT",
    )
    governance.add_argument(
        "--max-inflight-per-tenant", type=int, default=None,
        metavar="N",
        help="in-flight submits per tenant before 429 INFLIGHT_LIMIT",
    )
    governance.add_argument(
        "--queue-shed-fraction", type=float, default=None,
        metavar="F",
        help="degrade once queue depth exceeds this fraction of the "
             "admission cap (0..1)",
    )
    governance.add_argument(
        "--shed-priority-floor", type=int, default=None, metavar="P",
        help="while degraded, shed submits below this priority with "
             "429 + Retry-After",
    )
    return parser


def _format_nets(names, limit: int = 10) -> str:
    """Failed-net names for error output — names, not a bare count."""
    names = list(names)
    shown = ", ".join(str(n) for n in names[:limit])
    extra = len(names) - limit
    return shown + (f", ... +{extra} more" if extra > 0 else "")


def _print_resilience_events(trace_path) -> None:
    """Surface engine degradations/rebuilds/timeouts from a trace."""
    from .engine import load_trace

    try:
        doc = load_trace(trace_path)
    except (OSError, ValueError):
        return
    for event in doc.get("events", []):
        kind = event.get("type")
        if kind == "degraded":
            print(
                f"warning: engine degraded {event.get('from')} -> "
                f"{event.get('to')} during pass {event.get('pass')} "
                f"({event.get('error')})"
            )
        elif kind == "pool_rebuilt":
            print(
                f"warning: worker pool rebuilt during pass "
                f"{event.get('pass')} ({event.get('error')})"
            )
        elif kind == "verify_violation":
            codes = ", ".join(event.get("codes", []))
            print(
                f"warning: net {event.get('net')!r} failed verification "
                f"during pass {event.get('pass')} ({codes})"
            )
        elif kind == "repair" and event.get("outcome") == "quarantined":
            print(
                f"warning: net {event.get('net')!r} quarantined after "
                f"{event.get('attempt')} repair attempt(s) in pass "
                f"{event.get('pass')}"
            )
    retries = doc.get("totals", {}).get("retries", 0)
    if retries:
        print(f"warning: {retries} task dispatch(es) were retried")
    verify = doc.get("totals", {}).get("verify")
    if verify and verify.get("repaired"):
        print(
            f"warning: {verify['repaired']} net(s) were repaired after "
            f"failing pass verification"
        )
    final = doc.get("engine_final")
    if final and final != doc.get("engine"):
        print(f"warning: run finished on the {final!r} engine")


def _cmd_route(args) -> int:
    _check_trace_destination(args.trace)
    spec = scaled_spec(circuit_spec(args.circuit), args.fraction)
    circuit = synthesize_circuit(spec, seed=args.seed)
    print(f"circuit: {circuit.stats()}")
    width, result = minimum_channel_width(
        circuit,
        _family(spec),
        _config(args, args.algorithm),
        engine=args.engine,
        trace=args.trace,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(
        f"complete routing at W={width} "
        f"(engine={args.engine}, passes={result.passes_used}, "
        f"wirelength={result.total_wirelength:.1f})"
    )
    if args.trace:
        print(f"trace written to {args.trace}")
        _print_resilience_events(args.trace)
    family = _family(spec)
    arch = family(circuit.rows, circuit.cols, width)
    if args.map:
        from .viz import render_occupancy

        print()
        print(render_occupancy(result, arch))
    if args.svg:
        from .viz import save_svg

        save_svg(args.svg, result, arch)
        print(f"SVG written to {args.svg}")
    if args.save_circuit:
        from .io import save_circuit

        save_circuit(circuit, args.save_circuit)
        print(f"circuit written to {args.save_circuit}")
    if args.save_result:
        from .io import save_result

        save_result(result, args.save_result)
        print(f"result written to {args.save_result}")
    return 0


def _cmd_width(args) -> int:
    _check_trace_destination(args.trace)
    spec = scaled_spec(circuit_spec(args.circuit), args.fraction)
    circuit = synthesize_circuit(spec, seed=args.seed)
    rows = []
    algorithms = args.algorithms
    if getattr(args, "mode", None) == "negotiate":
        # negotiation replaces the per-net algorithm entirely — sweeping
        # the algorithm list would rerun the identical negotiation under
        # misleading labels
        algorithms = ["negotiate"]
    for algo in algorithms:
        trace = args.trace
        checkpoint = args.checkpoint
        resume = args.resume
        if len(args.algorithms) > 1:
            # per-algorithm files: the checkpoint fingerprint binds to
            # one config, so algorithms must not share a file
            if trace:
                trace = f"{trace}.{algo}.json"
            if checkpoint:
                checkpoint = f"{checkpoint}.{algo}.json"
            if resume:
                resume = f"{resume}.{algo}.json"
        # in negotiate mode the row label is the mode; the config still
        # needs a valid (ignored) algorithm field
        cfg_algo = args.algorithms[0] if algo == "negotiate" else algo
        width, result = minimum_channel_width(
            circuit,
            _family(spec),
            _config(args, cfg_algo),
            engine=args.engine,
            trace=trace,
            checkpoint=checkpoint,
            resume=resume,
        )
        rows.append(
            [algo, width, result.passes_used,
             round(result.total_wirelength, 1)]
        )
    print(
        render_table(
            ["algorithm", "min W", "passes", "wirelength"],
            rows,
            title=f"Minimum channel width — {spec.name}",
        )
    )
    return 0


def _cmd_table1(args) -> int:
    result = run_table1(
        trials=args.trials, grid_size=args.grid, seed=args.seed
    )
    print(result.render(published=not args.no_published))
    return 0


def _cmd_net(args) -> int:
    from .analysis import congested_grid
    from .analysis.experiments import TABLE1_ALGORITHMS, _ALGO_FUNCS
    from .graph import ShortestPathCache, dijkstra, random_net

    rng = random.Random(args.seed)
    graph, mean_w = congested_grid(args.grid, args.congestion, rng)
    net = random_net(graph, args.pins, rng)
    cache = ShortestPathCache(graph)
    dist, _ = dijkstra(graph, net.source)
    opt = max(dist[s] for s in net.sinks)
    rows = []
    for name in TABLE1_ALGORITHMS:
        tree = _ALGO_FUNCS[name](graph, net, cache)
        rows.append(
            [name, round(tree.cost, 2), round(tree.max_pathlength, 2)]
        )
    print(
        render_table(
            ["algorithm", "wirelength", "max pathlength"],
            rows,
            title=(
                f"{args.pins}-pin net on a {args.grid}x{args.grid} grid "
                f"(w̄={mean_w:.2f}, optimal max path {opt:.2f})"
            ),
        )
    )
    return 0


def _cmd_circuits(args) -> int:
    rows = []
    for spec in XC3000_CIRCUITS + XC4000_CIRCUITS:
        rows.append(
            [
                spec.name,
                spec.family,
                f"{spec.cols}x{spec.rows}",
                spec.num_nets,
                spec.published.get("paper"),
            ]
        )
    print(
        render_table(
            ["name", "family", "size", "nets", "paper W"],
            rows,
            title="Built-in benchmark circuit specifications",
        )
    )
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import generate_report

    if args.trace:
        # validate up front: a missing or non-trace file should fail in
        # milliseconds, not after the report drivers have run
        from .engine import load_trace

        try:
            load_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: --trace {args.trace}: {exc}", file=sys.stderr)
            return 1
    text = generate_report(
        table1_trials=args.trials, seed=args.seed, trace=args.trace
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_validate(args) -> int:
    import json

    from .io import circuit_from_dict, load_circuit, result_from_dict
    from .validate import (
        merge_reports,
        validate_architecture,
        validate_circuit,
        verify_result,
    )

    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            print(f"error: {args.file}: malformed JSON ({exc})",
                  file=sys.stderr)
            return 4
    fmt = data.get("format") if isinstance(data, dict) else None
    family = xc3000 if args.family == "xc3000" else xc4000

    if fmt == "repro-circuit":
        circuit = circuit_from_dict(data, source=args.file)
        arch = None
        if args.width is not None:
            arch = family(circuit.rows, circuit.cols, args.width)
        report = validate_circuit(circuit, arch)
        if arch is not None:
            report = merge_reports(
                report.subject, [report, validate_architecture(arch)]
            )
    elif fmt == "repro-result":
        if not args.circuit:
            print(
                "error: verifying a result file requires --circuit "
                "(the circuit it was routed from)",
                file=sys.stderr,
            )
            return 2
        result = result_from_dict(data, source=args.file)
        circuit = load_circuit(args.circuit)
        arch = family(circuit.rows, circuit.cols, result.channel_width)
        report = verify_result(result, circuit, arch, level=args.level)
    else:
        print(
            f"error: {args.file}: not a repro circuit or result file "
            f"(format={fmt!r})",
            file=sys.stderr,
        )
        return 4

    text = report.render()
    failing = report.errors or (args.strict and report.diagnostics)
    if failing:
        print(text, file=sys.stderr)
        return 4
    print(text)
    return 0


def _jobs_circuit(args):
    """(circuit, family) from a JSON file path or a benchmark name."""
    if os.path.exists(args.circuit):
        from .io import load_circuit

        return load_circuit(args.circuit), args.family or "xc3000"
    spec = scaled_spec(circuit_spec(args.circuit), args.fraction)
    return (
        synthesize_circuit(spec, seed=args.seed),
        args.family or spec.family,
    )


def _print_job(record: dict) -> None:
    fields = [
        "state", "tenant", "attempts", "resumes", "channel_width",
        "passes_used", "total_wirelength", "verified", "error",
        "deduped_from",
    ]
    detail = ", ".join(
        f"{k}={record[k]}" for k in fields if record.get(k) not in
        (None, 0, False, [], "")
    )
    print(f"{record['job_id']}: {detail}")


def _jobs_backend(args):
    """The thing the verb talks to: a remote client or a local service.

    With ``--server`` every verb becomes a pure HTTP exchange — the
    process never opens (or even sees) the job store directory.
    Locally, inspection verbs open read-only and submit/cancel append
    under the journal's inter-process lock without running recovery —
    a live ``repro jobs serve`` owns the store, and requeueing the jobs
    it is actively routing would cause duplicate execution.
    """
    if getattr(args, "server", None):
        from .service import ServiceClient

        return ServiceClient(args.server)
    from .service import RoutingService

    if args.jobs_command in ("status", "list", "result"):
        return RoutingService(args.root, readonly=True)
    return RoutingService(args.root, recover=False)


def _cmd_jobs(args) -> int:
    if args.jobs_command == "serve":
        return _cmd_jobs_serve(args)
    service = _jobs_backend(args)

    if args.jobs_command == "submit":
        circuit, family = _jobs_circuit(args)
        extra = {}
        if args.passes is not None:
            extra["max_passes"] = args.passes
        config = RouterConfig(algorithm=args.algorithm, **extra)
        record = service.submit(
            circuit,
            config=config,
            family=family,
            width=args.width,
            w_max=args.w_max,
            tenant=args.tenant,
            priority=args.priority,
            deadline_s=args.deadline_s,
        )
        if not isinstance(record, dict):
            record = record.to_dict()
        _print_job(record)
        return 0

    if args.jobs_command in ("status", "list"):
        job = getattr(args, "job", None)
        if job is None:
            records = service.jobs()
            if args.json:
                print(json.dumps(records, indent=2, sort_keys=True))
            elif not records:
                print("no jobs")
            else:
                for record in records:
                    _print_job(record)
        else:
            record = service.status(job)
            if args.json:
                print(json.dumps(record, indent=2, sort_keys=True))
            else:
                _print_job(record)
        return 0

    if args.jobs_command == "result":
        result = service.result(args.job)
        print(
            f"{args.job}: complete routing at W={result.channel_width} "
            f"(passes={result.passes_used}, "
            f"wirelength={result.total_wirelength:.1f})"
        )
        if args.save:
            from .io import save_result

            save_result(result, args.save)
            print(f"result written to {args.save}")
        return 0

    assert args.jobs_command == "cancel"
    record = service.cancel(args.job)
    if not isinstance(record, dict):
        record = record.to_dict()
    _print_job(record)
    return 0


def _parse_tenant_priorities(pairs) -> dict:
    priorities = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        try:
            if not (sep and name):
                raise ValueError
            priorities[name] = int(value)
        except ValueError:
            raise ValidationError(
                f"--tenant-priority wants TENANT=P, got {pair!r}"
            ) from None
    return priorities


def _cmd_jobs_serve(args) -> int:
    # serve: fault points must *hard-kill* this process (the crash
    # harness SIGKILL-equivalent), not raise a catchable exception
    from .engine.faults import HARD_EXIT_ENV
    from .service import (
        AdmissionPolicy,
        DEFAULT_STALE_AFTER_S,
        EvictionPolicy,
        OverloadPolicy,
        RoutingService,
        ServerLimits,
        serve_http,
    )

    eviction = None
    if args.max_result_bytes is not None or args.max_results is not None:
        eviction = EvictionPolicy(
            max_result_bytes=args.max_result_bytes,
            max_results=args.max_results,
        )
    policy = None
    priorities = _parse_tenant_priorities(args.tenant_priority)
    if priorities:
        policy = AdmissionPolicy(tenant_priorities=priorities)

    os.environ[HARD_EXIT_ENV] = "1"
    service = RoutingService(
        args.root,
        engine=args.engine,
        policy=policy,
        stale_after_s=args.stale_after_s or DEFAULT_STALE_AFTER_S,
        eviction=eviction,
    )
    recovered = {k: v for k, v in service.recovered.items() if v}
    if recovered:
        print(f"recovery: {recovered}", flush=True)

    if args.http:
        if args.exit_when_idle:
            print(
                "error: --http serves until signalled; "
                "--exit-when-idle does not apply",
                file=sys.stderr,
            )
            return 2
        host, _, port = args.http.rpartition(":")
        try:
            port = int(port)
        except ValueError:
            print(
                f"error: --http wants HOST:PORT, got {args.http!r}",
                file=sys.stderr,
            )
            return 2
        limit_overrides = {
            name: value
            for name, value in (
                ("max_connections", args.max_connections),
                ("max_sse_subscribers", args.max_sse_subscribers),
                (
                    "max_inflight_per_tenant",
                    args.max_inflight_per_tenant,
                ),
            )
            if value is not None
        }
        overload_overrides = {
            name: value
            for name, value in (
                ("queue_shed_fraction", args.queue_shed_fraction),
                ("shed_priority_floor", args.shed_priority_floor),
            )
            if value is not None
        }
        processed = serve_http(
            service, host or "127.0.0.1", port, workers=args.workers,
            limits=ServerLimits(**limit_overrides),
            overload=OverloadPolicy(**overload_overrides),
        )
    else:
        processed = service.serve(
            workers=args.workers, exit_when_idle=args.exit_when_idle
        )
    print(f"served {processed} job(s)")
    return 0


_COMMANDS = {
    "route": _cmd_route,
    "width": _cmd_width,
    "table1": _cmd_table1,
    "net": _cmd_net,
    "circuits": _cmd_circuits,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "jobs": _cmd_jobs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnroutableError as exc:
        # exit 3: the run finished but the circuit did not route —
        # distinct from usage errors (2) and internal failures (1)
        print(f"error: {exc}", file=sys.stderr)
        if exc.failed_nets:
            print(
                f"  failed nets: {_format_nets(exc.failed_nets)}",
                file=sys.stderr,
            )
        return 3
    except EngineTimeoutError as exc:
        print(f"error: {exc} (kind={exc.kind})", file=sys.stderr)
        if exc.partial:
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(exc.partial.items())
            )
            print(f"  partial progress: {detail}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        # exit 4: the inputs or the result failed validation — the run
        # never became a routing attempt (contrast with unroutable, 3)
        print(f"error: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is not None and len(report.diagnostics) > 1:
            print(report.render(), file=sys.stderr)
        return 4
    except AdmissionError as exc:
        # exit 5: the service refused to enqueue (backpressure) — the
        # request itself is fine, retry later
        print(f"error: {exc} [{exc.code}]", file=sys.stderr)
        return 5
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: unknown circuit {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away — exit quietly
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except OSError as exc:
        # unwritable --trace/--svg/--save-* destinations and the like
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
