"""The routing session: batched, instrumented move-to-front routing.

:class:`RoutingSession` is the engine's front door.  It runs the
paper's move-to-front loop, the only one in the package — net ordering,
move-to-front re-queueing, stall detection, pass budget — with
:class:`~repro.router.router.FPGARouter` routing each net, and adds,
around that loop:

* **batching** — each pass's queue is split into congestion-independent
  batches (:mod:`repro.engine.batching`);
* **pluggable execution** — ``serial`` routes nets one at a time (the
  reference loop); ``thread`` / ``process`` route each multi-net batch
  *speculatively* against per-net snapshots of the routing graph, then
  commit results in queue order, re-routing serially whenever a
  speculative route conflicts with resources another net just consumed;
* **fault tolerance** — crashed tasks are retried with bounded,
  deterministic backoff (:mod:`repro.engine.retry`); a broken worker
  pool is rebuilt once and then degraded ``process → thread → serial``
  (:class:`~repro.engine.executors.ExecutorSupervisor`), so transient
  infrastructure failure never invalidates a run;
* **deadlines** — ``RouterConfig.pass_timeout_s`` bounds each pass,
  ``route_timeout_s`` / ``max_relaxations`` bound each net's search;
  exceeding a budget aborts cleanly with
  :class:`~repro.errors.EngineTimeoutError` carrying partial stats;
* **checkpoint/resume** — after every committed pass the negotiation
  state can be snapshotted (:mod:`repro.engine.checkpoint`); resuming
  continues bit-identically to an uninterrupted run;
* **one shared** :class:`ShortestPathCache` across nets and passes,
  with hit/miss/invalidation accounting, instead of a throwaway cache
  per net;
* **observability** — per-pass timings, Dijkstra operation counters,
  cache statistics, graph mutation counts, congestion histograms,
  resilience events, and a JSON trace
  (:mod:`repro.engine.instrumentation`).

Speculation is always *safe*: a speculative tree is committed only if
every one of its edges is still present in the live graph, so routed
nets remain electrically disjoint under every engine.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import (
    CheckpointError,
    EngineTimeoutError,
    RoutingError,
    UnroutableError,
    VerificationError,
)
from ..fpga.architecture import Architecture
from ..fpga.netlist import PlacedCircuit, PlacedNet
from ..fpga.routing_graph import RoutingResourceGraph
from ..graph.core import Graph
from ..graph.flat import FlatGraph
from ..graph.shortest_paths import (
    DijkstraCounters,
    ShortestPathCache,
    set_dijkstra_budget,
    set_dijkstra_counters,
)
from ..router.config import RouterConfig
from ..router.congestion import CongestionModel
from ..router.negotiation import (
    NEGOTIATE_ALGORITHM,
    NegotiationState,
    build_route,
    route_connections,
)
from ..router.result import NetRoute, RoutingResult, measure_route
from ..router.router import FPGARouter
from ..router.timing import SlackTable
from ..validate import check_net_route, validate_circuit, verify_result
from .batching import DEFAULT_BATCH_MARGIN, partition_batches
from .checkpoint import (
    arch_fingerprint,
    check_compatible,
    circuit_fingerprint,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from .executors import ENGINES, ExecutorSupervisor, default_workers
from .faults import FaultPlan
from .instrumentation import (
    PassRecord,
    TraceRecorder,
    congestion_histogram,
)
from .retry import RetryPolicy, map_with_recovery
from .worker import (
    INFEASIBLE,
    NegotiationTask,
    NetTask,
    make_budget,
    run_negotiation_task,
    run_net_task,
)


class RoutingSession:
    """Routes placed circuits through a chosen execution engine.

    Parameters
    ----------
    arch:
        Target architecture instance (fixes the channel width).
    config:
        Router configuration; defaults to :class:`RouterConfig`.
    engine:
        ``"serial"`` (default), ``"thread"`` or ``"process"``.  The
        serial engine is the reference loop.
    max_workers:
        Pool size for the parallel engines (default: a small multiple
        of the CPU count).
    batch_margin:
        Bounding-box inflation, in channels, used to declare two nets
        congestion-independent (see :mod:`repro.engine.batching`).
    retry_policy:
        Backoff schedule for crashed tasks (:class:`RetryPolicy`).
    faults:
        Scripted failure schedule for the fault-injection harness;
        defaults to whatever ``REPRO_FAULTS`` describes (usually
        nothing).

    A session may route several circuits; each :meth:`route` call
    produces a fresh :attr:`trace`.  Sessions are context managers —
    ``with RoutingSession(...) as s: ...`` guarantees worker pools are
    released even when callers bypass :meth:`route`'s own cleanup.
    """

    def __init__(
        self,
        arch: Architecture,
        config: Optional[RouterConfig] = None,
        *,
        engine: str = "serial",
        max_workers: Optional[int] = None,
        batch_margin: int = DEFAULT_BATCH_MARGIN,
        retry_policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        on_trace_event=None,
    ):
        if engine not in ENGINES:
            raise RoutingError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.arch = arch
        self.config = config or RouterConfig()
        self.engine = engine
        self.max_workers = max_workers
        self.batch_margin = batch_margin
        self.retry_policy = retry_policy or RetryPolicy()
        self.faults = faults if faults is not None else FaultPlan.from_env()
        #: live sink for trace events/passes as they are recorded (the
        #: job service streams these into per-job logs); None disables
        self.on_trace_event = on_trace_event
        self._router = FPGARouter(arch, self.config)
        self._supervisor: Optional[ExecutorSupervisor] = None
        self._recorder: Optional[TraceRecorder] = None
        self._current_pass = 0
        self._task_counter = 0
        #: trace of the most recent route() call
        self.trace: Optional[TraceRecorder] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release any live worker pool (idempotent)."""
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None

    def __enter__(self) -> "RoutingSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def route(
        self,
        circuit: PlacedCircuit,
        *,
        checkpoint: Optional[str] = None,
        resume: Optional[str] = None,
    ) -> RoutingResult:
        """Route every net of ``circuit``; :class:`UnroutableError` when
        the move-to-front pass budget is exhausted.

        The move-to-front schedule: every pass restarts from a
        pristine graph with failed nets moved to the front, and three
        consecutive non-improving passes abort early.

        ``checkpoint`` names a file to (re)write after every committed
        pass — it is removed again on successful completion, so a file
        left behind always marks an interrupted or unroutable run.
        ``resume`` names a checkpoint written by a compatible earlier
        run; the session continues at its recorded pass and produces
        results bit-identical to an uninterrupted run.
        """
        circuit.validate(self.arch.pins_per_block)
        # lint after the legacy validation (which owns the historical
        # NetError behaviour): catches what it cannot — duplicate net
        # names, a circuit larger than the device — with structured
        # diagnostics.  Capacity findings are warnings and never block
        # here, so the channel-width sweep keeps probing small widths.
        validate_circuit(circuit, self.arch).raise_if_errors()
        cfg = self.config
        recorder = TraceRecorder(
            circuit=circuit.name,
            engine=self.engine,
            architecture={
                "name": self.arch.name,
                "rows": self.arch.rows,
                "cols": self.arch.cols,
                "channel_width": self.arch.channel_width,
            },
            config={
                "algorithm": cfg.algorithm,
                "critical_algorithm": cfg.critical_algorithm,
                "max_passes": cfg.max_passes,
                "order": cfg.order,
                "congestion": cfg.congestion,
                "batch_margin": self.batch_margin,
                "max_workers": self.max_workers,
                "pass_timeout_s": cfg.pass_timeout_s,
                "route_timeout_s": cfg.route_timeout_s,
                "max_relaxations": cfg.max_relaxations,
                "search": cfg.search,
                "verify": cfg.verify,
                "mode": cfg.mode,
                "timing": cfg.timing,
            },
        )
        recorder.listener = self.on_trace_event
        recorder.channel_width = self.arch.channel_width
        self.trace = recorder
        self._recorder = recorder
        self._current_pass = 0
        self._task_counter = 0

        counters = DijkstraCounters()
        previous = set_dijkstra_counters(counters)
        try:
            if self.engine != "serial":
                self._supervisor = ExecutorSupervisor(
                    self.engine,
                    self.max_workers,
                    on_event=self._record_dispatch_event,
                )
            if cfg.mode == "negotiate":
                return self._negotiate_pathfinder(
                    circuit, recorder, counters, checkpoint, resume
                )
            return self._negotiate(
                circuit, recorder, counters, checkpoint, resume
            )
        except EngineTimeoutError as exc:
            exc.partial.setdefault("circuit", circuit.name)
            exc.partial.setdefault(
                "passes_completed", len(recorder.pass_dicts())
            )
            recorder.record_event(
                {
                    "type": "timeout",
                    "pass": self._current_pass,
                    "kind": exc.kind,
                    "error": str(exc),
                }
            )
            recorder.finish("timeout")
            raise
        finally:
            set_dijkstra_counters(previous)
            recorder.engine_final = (
                self._supervisor.current if self._supervisor else self.engine
            )
            self._recorder = None
            self.close()

    def write_trace(self, destination) -> None:
        """Write the most recent trace as JSON (path or open file)."""
        if self.trace is None:
            raise RoutingError("no trace recorded yet; call route() first")
        self.trace.write(destination)

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def _load_resume_state(
        self, resume: str, circuit: PlacedCircuit
    ) -> Dict[str, object]:
        state = load_checkpoint(resume)
        check_compatible(
            state,
            circuit=circuit,
            config=self.config,
            arch=self.arch,
            path=resume,
        )
        if state.get("outcome") != "in_progress":
            raise CheckpointError(
                f"{resume}: checkpoint records a finished "
                f"{state.get('outcome')!r} run; nothing to resume"
            )
        return state

    def _write_checkpoint(
        self,
        path: str,
        circuit: PlacedCircuit,
        recorder: TraceRecorder,
        *,
        outcome: str,
        next_pass: Optional[int],
        order: Sequence[PlacedNet],
        last_failures: Optional[int],
        stall: int,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        state = {
            "circuit": circuit_fingerprint(circuit),
            "config": config_fingerprint(self.config),
            "arch": arch_fingerprint(self.arch),
            "engine": self.engine,
            "channel_width": self.arch.channel_width,
            "outcome": outcome,
            "next_pass": next_pass,
            "order": [n.name for n in order],
            "last_failures": last_failures,
            "stall": stall,
            "passes": recorder.pass_dicts(),
            "events": list(recorder.events),
        }
        if extra:
            state.update(extra)
        save_checkpoint(path, state, faults=self.faults)
        recorder.record_event(
            {
                "type": "checkpoint",
                "pass": self._current_pass,
                "path": path,
                "outcome": outcome,
            }
        )

    # ------------------------------------------------------------------
    # the move-to-front loop
    # ------------------------------------------------------------------
    def _negotiate(
        self,
        circuit: PlacedCircuit,
        recorder: TraceRecorder,
        counters: DijkstraCounters,
        checkpoint: Optional[str],
        resume: Optional[str],
    ) -> RoutingResult:
        cfg = self.config
        router = self._router
        rrg = RoutingResourceGraph(self.arch)
        order = router._initial_order(circuit.nets)
        critical = router._critical_names(circuit)
        cache = ShortestPathCache(rrg.graph, source_rooted=True)

        start_pass = 1
        last_failures: Optional[int] = None
        stall = 0
        if resume is not None:
            state = self._load_resume_state(resume, circuit)
            by_name = {n.name: n for n in circuit.nets}
            try:
                names = state["order"]
                start_pass = int(state["next_pass"])
                last_failures = state["last_failures"]
                stall = int(state["stall"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{resume}: malformed negotiation state "
                    f"({type(exc).__name__}: {exc})"
                ) from None
            try:
                order = [by_name[name] for name in names]
            except KeyError as exc:
                raise CheckpointError(
                    f"{resume}: checkpoint orders unknown net {exc}"
                ) from None
            except TypeError:
                raise CheckpointError(
                    f"{resume}: 'order' is not a list of net names"
                ) from None
            if last_failures is not None and not isinstance(
                last_failures, int
            ):
                raise CheckpointError(
                    f"{resume}: 'last_failures' must be an int or null"
                )
            recorder.restored_passes = list(state.get("passes", []))
            recorder.events = list(state.get("events", []))
            recorder.resumed_from = {"path": resume, "next_pass": start_pass}

        mutations = [0]

        def _mutation_hook(_version: int) -> None:
            mutations[0] += 1

        rrg.graph.add_version_hook(_mutation_hook)

        #: pristine device for per-pass verification, built lazily once
        verifier: List[Optional[RoutingResourceGraph]] = [None]
        repairs_total = 0

        failed: List[PlacedNet] = []
        for pass_no in range(start_pass, cfg.max_passes + 1):
            self._current_pass = pass_no
            started = time.perf_counter()
            deadline = (
                started + cfg.pass_timeout_s
                if cfg.pass_timeout_s is not None
                else None
            )
            counters_before = counters.snapshot()
            cache_before = cache.stats()
            mutations[0] = 0
            if pass_no > start_pass or (pass_no > 1 and resume is None):
                rrg.reset()
                cache.rebind(rrg.graph)
                rrg.graph.add_version_hook(_mutation_hook)
            rrg.detach_all_pins()
            congestion = (
                CongestionModel(rrg, cfg.congestion_alpha)
                if cfg.congestion
                else None
            )
            batches = partition_batches(order, self.batch_margin)

            routes: List[NetRoute] = []
            failed = []
            succeeded: List[PlacedNet] = []
            stats = {
                "speculative": 0, "conflicts": 0, "serial": 0, "retries": 0,
            }
            worker_cache: Dict[str, int] = {}
            for batch in batches:
                self._route_batch(
                    batch,
                    rrg,
                    congestion,
                    critical,
                    cache,
                    counters,
                    routes,
                    failed,
                    succeeded,
                    stats,
                    worker_cache,
                    pass_no,
                    deadline,
                )

            verify_info: Optional[Dict[str, int]] = None
            if cfg.verify == "pass":
                if verifier[0] is None:
                    verifier[0] = RoutingResourceGraph(self.arch)
                verify_info = self._verify_pass(
                    pass_no, circuit, rrg, verifier[0], congestion,
                    critical, cache, routes, failed, succeeded, recorder,
                )
                repairs_total += verify_info["repaired"]

            record = self._make_pass_record(
                pass_no,
                time.perf_counter() - started,
                batches,
                routes,
                failed,
                stats,
                counters.snapshot(),
                counters_before,
                cache.stats(),
                cache_before,
                worker_cache,
                mutations[0],
                rrg,
            )
            record.verify = verify_info
            recorder.record_pass(record)

            if not failed:
                result = RoutingResult(
                    circuit=circuit.name,
                    channel_width=self.arch.channel_width,
                    algorithm=cfg.algorithm,
                    passes_used=pass_no,
                    routes=routes,
                )
                if cfg.verify != "off":
                    self._verify_final(
                        result, circuit, recorder,
                        repaired=repairs_total > 0,
                    )
                recorder.finish(
                    "complete",
                    passes_used=pass_no,
                    total_wirelength=result.total_wirelength,
                )
                if checkpoint is not None and os.path.exists(checkpoint):
                    # a checkpoint only ever marks unfinished work
                    os.unlink(checkpoint)
                return result
            # move-to-front re-ordering for the next pass
            order = failed + succeeded
            # stop early if passes stop improving (seed stall window)
            if last_failures is not None and len(failed) >= last_failures:
                stall += 1
                if stall >= 3:
                    recorder.finish("unroutable", passes_used=pass_no)
                    if checkpoint is not None:
                        self._write_checkpoint(
                            checkpoint, circuit, recorder,
                            outcome="unroutable", next_pass=None,
                            order=order, last_failures=last_failures,
                            stall=stall,
                        )
                    raise UnroutableError(
                        self.arch.channel_width,
                        pass_no,
                        [n.name for n in failed],
                    )
            else:
                stall = 0
            last_failures = len(failed)
            if checkpoint is not None:
                self._write_checkpoint(
                    checkpoint, circuit, recorder,
                    outcome="in_progress", next_pass=pass_no + 1,
                    order=order, last_failures=last_failures, stall=stall,
                )
        recorder.finish("unroutable", passes_used=cfg.max_passes)
        if checkpoint is not None:
            self._write_checkpoint(
                checkpoint, circuit, recorder,
                outcome="unroutable", next_pass=None,
                order=order, last_failures=last_failures, stall=stall,
            )
        raise UnroutableError(
            self.arch.channel_width,
            cfg.max_passes,
            [n.name for n in failed],
        )

    # ------------------------------------------------------------------
    # PathFinder negotiated congestion (RouterConfig.mode="negotiate")
    # ------------------------------------------------------------------
    def _negotiate_pathfinder(
        self,
        circuit: PlacedCircuit,
        recorder: TraceRecorder,
        counters: DijkstraCounters,
        checkpoint: Optional[str],
        resume: Optional[str],
    ) -> RoutingResult:
        """Rip-up-and-reroute every net per iteration until zero overuse.

        Unlike the paper loop, the graph is never committed to: every
        net stays routed in :class:`NegotiationState` (which owns
        occupancy, history and the trees), junctions may be transiently
        shared, and congestion pressure lives entirely in the state's
        present × history cost factors — see ``docs/pathfinder.md``.
        Serial execution reroutes one net at a time against live costs
        (classic PathFinder, deterministic); parallel engines reroute
        worker-pool-sized chunks against frozen cost snapshots.
        """
        cfg = self.config
        router = self._router
        rrg = RoutingResourceGraph(self.arch)
        # the one real freeze of the route: every net reroute searches
        # a per-net overlay of this snapshot, never the mutable graph
        device = rrg.device_snapshot()
        policy = router.search_policy()
        order = router._initial_order(circuit.nets)
        nets = {n.name: n.to_graph_net() for n in circuit.nets}

        state = NegotiationState(cfg)
        start_iter = 1
        stall = 0
        best_overuse: Optional[int] = None
        if resume is not None:
            saved = self._load_resume_state(resume, circuit)
            by_name = {n.name: n for n in circuit.nets}
            try:
                start_iter = int(saved["next_pass"])
                stall = int(saved["stall"])
                best_overuse = saved["last_failures"]
                names = saved["order"]
                payload = saved["negotiation"]
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{resume}: malformed negotiation state "
                    f"({type(exc).__name__}: {exc})"
                ) from None
            try:
                order = [by_name[name] for name in names]
            except KeyError as exc:
                raise CheckpointError(
                    f"{resume}: checkpoint orders unknown net {exc}"
                ) from None
            except TypeError:
                raise CheckpointError(
                    f"{resume}: 'order' is not a list of net names"
                ) from None
            if best_overuse is not None and not isinstance(
                best_overuse, int
            ):
                raise CheckpointError(
                    f"{resume}: 'last_failures' must be an int or null"
                )
            state = NegotiationState.from_payload(cfg, payload)
            recorder.restored_passes = list(saved.get("passes", []))
            recorder.events = list(saved.get("events", []))
            recorder.resumed_from = {"path": resume, "next_pass": start_iter}

        slack: Optional[SlackTable] = None
        if cfg.timing and state.trees:
            # resumed mid-negotiation: the table is a pure function of
            # the checkpointed trees, so recomputing it here restores
            # the exact criticalities the interrupted run would have
            # carried into this iteration
            slack = SlackTable.from_trees(
                state.tree_graphs(rrg.base_weight), nets
            )

        for iteration in range(start_iter, cfg.negotiate_iterations + 1):
            self._current_pass = iteration
            started = time.perf_counter()
            deadline = (
                started + cfg.pass_timeout_s
                if cfg.pass_timeout_s is not None
                else None
            )
            counters_before = counters.snapshot()
            state.begin_iteration(iteration)
            # selective rip-up: after the first iteration only nets that
            # currently touch an overused junction (or were never routed)
            # are torn up — rerouting innocent nets churns new conflicts
            # and is the classic PathFinder oscillation source.  The
            # overusing set is a pure function of the (checkpointable)
            # trees, so resume sees the same target list.
            overusing = set(state.overusing_nets())
            targets = [
                placed for placed in order
                if placed.name not in state.trees
                or placed.name in overusing
            ]
            stats = {
                "speculative": 0, "conflicts": 0, "serial": 0, "retries": 0,
            }
            batch_sizes: List[int] = []
            if self._supervisor is None:
                for placed in targets:
                    self._check_deadline(
                        deadline, iteration, cfg.pass_timeout_s, [], []
                    )
                    state.remove_tree(placed.name)
                    out = self._negotiate_route_one(
                        device, placed, state, policy, slack
                    )
                    if out is None:
                        self._negotiation_infeasible(
                            circuit, recorder, iteration, placed.name,
                            checkpoint, state, order, best_overuse, stall,
                        )
                    state.add_tree(placed.name, *out)
                    stats["serial"] += 1
                    batch_sizes.append(1)
            else:
                self._negotiate_chunked(
                    circuit, targets, order, device, state, slack, counters,
                    stats, batch_sizes, iteration, deadline, checkpoint,
                    best_overuse, stall, recorder,
                )

            overuse = state.total_overuse()
            # a no-op at convergence (no junction is overused), so the
            # monotonicity contract holds across the final iteration too
            state.update_history()
            if cfg.timing:
                slack = SlackTable.from_trees(
                    state.tree_graphs(rrg.base_weight), nets
                )

            counters_after = counters.snapshot()
            record = PassRecord(
                index=iteration,
                seconds=time.perf_counter() - started,
                batch_sizes=batch_sizes,
                nets_routed=len(targets),
                nets_failed=0,
                failed_nets=[],
                speculative_commits=stats["speculative"],
                conflict_reroutes=stats["conflicts"],
                serial_routes=stats["serial"],
                dijkstra={
                    k: counters_after[k] - counters_before.get(k, 0)
                    for k in ("calls", "heap_pops", "relaxations", "pruned")
                },
                cache={"hits": 0, "misses": 0, "invalidations": 0},
                # negotiation never mutates the graph
                graph_mutations=0,
                congestion=congestion_histogram(
                    rrg, trees=[edges for _, edges in state.trees.values()]
                ),
                retries=stats["retries"],
            )
            record.negotiation = {
                "iteration": iteration,
                "overuse": overuse,
                "overused_nodes": state.overused_nodes(),
                "history_norm": round(state.history_norm(), 6),
                "critical_path_delay": (
                    slack.dmax if slack is not None else None
                ),
            }
            recorder.record_pass(record)

            if overuse == 0:
                routes = [
                    build_route(
                        rrg, device, placed, state.trees[placed.name][1]
                    )
                    for placed in circuit.nets
                ]
                result = RoutingResult(
                    circuit=circuit.name,
                    channel_width=self.arch.channel_width,
                    algorithm=NEGOTIATE_ALGORITHM,
                    passes_used=iteration,
                    routes=routes,
                )
                if cfg.verify != "off":
                    self._verify_final(
                        result, circuit, recorder, repaired=False
                    )
                recorder.finish(
                    "complete",
                    passes_used=iteration,
                    total_wirelength=result.total_wirelength,
                )
                if checkpoint is not None and os.path.exists(checkpoint):
                    os.unlink(checkpoint)
                return result

            # oscillation guard: abort when overuse stops improving
            if best_overuse is None or overuse < best_overuse:
                best_overuse = overuse
                stall = 0
            else:
                stall += 1
                if stall >= cfg.negotiate_stall:
                    recorder.finish("unroutable", passes_used=iteration)
                    if checkpoint is not None:
                        self._write_checkpoint(
                            checkpoint, circuit, recorder,
                            outcome="unroutable", next_pass=None,
                            order=order, last_failures=best_overuse,
                            stall=stall,
                            extra={"negotiation": state.to_payload()},
                        )
                    raise UnroutableError(
                        self.arch.channel_width,
                        iteration,
                        state.overusing_nets(),
                    )
            if checkpoint is not None:
                self._write_checkpoint(
                    checkpoint, circuit, recorder,
                    outcome="in_progress", next_pass=iteration + 1,
                    order=order, last_failures=best_overuse, stall=stall,
                    extra={"negotiation": state.to_payload()},
                )
        recorder.finish(
            "unroutable", passes_used=cfg.negotiate_iterations
        )
        if checkpoint is not None:
            self._write_checkpoint(
                checkpoint, circuit, recorder,
                outcome="unroutable", next_pass=None,
                order=order, last_failures=best_overuse, stall=stall,
                extra={"negotiation": state.to_payload()},
            )
        raise UnroutableError(
            self.arch.channel_width,
            cfg.negotiate_iterations,
            state.overusing_nets(),
        )

    def _negotiate_route_one(
        self,
        device: FlatGraph,
        placed: PlacedNet,
        state: NegotiationState,
        policy,
        slack: Optional[SlackTable],
    ):
        """Serially reroute one (ripped-up) net against live costs, on
        the net's overlay of the device snapshot."""
        net = placed.to_graph_net()
        budget = make_budget(self.config)
        previous = set_dijkstra_budget(budget) if budget else None
        try:
            return route_connections(
                device.overlay(net.terminals),
                placed.name, net, state, policy, slack,
            )
        finally:
            if budget is not None:
                set_dijkstra_budget(previous)

    def _negotiation_infeasible(
        self,
        circuit: PlacedCircuit,
        recorder: TraceRecorder,
        iteration: int,
        net_name: str,
        checkpoint: Optional[str],
        state: NegotiationState,
        order: Sequence[PlacedNet],
        best_overuse: Optional[int],
        stall: int,
    ) -> None:
        """Abort on a statically unroutable net (never transient).

        The negotiated graph is always the full pristine device —
        resources are shared, not consumed — so an isolated pin or
        unreachable sink cannot be fixed by more iterations.
        """
        recorder.record_event(
            {
                "type": "negotiation_infeasible",
                "pass": iteration,
                "net": net_name,
            }
        )
        recorder.finish("unroutable", passes_used=iteration)
        if checkpoint is not None:
            self._write_checkpoint(
                checkpoint, circuit, recorder,
                outcome="unroutable", next_pass=None,
                order=order, last_failures=best_overuse, stall=stall,
                extra={"negotiation": state.to_payload()},
            )
        raise UnroutableError(
            self.arch.channel_width, iteration, [net_name]
        )

    def _negotiate_chunked(
        self,
        circuit: PlacedCircuit,
        targets: Sequence[PlacedNet],
        order: Sequence[PlacedNet],
        device: FlatGraph,
        state: NegotiationState,
        slack: Optional[SlackTable],
        counters: DijkstraCounters,
        stats: Dict[str, int],
        batch_sizes: List[int],
        iteration: int,
        deadline: Optional[float],
        checkpoint: Optional[str],
        best_overuse: Optional[int],
        stall: int,
        recorder: TraceRecorder,
    ) -> None:
        """One parallel negotiation iteration in worker-pool chunks.

        Each chunk rips up its nets, freezes the factor table, and
        reroutes the chunk concurrently against that snapshot — an
        iteration-synchronous relaxation of serial PathFinder.  Every
        task ships the device snapshot (one object per chunk, shared by
        the thread engine and pickled as arrays by the process engine);
        the worker builds the net's overlay itself.  Results
        are collected in queue order, so the outcome depends only on
        the chunking, never on worker scheduling; it is valid (the
        checker still gates convergence) but not bit-identical to the
        serial schedule, whose factors advance after every single net.
        """
        cfg = self.config
        supervisor = self._supervisor
        chunk_size = max(1, self.max_workers or default_workers())
        for lo in range(0, len(targets), chunk_size):
            chunk = targets[lo:lo + chunk_size]
            self._check_deadline(
                deadline, iteration, cfg.pass_timeout_s, [], []
            )
            for placed in chunk:
                state.remove_tree(placed.name)
            factors = state.sparse_factors()
            collect = supervisor.current == "process"
            tasks: List[NegotiationTask] = []
            for placed in chunk:
                net = placed.to_graph_net()
                crits: Dict = {}
                if slack is not None:
                    crits = {
                        s: slack.criticality(placed.name, s)
                        for s in net.sinks
                        if slack.criticality(placed.name, s) > 0.0
                    }
                tasks.append(
                    NegotiationTask(
                        name=placed.name,
                        net=net,
                        config=cfg,
                        factors=factors,
                        criticalities=crits,
                        device=device,
                        collect_counters=collect,
                        index=self._task_counter,
                        faults=self.faults,
                        heuristic_scale=self._heuristic_scale(),
                    )
                )
                self._task_counter += 1
            results = self._dispatch(tasks, stats, fn=run_negotiation_task)
            for placed, result in zip(chunk, results):
                snapshot_counters = result.get("dijkstra")
                if snapshot_counters:
                    counters.merge(snapshot_counters)
                if result["status"] == INFEASIBLE:
                    self._negotiation_infeasible(
                        circuit, recorder, iteration, placed.name,
                        checkpoint, state, order, best_overuse, stall,
                    )
                state.add_tree(
                    placed.name, result["nodes"], result["edges"]
                )
                stats["speculative"] += 1
            batch_sizes.append(len(chunk))

    # ------------------------------------------------------------------
    # self-verification (RouterConfig.verify)
    # ------------------------------------------------------------------

    #: rip-up-reroute attempts per violating net before quarantining it
    _MAX_REPAIRS = 2

    def _verify_pass(
        self,
        pass_no: int,
        circuit: PlacedCircuit,
        rrg: RoutingResourceGraph,
        verifier: RoutingResourceGraph,
        congestion,
        critical: Set[str],
        cache: ShortestPathCache,
        routes: List[NetRoute],
        failed: List[PlacedNet],
        succeeded: List[PlacedNet],
        recorder: TraceRecorder,
    ) -> Dict[str, int]:
        """Verify this pass's committed routes; quarantine-and-repair.

        Every route is certified against a pristine device
        (:func:`repro.validate.check_net_route`).  A violating net is
        ripped up (:meth:`RoutingResourceGraph.uncommit`) and rerouted
        serially on the live graph, up to :data:`_MAX_REPAIRS` times;
        a net that cannot be repaired is quarantined — moved to the
        pass's failure list, where the move-to-front schedule retries
        it next pass — instead of corrupting the result.
        """
        placed_by_name = {n.name: n for n in circuit.nets}
        info = {
            "checked": len(routes),
            "violations": 0,
            "repaired": 0,
            "quarantined": 0,
        }
        violating: List[Tuple[NetRoute, PlacedNet, List[str]]] = []
        for route in routes:
            placed = placed_by_name[route.name]
            report = check_net_route(
                route, placed.to_graph_net().terminals, verifier
            )
            if not report.ok:
                codes = sorted({d.code for d in report.errors})
                violating.append((route, placed, codes))
        if not violating:
            recorder.record_event(
                {
                    "type": "verify_pass",
                    "pass": pass_no,
                    "checked": info["checked"],
                    "violations": 0,
                }
            )
            return info

        info["violations"] = len(violating)
        router = self._router
        for route, placed, codes in violating:
            recorder.record_event(
                {
                    "type": "verify_violation",
                    "pass": pass_no,
                    "net": route.name,
                    "codes": codes,
                }
            )
            routes.remove(route)
            if placed in succeeded:
                succeeded.remove(placed)
            touched = rrg.uncommit(route.tree())
            if congestion is not None:
                congestion.reweight_groups(touched)
            terminals = placed.to_graph_net().terminals
            repaired = False
            for attempt in range(1, self._MAX_REPAIRS + 1):
                new_route = router._route_one(
                    rrg, placed, congestion, critical, cache=cache
                )
                if new_route is None:
                    break
                re_report = check_net_route(new_route, terminals, verifier)
                if re_report.ok:
                    routes.append(new_route)
                    succeeded.append(placed)
                    info["repaired"] += 1
                    recorder.record_event(
                        {
                            "type": "repair",
                            "pass": pass_no,
                            "net": route.name,
                            "attempt": attempt,
                            "outcome": "repaired",
                        }
                    )
                    repaired = True
                    break
                touched = rrg.uncommit(new_route.tree())
                if congestion is not None:
                    congestion.reweight_groups(touched)
                recorder.record_event(
                    {
                        "type": "repair",
                        "pass": pass_no,
                        "net": route.name,
                        "attempt": attempt,
                        "outcome": "rejected",
                    }
                )
            if not repaired:
                failed.append(placed)
                info["quarantined"] += 1
                recorder.record_event(
                    {
                        "type": "repair",
                        "pass": pass_no,
                        "net": route.name,
                        "attempt": self._MAX_REPAIRS,
                        "outcome": "quarantined",
                    }
                )
        recorder.record_event(
            {"type": "verify_pass", "pass": pass_no, **info}
        )
        return info

    def _verify_final(
        self,
        result: RoutingResult,
        circuit: PlacedCircuit,
        recorder: TraceRecorder,
        *,
        repaired: bool,
    ) -> None:
        """Independent certification of the finished result.

        A repaired run is checked at ``static`` level: repairs rewire
        the live graph mid-pass, so the commit-order replay (which
        re-derives each net's route-time weights) no longer models the
        actual history; the static layer — tree validity, bookkeeping,
        occupancy — still applies in full.
        """
        level = "static" if repaired else "full"
        report = verify_result(
            result, circuit, self.arch, self.config, level=level
        )
        recorder.record_event(
            {
                "type": "verify_final",
                "pass": self._current_pass,
                "level": level,
                "ok": report.ok,
                "errors": len(report.errors),
                "warnings": len(report.warnings),
            }
        )
        if not report.ok:
            recorder.finish("verify_failed")
            head = report.errors[0]
            more = (
                f" (+{len(report.errors) - 1} more)"
                if len(report.errors) > 1
                else ""
            )
            raise VerificationError(
                f"result failed independent verification: "
                f"{head.render()}{more}",
                report=report,
            )

    # ------------------------------------------------------------------
    # recovery-aware dispatch
    # ------------------------------------------------------------------
    def _record_dispatch_event(self, event: Dict[str, object]) -> None:
        if self._recorder is not None:
            enriched = dict(event)
            enriched.setdefault("pass", self._current_pass)
            self._recorder.record_event(enriched)

    def _dispatch(
        self,
        tasks: Sequence,
        stats: Dict[str, int],
        fn=run_net_task,
    ) -> List[Dict[str, object]]:
        """Run one batch of tasks through the supervised executor."""

        def on_event(event: Dict[str, object]) -> None:
            self._record_dispatch_event(event)
            if event.get("type") in ("retry", "redispatch"):
                stats["retries"] += 1

        return map_with_recovery(
            self._supervisor,
            fn,
            tasks,
            self.retry_policy,
            on_event,
        )

    def _heuristic_scale(self) -> Optional[float]:
        """Trusted Manhattan scale shipped to workers (None if unusable)."""
        scale = min(self.arch.segment_weight, self.arch.pin_weight)
        return scale if scale > 0 else None

    @staticmethod
    def _check_deadline(
        deadline: Optional[float],
        pass_no: int,
        budget_s: Optional[float],
        routes: Sequence[NetRoute],
        failed: Sequence[PlacedNet],
    ) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise EngineTimeoutError(
                f"pass {pass_no} exceeded its {budget_s}s budget",
                kind="pass",
                budget=budget_s,
                partial={
                    "pass": pass_no,
                    "nets_routed": len(routes),
                    "nets_failed": len(failed),
                },
            )

    # ------------------------------------------------------------------
    # batch routing
    # ------------------------------------------------------------------
    def _route_batch(
        self,
        batch: Sequence[PlacedNet],
        rrg: RoutingResourceGraph,
        congestion: Optional[CongestionModel],
        critical: Set[str],
        cache: ShortestPathCache,
        counters: DijkstraCounters,
        routes: List[NetRoute],
        failed: List[PlacedNet],
        succeeded: List[PlacedNet],
        stats: Dict[str, int],
        worker_cache: Dict[str, int],
        pass_no: int,
        deadline: Optional[float],
    ) -> None:
        """Route one batch, appending outcomes in queue order."""
        router = self._router
        cfg = self.config

        def serial_one(placed: PlacedNet) -> None:
            self._check_deadline(
                deadline, pass_no, cfg.pass_timeout_s, routes, failed
            )
            budget = make_budget(cfg)
            previous = set_dijkstra_budget(budget) if budget else None
            try:
                route = router._route_one(
                    rrg, placed, congestion, critical, cache=cache
                )
            finally:
                if budget is not None:
                    set_dijkstra_budget(previous)
            stats["serial"] += 1
            if route is None:
                failed.append(placed)
            else:
                routes.append(route)
                succeeded.append(placed)

        supervisor = self._supervisor
        if supervisor is None or len(batch) == 1:
            for placed in batch:
                serial_one(placed)
            return

        # Speculative path: snapshot per net, route concurrently, then
        # commit in queue order with conflict fallback.  two_pin nets
        # commit resources *while* routing and cannot be speculated.
        self._check_deadline(
            deadline, pass_no, cfg.pass_timeout_s, routes, failed
        )
        collect_counters = supervisor.current == "process"
        # One frozen CSR of the pinless base graph is shared by every
        # task in the batch (and pickled once per worker), with per-net
        # pin taps replayed worker-side.
        base_flat = rrg.graph.freeze().flat
        tasks: List[Optional[NetTask]] = []
        for placed in batch:
            algo = router.effective_algorithm(placed, critical)
            if algo == "two_pin":
                tasks.append(None)
                continue
            net = placed.to_graph_net()
            tasks.append(
                NetTask(
                    name=placed.name,
                    net=net,
                    algo=algo,
                    config=self.config,
                    flat=base_flat,
                    pin_taps={
                        pn: rrg.pin_taps(pn) for pn in net.terminals
                    },
                    collect_counters=collect_counters,
                    index=self._task_counter,
                    faults=self.faults,
                )
            )
            self._task_counter += 1
        results = self._dispatch(
            [t for t in tasks if t is not None], stats
        )
        results_iter = iter(results)

        for placed, task in zip(batch, tasks):
            if task is None:
                serial_one(placed)
                continue
            result = next(results_iter)
            dijkstra_snapshot = result.get("dijkstra")
            if dijkstra_snapshot:
                counters.merge(dijkstra_snapshot)
            for key, value in (result.get("cache") or {}).items():
                if isinstance(value, int):
                    worker_cache[key] = worker_cache.get(key, 0) + value
            if result["status"] == INFEASIBLE:
                # Routing resources only shrink within a pass, so a net
                # infeasible on its batch-start snapshot would also be
                # infeasible at its serial slot.
                failed.append(placed)
                continue
            route = self._commit_speculative(placed, result, rrg, congestion)
            if route is not None:
                stats["speculative"] += 1
                routes.append(route)
                succeeded.append(placed)
            else:
                stats["conflicts"] += 1
                serial_one(placed)

    def _commit_speculative(
        self,
        placed: PlacedNet,
        result: Dict[str, object],
        rrg: RoutingResourceGraph,
        congestion: Optional[CongestionModel],
    ) -> Optional[NetRoute]:
        """Commit a speculative route if still conflict-free; else None."""
        net = placed.to_graph_net()
        graph = rrg.graph
        rrg.attach_pins(net.terminals)
        tree_edges: List[Tuple] = result["tree_edges"]  # type: ignore[assignment]
        if not all(graph.has_edge(u, v) for u, v in tree_edges):
            rrg.detach_pins(net.terminals)
            return None
        tree = Graph()
        tree.add_node(net.source)
        for u, v in tree_edges:
            tree.add_edge(u, v, rrg.base_weight(u, v))
        optimal = {
            sink: sum(
                rrg.base_weight(a, b) for a, b in zip(path, path[1:])
            )
            for sink, path in result["paths"].items()  # type: ignore[union-attr]
        }
        route = measure_route(
            placed.name,
            result["algorithm"],  # type: ignore[arg-type]
            net.source,
            net.sinks,
            tree,
            rrg.base_weight,
            optimal_pathlengths=optimal,
        )
        touched = rrg.commit(tree)
        if congestion is not None:
            congestion.reweight_groups(touched)
        return route

    # ------------------------------------------------------------------
    # instrumentation assembly
    # ------------------------------------------------------------------
    @staticmethod
    def _make_pass_record(
        pass_no: int,
        seconds: float,
        batches: Sequence[Sequence[PlacedNet]],
        routes: Sequence[NetRoute],
        failed: Sequence[PlacedNet],
        stats: Dict[str, int],
        counters_after: Dict[str, int],
        counters_before: Dict[str, int],
        cache_after: Dict[str, int],
        cache_before: Dict[str, int],
        worker_cache: Dict[str, int],
        graph_mutations: int,
        rrg: RoutingResourceGraph,
    ) -> PassRecord:
        dijkstra = {
            k: counters_after[k] - counters_before.get(k, 0)
            for k in ("calls", "heap_pops", "relaxations", "pruned")
        }
        cache_delta = {
            k: cache_after.get(k, 0) - cache_before.get(k, 0)
            for k in ("hits", "misses", "invalidations")
        }
        for k in ("hits", "misses"):
            cache_delta[k] += worker_cache.get(k, 0)
        return PassRecord(
            index=pass_no,
            seconds=seconds,
            batch_sizes=[len(b) for b in batches],
            nets_routed=len(routes),
            nets_failed=len(failed),
            failed_nets=[n.name for n in failed],
            speculative_commits=stats["speculative"],
            conflict_reroutes=stats["conflicts"],
            serial_routes=stats["serial"],
            dijkstra=dijkstra,
            cache=cache_delta,
            graph_mutations=graph_mutations,
            congestion=congestion_histogram(rrg),
            retries=stats["retries"],
        )
