"""The speculative per-net routing task executed by engine workers.

A :class:`NetTask` carries everything a worker needs to route one net
*without touching shared state*: a frozen CSR snapshot of the pinless
routing graph plus this net's pin taps, the net itself, the resolved
tree algorithm, and the router configuration.  The worker mirrors the serial
router's per-net protocol (`FPGARouter._route_one`) minus the commit:
feasibility pre-checks, congested shortest paths for the Table-5
optimal-pathlength metric, then tree construction through the shared
:func:`repro.router.router.route_net_tree` dispatch.

Results are plain dicts of tuples/lists so they cross process
boundaries unchanged.  The session re-validates every speculative tree
against the live graph before committing it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import DisconnectedError, GraphError
from ..graph.core import Graph
from ..graph.flat import FlatGraph
from ..graph.search import SearchPolicy
from ..graph.shortest_paths import (
    DijkstraBudget,
    DijkstraCounters,
    ShortestPathCache,
    set_dijkstra_budget,
    set_dijkstra_counters,
)
from ..net import Net
from ..router.config import RouterConfig
from ..router.router import route_net_tree
from .faults import FaultPlan

#: task outcome markers
ROUTED = "routed"
INFEASIBLE = "infeasible"


@dataclass
class NetTask:
    """One net's speculative routing job (picklable)."""

    name: str
    net: Net
    algo: str
    config: RouterConfig
    #: frozen CSR snapshot of the *pinless* base graph.  One FlatGraph
    #: is shared (and pickled once per worker batch) by every task of a
    #: batch; the worker thaws it and replays this net's pin attachment
    #: locally from ``pin_taps``
    flat: Optional[FlatGraph] = None
    #: pin -> ((junction, weight), ...) connection-block taps for this
    #: net's terminals: the device's shared, read-only tuples (see
    #: RoutingResourceGraph.pin_taps)
    pin_taps: Optional[Dict[Tuple, Tuple[Tuple[Tuple, float], ...]]] = None
    #: True when the worker runs out-of-process and must ship its own
    #: Dijkstra counters back with the result
    collect_counters: bool = False
    #: session-global dispatch index (grows across batches, passes and
    #: re-dispatches) — the hook fault plans match against
    index: int = 0
    #: scripted failure schedule, if the session is under fault injection
    faults: Optional[FaultPlan] = None


def make_budget(config: RouterConfig) -> Optional[DijkstraBudget]:
    """Per-net Dijkstra budget from the config's deadline knobs.

    Returns ``None`` when neither ``route_timeout_s`` nor
    ``max_relaxations`` is set, so unbudgeted runs stay on the
    zero-overhead path.  The wall-clock deadline is anchored *now* —
    call this immediately before routing the net it bounds.
    """
    if config.route_timeout_s is None and config.max_relaxations is None:
        return None
    deadline = (
        time.perf_counter() + config.route_timeout_s
        if config.route_timeout_s is not None
        else None
    )
    return DijkstraBudget(
        max_relaxations=config.max_relaxations, deadline=deadline
    )


def materialize_graph(task: NetTask) -> Graph:
    """The routing-graph snapshot this task routes on.

    Thaws the shared base CSR — which reconstructs the exact adjacency
    ordering of the live graph it was frozen from — and replays the pin
    attachment for this net's terminals with the same add order and the
    same survival checks as :meth:`RoutingResourceGraph.attach_pins`,
    so the materialized graph is identical to the live graph with this
    net's pins attached.
    """
    if task.flat is None or task.pin_taps is None:
        raise GraphError(
            f"task {task.name!r} carries no flat arrays or pin taps"
        )
    if task.faults is not None:
        # materialize fault point: die while the task's graph exists
        # only as shipped CSR arrays, before any thaw-side state
        task.faults.inject_materialize(task.index)
    g = task.flat.thaw()
    taps = task.pin_taps
    for pn in task.net.terminals:
        if pn not in taps:
            raise GraphError(f"{pn!r} has no shipped pin taps")
        g.add_node(pn)
        for end, w in taps[pn]:
            if g.has_node(end):
                g.add_edge(pn, end, w)
    return g


@dataclass
class NegotiationTask:
    """One net's rip-up-and-reroute job under frozen negotiated costs.

    Shipped by the parallel PathFinder engines: a whole chunk of nets
    reroutes concurrently against the same point-in-time snapshot of
    the present × history factor table (``factors``), so the outcome of
    the chunk is independent of worker scheduling.  Every task carries
    the route's device snapshot
    (:meth:`~repro.fpga.routing_graph.RoutingResourceGraph.device_snapshot`);
    the worker attaches this net's pins with a per-net overlay.
    Fault and counter plumbing follow :class:`NetTask`.
    """

    name: str
    net: Net
    config: RouterConfig
    #: sparse junction → factor snapshot (non-unit entries only)
    factors: Dict[Tuple, float]
    #: sink → slack ratio for this net's connections (timing mode);
    #: empty means wirelength-only
    criticalities: Dict[Tuple, float]
    #: the pin-free device frozen once per route, every pin appended
    #: as an unattached terminal
    device: FlatGraph
    collect_counters: bool = False
    index: int = 0
    faults: Optional[FaultPlan] = None
    #: trusted Manhattan scale for negotiated A*
    #: (``min(segment_weight, pin_weight)`` of the architecture); None
    #: lets the worker derive one from the graph
    heuristic_scale: Optional[float] = None


def run_negotiation_task(task: NegotiationTask) -> Dict[str, object]:
    """Reroute one net under the task's frozen negotiated costs.

    Returns ``{"status": ROUTED, "nodes": [...], "edges": [...]}`` (the
    ordered tree nodes and tree edges ``route_connections`` produced) or
    an :data:`INFEASIBLE` marker when a pin is isolated or a sink
    unreachable — which, on the always-pristine negotiated graph, is a
    static property of the circuit, not a transient conflict.
    """
    from ..router.negotiation import FrozenFactorProvider, route_connections
    from ..router.timing import SlackTable

    if task.faults is not None:
        task.faults.inject(task.index)
    counters: Optional[DijkstraCounters] = None
    previous: Optional[DijkstraCounters] = None
    if task.collect_counters:
        counters = DijkstraCounters()
        previous = set_dijkstra_counters(counters)
    budget = make_budget(task.config)
    previous_budget = set_dijkstra_budget(budget) if budget else None
    try:
        if task.faults is not None:
            # die while the task's graph exists only as the shipped
            # device snapshot, before the overlay is built
            task.faults.inject_materialize(task.index)
        graph = task.device.overlay(task.net.terminals)

        def done(payload: Dict[str, object]) -> Dict[str, object]:
            if counters is not None:
                payload["dijkstra"] = counters.snapshot()
            return payload

        policy = SearchPolicy(
            task.config.search, heuristic_scale=task.heuristic_scale
        )
        provider = FrozenFactorProvider(task.factors)
        slack = (
            SlackTable(
                {(task.name, s): c for s, c in task.criticalities.items()}
            )
            if task.criticalities
            else None
        )
        out = route_connections(
            graph, task.name, task.net, provider, policy, slack
        )
        if out is None:
            return done({"name": task.name, "status": INFEASIBLE})
        nodes, edges = out
        return done(
            {
                "name": task.name,
                "status": ROUTED,
                "nodes": nodes,
                "edges": edges,
            }
        )
    finally:
        if budget is not None:
            set_dijkstra_budget(previous_budget)
        if counters is not None:
            set_dijkstra_counters(previous)


def run_net_task(task: NetTask) -> Dict[str, object]:
    """Route one net on its snapshot; never touches shared state.

    Returns a dict with ``status`` (:data:`ROUTED`/:data:`INFEASIBLE`)
    and, when routed, the tree's edge list, the congested shortest
    source→sink node paths (for optimal-pathlength accounting), the
    algorithm that produced the tree, and the worker's cache/Dijkstra
    statistics.
    """
    if task.faults is not None:
        task.faults.inject(task.index)
    counters: Optional[DijkstraCounters] = None
    previous: Optional[DijkstraCounters] = None
    if task.collect_counters:
        # Out-of-process worker: install task-local counters even if a
        # forked child inherited the parent's instance — recording into
        # the inherited copy would be silently lost.  The snapshot
        # travels back with the result instead.
        counters = DijkstraCounters()
        previous = set_dijkstra_counters(counters)
    budget = make_budget(task.config)
    previous_budget = set_dijkstra_budget(budget) if budget else None
    try:
        return _run(task, counters)
    finally:
        if budget is not None:
            set_dijkstra_budget(previous_budget)
        if counters is not None:
            set_dijkstra_counters(previous)


def _run(
    task: NetTask, counters: Optional[DijkstraCounters]
) -> Dict[str, object]:
    graph = materialize_graph(task)
    net = task.net

    def done(payload: Dict[str, object]) -> Dict[str, object]:
        if counters is not None:
            payload["dijkstra"] = counters.snapshot()
        return payload

    for pin in net.terminals:
        if not graph.has_node(pin) or graph.degree(pin) == 0:
            return done({"name": task.name, "status": INFEASIBLE})
    # mirrors FPGARouter._route_one
    cache = ShortestPathCache(graph, source_rooted=True)
    source_dist, _ = cache.sssp(net.source)
    paths: Dict[object, List] = {}
    for sink in net.sinks:
        if sink not in source_dist:
            return done({"name": task.name, "status": INFEASIBLE})
    for sink in net.sinks:
        paths[sink] = cache.path(net.source, sink)
    try:
        result = route_net_tree(graph, net, cache, task.algo, task.config)
    except (DisconnectedError, GraphError):
        return done({"name": task.name, "status": INFEASIBLE})
    edges: List[Tuple] = [(u, v) for u, v, _ in result.tree.edges()]
    return done(
        {
            "name": task.name,
            "status": ROUTED,
            "algorithm": result.algorithm,
            "tree_edges": edges,
            "paths": paths,
            "cache": cache.stats(),
        }
    )
