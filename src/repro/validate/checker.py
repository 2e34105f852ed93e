"""Independent result checker: certify a :class:`RoutingResult`.

The checker re-derives every claim a result makes from first
principles — the device structure, the circuit, and the config — and
deliberately shares **no accounting code** with the router:

* channel spans are derived *structurally* from junction node ids, not
  from the routing graph's segment bookkeeping;
* occupancy is recounted from scratch over all routes;
* pathlengths are re-measured with a local DFS, shortest distances
  with a local Dijkstra — neither imports the router's search stack.

The only shared implementation is :func:`steiner_tree_violations`
(tree shape + host containment), which the issue explicitly makes the
single source of truth for both the checker and the steiner tests.

Two levels:

* ``static`` — per-net tree validity against a pristine device,
  terminal coverage, wirelength/pathlength bookkeeping, cross-net
  resource disjointness, and channel occupancy.
* ``full`` — additionally *replays* the final pass's commit sequence
  on a fresh device (same congestion reweighting rule) and certifies
  the paper's arborescence guarantee for DJKA/DOM/PFA/IDOM nets:
  every sink's tree path equals its shortest graph distance *at the
  moment the net was routed*.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..fpga.architecture import Architecture
from ..fpga.netlist import PlacedCircuit
from ..fpga.routing_graph import RoutingResourceGraph
from ..graph.core import Graph
from ..graph.validation import steiner_tree_violations
from ..router.config import RouterConfig
from ..router.result import NetRoute, RoutingResult
from .diagnostics import ValidationReport

Node = Hashable
SpanKey = Tuple[str, int, int]

#: algorithms whose output trees must realize shortest source→sink
#: paths in the graph they were routed on (tests/test_arborescence.py
#: asserts this for all four)
ARBORESCENCE_ALGORITHMS = frozenset({"djka", "dom", "pfa", "idom"})

#: relative tolerance for recomputed-vs-recorded float comparisons
REL_TOL = 1e-9


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def segment_span(u: Node, v: Node) -> Optional[SpanKey]:
    """Channel span of a wire-segment edge, derived from node structure.

    A horizontal segment joins ``("J", x, y, "E", t)`` to
    ``("J", x+1, y, "W", t)``; a vertical one ``("J", x, y, "N", t)``
    to ``("J", x, y+1, "S", t)``.  Anything else (switch edges, pin
    edges, foreign nodes) is not a segment and yields ``None``.
    """
    for a, b in ((u, v), (v, u)):
        if not (
            isinstance(a, tuple) and isinstance(b, tuple)
            and len(a) == 5 and len(b) == 5
            and a[0] == "J" and b[0] == "J" and a[4] == b[4]
        ):
            continue
        if a[3] == "E" and b[3] == "W" and b[1] == a[1] + 1 and b[2] == a[2]:
            return ("H", a[1], a[2])
        if a[3] == "N" and b[3] == "S" and b[2] == a[2] + 1 and b[1] == a[1]:
            return ("V", a[1], a[2])
    return None


def _tree_distances(route: NetRoute, weight) -> Dict[Node, float]:
    """Distances from the route's source over its tree via local DFS.

    ``weight(u, v)`` supplies the metric; unreachable nodes are simply
    absent (the caller reports missing sinks).
    """
    adj: Dict[Node, List[Tuple[Node, float]]] = {}
    for u, v, _ in route.edges:
        w = weight(u, v)
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    dist = {route.source: 0.0}
    stack = [route.source]
    while stack:
        u = stack.pop()
        for v, w in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + w
                stack.append(v)
    return dist


def _dijkstra(graph: Graph, source: Node, targets: Set[Node]) -> Dict[Node, float]:
    """Local shortest-distance computation (early exit on ``targets``).

    Independent of :mod:`repro.graph.shortest_paths` so a bug in the
    router's search stack cannot hide from the checker.
    """
    dist: Dict[Node, float] = {}
    remaining = set(targets)
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    counter = 1
    while heap and remaining:
        d, _, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        remaining.discard(u)
        for v, w in graph.neighbor_items(u):
            if v not in dist:
                heapq.heappush(heap, (d + w, counter, v))
                counter += 1
    return dist


def check_net_route(
    route: NetRoute,
    terminals: Sequence[Node],
    device: RoutingResourceGraph,
    report: Optional[ValidationReport] = None,
) -> ValidationReport:
    """Static certification of one net's route against a pristine device.

    Checks tree shape and terminal coverage, containment in the device
    at device base weights (via the shared
    :func:`~repro.graph.validation.steiner_tree_violations`), and the
    route's own wirelength/pathlength bookkeeping recomputed from the
    device.  ``device`` must be pristine: a newly constructed
    :class:`RoutingResourceGraph`, which is a copy of the per-process
    pristine device, never a device a router has consumed.
    """
    if report is None:
        report = ValidationReport(subject=f"net {route.name!r}")
    loc = route.name
    for code, message in steiner_tree_violations(
        route.tree(), terminals, host=device.graph
    ):
        if code == "TREE_EDGE_NOT_IN_HOST":
            code = "TREE_EDGE_NOT_IN_DEVICE"
        report.add(code, message, location=loc)
    if report.errors:
        # bookkeeping checks below assume a well-formed, in-device tree
        return report

    wirelength = sum(
        device.base_weight(u, v) for u, v, _ in route.edges
    )
    if not _close(wirelength, route.wirelength):
        report.add(
            "WIRELENGTH_MISMATCH",
            f"recorded wirelength {route.wirelength} but device base "
            f"weights sum to {wirelength}",
            location=loc,
        )
    dist = _tree_distances(route, device.base_weight)
    for sink in route.sinks:
        recorded = route.pathlengths.get(sink)
        actual = dist.get(sink)
        if recorded is None or actual is None:
            report.add(
                "PATHLENGTH_MISMATCH",
                f"sink {sink!r} missing from "
                + ("recorded pathlengths" if recorded is None else "tree"),
                location=loc,
            )
        elif not _close(recorded, actual):
            report.add(
                "PATHLENGTH_MISMATCH",
                f"sink {sink!r}: recorded pathlength {recorded} but the "
                f"tree measures {actual}",
                location=loc,
            )
    return report


def _check_inventory(
    result: RoutingResult, circuit: PlacedCircuit, report: ValidationReport
) -> Dict[str, NetRoute]:
    """Net inventory: result routes ↔ circuit nets, exactly once each."""
    circuit_nets = {n.name for n in circuit.nets}
    routed: Dict[str, NetRoute] = {}
    for route in result.routes:
        if route.name in routed:
            report.add(
                "RESULT_NET_DUPLICATE",
                f"net {route.name!r} routed more than once",
                location=route.name,
            )
        routed[route.name] = route
        if route.name not in circuit_nets:
            report.add(
                "RESULT_NET_UNKNOWN",
                f"result routes {route.name!r} which the circuit "
                f"does not define",
                location=route.name,
            )
    accounted = set(routed) | set(result.failed_nets)
    for name in sorted(circuit_nets - accounted):
        report.add(
            "RESULT_NET_MISSING",
            f"net {name!r} neither routed nor reported failed",
            location=name,
        )
    return routed


def _check_occupancy(
    result: RoutingResult,
    channel_width: int,
    report: ValidationReport,
) -> None:
    """Recount resource usage from scratch across all routes.

    Committed nets are node-disjoint on the device (commitment removes
    every node of a routed tree), so any shared node is a violation.
    Channel occupancy is recounted per span from the structural edge
    form; a span claimed more times than it has tracks is over
    capacity regardless of which nets collide.
    """
    node_owner: Dict[Node, str] = {}
    span_claims: Dict[SpanKey, int] = {}
    for route in result.routes:
        nodes: Set[Node] = {route.source}
        seen_edges: Set[Tuple] = set()
        for u, v, _ in route.edges:
            nodes.add(u)
            nodes.add(v)
            key = (u, v) if repr(u) <= repr(v) else (v, u)
            if key in seen_edges:
                continue
            seen_edges.add(key)
            span = segment_span(u, v)
            if span is not None:
                span_claims[span] = span_claims.get(span, 0) + 1
        for node in nodes:
            owner = node_owner.get(node)
            if owner is not None and owner != route.name:
                report.add(
                    "RESOURCE_SHARED",
                    f"node {node!r} consumed by both {owner!r} and "
                    f"{route.name!r}",
                    location=route.name,
                )
            else:
                node_owner[node] = route.name
    for span in sorted(span_claims):
        claims = span_claims[span]
        if claims > channel_width:
            report.add(
                "CHANNEL_OVERCAPACITY",
                f"span {span!r} claimed {claims} times but the channel "
                f"has {channel_width} tracks",
                location=repr(span),
            )


def _replay_and_check(
    result: RoutingResult,
    circuit: PlacedCircuit,
    arch: Architecture,
    config: RouterConfig,
    report: ValidationReport,
) -> None:
    """Replay the final pass's commit sequence on a fresh device.

    ``result.routes`` preserves commit order, so re-driving
    attach → commit → reweight with the router's congestion rule
    reconstructs, for each net, the exact graph (weights included) it
    was routed on.  On that graph the arborescence algorithms promise
    shortest source→sink paths; the checker re-derives the distances
    with its own Dijkstra and compares.
    """
    device = RoutingResourceGraph(arch)
    device.detach_all_pins()
    graph = device.graph
    placed_by_name = {n.name: n for n in circuit.nets}
    alpha = config.congestion_alpha if config.congestion else None

    for route in result.routes:
        placed = placed_by_name.get(route.name)
        if placed is None:
            continue  # RESULT_NET_UNKNOWN already reported
        terminals = placed.to_graph_net().terminals
        device.attach_pins(terminals)
        missing = [
            (u, v) for u, v, _ in route.edges if not graph.has_edge(u, v)
        ]
        if missing:
            u, v = missing[0]
            report.add(
                "RESOURCE_SHARED",
                f"edge ({u!r}, {v!r}) no longer available when "
                f"{route.name!r} was committed (consumed earlier)",
                location=route.name,
            )
            device.detach_pins(terminals)
            continue

        if route.algorithm in ARBORESCENCE_ALGORITHMS:
            sinks = set(route.sinks)
            graph_dist = _dijkstra(graph, route.source, sinks)
            tree_dist = _tree_distances(route, graph.weight)
            for sink in route.sinks:
                gd = graph_dist.get(sink)
                td = tree_dist.get(sink)
                if gd is None or td is None:
                    continue  # spanning problems reported statically
                if td > gd + REL_TOL * max(1.0, gd):
                    report.add(
                        "ARBORESCENCE_NOT_SHORTEST",
                        f"sink {sink!r}: tree path costs {td} but the "
                        f"graph distance at route time was {gd} "
                        f"({route.algorithm} promises equality)",
                        location=route.name,
                    )
            # the recorded "optimal" is the base length of *a* shortest
            # congested path; for arborescence nets the tree path is one
            # such path, so divergence marks tie-break sensitivity, not
            # an accounting error — hence warning severity
            for sink in route.sinks:
                opt = route.optimal_pathlengths.get(sink)
                recorded = route.pathlengths.get(sink)
                if opt is None or recorded is None:
                    continue
                if not _close(opt, recorded, tol=1e-6):
                    report.add(
                        "OPTIMAL_PATHLENGTH_DIVERGENT",
                        f"sink {sink!r}: recorded optimal {opt} vs tree "
                        f"pathlength {recorded} (canonical-path "
                        f"tie-break difference)",
                        severity="warning",
                        location=route.name,
                    )

        touched = device.commit(route.tree())
        if alpha is not None:
            _reweight(device, graph, touched, alpha)


def _reweight(
    device: RoutingResourceGraph,
    graph: Graph,
    touched: Set[SpanKey],
    alpha: float,
) -> None:
    """The router's congestion rule, re-implemented for the replay.

    Surviving segment edges of each touched span get weight
    ``base · (1 + alpha · utilization)``; the utilization is recounted
    from the live graph.  Segment base weight is uniform
    (``arch.segment_weight``), so no router bookkeeping is consulted.
    """
    base = device.arch.segment_weight
    w = device.arch.channel_width
    for orient, x, y in touched:
        alive = []
        for t in range(w):
            if orient == "H":
                a = ("J", x, y, "E", t)
                b = ("J", x + 1, y, "W", t)
            else:
                a = ("J", x, y, "N", t)
                b = ("J", x, y + 1, "S", t)
            if graph.has_edge(a, b):
                alive.append((a, b))
        utilization = 1.0 - len(alive) / w
        factor = 1.0 + alpha * utilization
        for a, b in alive:
            graph.set_weight(a, b, base * factor)


def verify_result(
    result: RoutingResult,
    circuit: PlacedCircuit,
    device,
    config: Optional[RouterConfig] = None,
    *,
    level: str = "full",
) -> ValidationReport:
    """Certify ``result`` against ``circuit`` on ``device``.

    ``device`` is an :class:`Architecture` or a
    :class:`RoutingResourceGraph` (only its architecture is used, so a
    consumed post-route graph is fine to pass).  The checker takes its
    own copies of the per-process pristine device — one to certify
    against, one to replay on: it shares the device definition with
    the router, as building from the architecture always did, and
    never the router's state.  ``level`` is ``"static"`` or ``"full"``
    (static + commit-order replay).
    """
    if level not in ("static", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    arch = device.arch if isinstance(device, RoutingResourceGraph) else device
    cfg = config or RouterConfig()
    report = ValidationReport(
        subject=f"result {result.circuit!r} (W={result.channel_width})"
    )
    if result.channel_width != arch.channel_width:
        report.add(
            "ARRAY_MISMATCH",
            f"result claims channel width {result.channel_width} but "
            f"the device has {arch.channel_width}",
        )
    placed_by_name = {n.name: n for n in circuit.nets}
    routed = _check_inventory(result, circuit, report)

    pristine = RoutingResourceGraph(arch)
    for name, route in routed.items():
        placed = placed_by_name.get(name)
        if placed is None:
            continue
        terminals = placed.to_graph_net().terminals
        check_net_route(route, terminals, pristine, report)
    _check_occupancy(result, arch.channel_width, report)

    if level == "full" and not report.errors:
        _replay_and_check(result, circuit, arch, cfg, report)
    return report
