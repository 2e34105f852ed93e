"""The detailed FPGA router of Section 5.

"Our router operates directly on this graph and routes the nets one at
a time.  After the routing of each net, the edge weights are updated to
reflect the new congestion values; edges used to route the net are
removed from the graph, so that subsequent nets remain electrically
disjoint ...  We employ a net ordering scheme with a move-to-front
heuristic: when infeasibility is encountered in routing a particular
net, that net will be routed earlier in subsequent routing phases."

The move-to-front loop is :class:`repro.engine.RoutingSession`'s; this
module routes the single nets it drives.  The per-net tree
construction is pluggable (`RouterConfig.algorithm`):
the Steiner family for wirelength/channel-width minimization (the
paper's headline IKMB results) or the arborescence family for
critical-path routing (Tables 4–5), plus the ``two_pin`` decomposition
baseline standing in for CGE/SEGA/GBP.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from ..arborescence.dom import dom, dom_tree_graph
from ..arborescence.djka import djka
from ..arborescence.idom import idom
from ..arborescence.pfa import pfa
from ..errors import DisconnectedError, GraphError, RoutingError
from ..fpga.architecture import Architecture
from ..fpga.netlist import PlacedCircuit, PlacedNet
from ..fpga.routing_graph import RoutingResourceGraph
from ..graph.core import Graph
from ..graph.search import SearchPolicy
from ..graph.shortest_paths import (
    ShortestPathCache,
    dijkstra,
    reconstruct_path,
)
from ..net import Net
from ..steiner.iterated import KMB_HEURISTIC, ZEL_HEURISTIC, igmst
from ..steiner.kmb import kmb, kmb_tree_graph
from ..steiner.tree import RoutingTree
from ..steiner.zelikovsky import zel, zel_tree_graph
from .config import RouterConfig
from .congestion import CongestionModel
from .result import NetRoute, measure_route


def steiner_candidates_near_tree(
    graph: Graph, tree: Graph, depth: int
) -> List:
    """Junction nodes within ``depth`` BFS hops of a seed tree.

    This is the router's practical Steiner-candidate pool for the
    iterated constructions: useful Steiner points live near the tree
    they would improve.  Pin nodes are excluded — a logic-block pin is
    an exclusive net terminal, never a through-route resource.
    """
    frontier = [n for n in tree.nodes if graph.has_node(n)]
    seen: Set = set(frontier)
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    tree_nodes = set(tree.nodes)
    # sort for cross-process determinism: `seen` is a set, whose
    # iteration order depends on the interpreter's hash randomization,
    # and candidate order breaks IGMST/IDOM ties
    return sorted(
        (
            n for n in seen
            if n not in tree_nodes and isinstance(n, tuple) and n[0] == "J"
        ),
        key=repr,
    )


def route_net_tree(
    graph: Graph,
    net: Net,
    cache: ShortestPathCache,
    algo: str,
    cfg: RouterConfig,
) -> RoutingTree:
    """Build one net's routing tree with the given tree algorithm.

    Module-level so the engine's executor workers (which may run in
    other processes) dispatch through exactly the same code path as the
    serial router — any divergence here would break the engine's
    serial/parallel equivalence.  ``two_pin`` is not a tree construction
    and is handled by the router itself.
    """
    if algo == "kmb":
        return kmb(graph, net, cache)
    if algo == "zel":
        return zel(graph, net, cache)
    if algo == "djka":
        return djka(graph, net, cache)
    if algo == "dom":
        return dom(graph, net, cache)
    if algo == "pfa":
        return pfa(graph, net, cache)
    if algo in ("ikmb", "izel"):
        heuristic = KMB_HEURISTIC if algo == "ikmb" else ZEL_HEURISTIC
        seed_fn = kmb_tree_graph if algo == "ikmb" else zel_tree_graph
        seed = seed_fn(graph, net.terminals, cache)
        candidates = steiner_candidates_near_tree(
            graph, seed, cfg.steiner_candidate_depth
        )
        return igmst(
            graph,
            net,
            heuristic=heuristic,
            cache=cache,
            candidates=candidates,
            max_steiner_nodes=cfg.max_steiner_nodes,
        )
    if algo == "idom":
        seed = dom_tree_graph(graph, net.source, net.sinks, cache)
        candidates = steiner_candidates_near_tree(
            graph, seed, cfg.steiner_candidate_depth
        )
        return idom(
            graph,
            net,
            cache=cache,
            candidates=candidates,
            max_steiner_nodes=cfg.max_steiner_nodes,
        )
    raise RoutingError(f"algorithm {algo!r} not dispatchable here")


class FPGARouter:
    """Routes the single nets of a circuit for a routing session.

    A router holds one architecture and one :class:`RouterConfig`.  It
    fixes the net order and the critical nets, and routes one net at a
    time on the session's routing graph and shortest-path cache; the
    session's move-to-front loop (:class:`repro.engine.RoutingSession`)
    drives it.
    """

    def __init__(self, arch: Architecture, config: Optional[RouterConfig] = None):
        self.arch = arch
        self.config = config or RouterConfig()

    def search_policy(self) -> SearchPolicy:
        """The policy of this router's negotiated searches.

        The Manhattan scale comes from the architecture
        (``min(segment_weight, pin_weight)``), so it stays admissible
        as pins attach/detach and negotiated costs raise edge weights.
        """
        return SearchPolicy.for_architecture(self.config.search, self.arch)

    # ------------------------------------------------------------------
    # net ordering
    # ------------------------------------------------------------------
    def _initial_order(self, nets: Sequence[PlacedNet]) -> List[PlacedNet]:
        cfg = self.config
        if cfg.order == "input":
            return list(nets)
        if cfg.order == "pins_desc":
            return sorted(nets, key=lambda n: (-n.num_pins, n.name))
        if cfg.order == "hpwl_desc":
            return sorted(
                nets, key=lambda n: (-n.half_perimeter(), n.name)
            )
        raise RoutingError(f"unknown order {cfg.order!r}")

    # ------------------------------------------------------------------
    # single-net routing
    # ------------------------------------------------------------------
    def _critical_names(self, circuit: PlacedCircuit) -> Set[str]:
        """Names of the nets routed with the critical-net algorithm.

        Explicit ``critical_nets`` wins; otherwise the top
        ``critical_fraction`` of nets by half-perimeter (the paper's
        long-path proxy: "nets through which long input-to-output paths
        pass may be designated as critical").
        """
        cfg = self.config
        if cfg.critical_algorithm is None:
            return set()
        if cfg.critical_nets is not None:
            return set(cfg.critical_nets)
        count = round(cfg.critical_fraction * circuit.num_nets)
        ranked = sorted(
            circuit.nets,
            key=lambda n: (-n.half_perimeter(), n.name),
        )
        return {n.name for n in ranked[:count]}

    def _route_two_pin_net(
        self,
        rrg: RoutingResourceGraph,
        net: Net,
        congestion: Optional[CongestionModel],
    ) -> Graph:
        """Route a net as independent source→sink two-pin connections.

        Models the decomposition strategy of CGE/SEGA-era routers: each
        connection is routed and committed separately, so connections
        of the same net cannot share wiring (only the source pin).  The
        union of the connection paths is returned as the net's "tree"
        for metric purposes; resources are committed incrementally.
        """
        graph = rrg.graph
        union = Graph()
        union.add_node(net.source)
        # Only the connection currently being routed may see its sink
        # pin: otherwise a connection could route *through* a sibling
        # sink's pin node, and committing the path would delete it.
        rrg.detach_pins(net.sinks)
        for sink in net.sinks:
            rrg.attach_pins([sink])
            if graph.degree(sink) == 0:
                raise DisconnectedError(net.source, sink)
            dist, pred = dijkstra(graph, net.source, targets=[sink])
            if sink not in dist:
                raise DisconnectedError(net.source, sink)
            path = reconstruct_path(pred, net.source, sink)
            path_tree = Graph()
            for u, v in zip(path, path[1:]):
                w = graph.weight(u, v)
                path_tree.add_edge(u, v, w)
                union.add_edge(u, v, rrg.base_weight(u, v))
            # commit immediately, but keep the source pin alive for the
            # remaining connections of this same net
            touched = rrg.commit(
                _without_node(path_tree, net.source)
            )
            if congestion is not None:
                congestion.reweight_groups(touched)
        if graph.has_node(net.source):
            graph.remove_node(net.source)
        return union

    def effective_algorithm(
        self, placed: PlacedNet, critical: Optional[Set[str]]
    ) -> str:
        """The tree algorithm this net routes with (critical-aware)."""
        algo = self.config.algorithm
        if critical and placed.name in critical:
            algo = self.config.critical_algorithm or algo
        return algo

    def _route_one(
        self,
        rrg: RoutingResourceGraph,
        placed: PlacedNet,
        congestion: Optional[CongestionModel],
        critical: Optional[Set[str]],
        cache: ShortestPathCache,
    ) -> Optional[NetRoute]:
        """Route a single net on the current graph; None on infeasibility.

        ``cache`` is the session's :class:`ShortestPathCache`, shared
        across nets and passes; it is purely memoizing and
        version-invalidated, so sharing it never changes a route.
        """
        net = placed.to_graph_net()
        algo = self.effective_algorithm(placed, critical)
        graph = rrg.graph
        rrg.attach_pins(net.terminals)
        for pin in net.terminals:
            if graph.degree(pin) == 0:
                rrg.detach_pins(net.terminals)
                return None
        # record the graph-optimal pathlengths *before* routing, for the
        # pathlength-stretch metrics of Table 5
        source_dist, _ = cache.sssp(net.source)
        optimal = {}
        for sink in net.sinks:
            if sink not in source_dist:
                rrg.detach_pins(net.terminals)
                return None
            optimal[sink] = _base_distance(rrg, cache, net.source, sink)
        try:
            if algo == "two_pin":
                tree = self._route_two_pin_net(rrg, net, congestion)
                route = measure_route(
                    placed.name,
                    "two_pin",
                    net.source,
                    net.sinks,
                    tree,
                    rrg.base_weight,
                    optimal_pathlengths=optimal,
                )
                return route
            result = route_net_tree(graph, net, cache, algo, self.config)
        except (DisconnectedError, GraphError):
            rrg.detach_pins(net.terminals)
            return None
        route = measure_route(
            placed.name,
            result.algorithm,
            net.source,
            net.sinks,
            result.tree,
            rrg.base_weight,
            optimal_pathlengths=optimal,
        )
        touched = rrg.commit(result.tree)
        if congestion is not None:
            congestion.reweight_groups(touched)
        return route


def _without_node(tree: Graph, node) -> Graph:
    """Copy of ``tree`` with ``node`` removed (if present)."""
    g = tree.copy()
    if g.has_node(node):
        g.remove_node(node)
    return g


def _base_distance(
    rrg: RoutingResourceGraph,
    cache: ShortestPathCache,
    source,
    sink,
) -> float:
    """Base-weight length of one congestion-shortest source→sink path.

    An approximation of the optimal base pathlength that reuses the
    already-computed congested shortest path (exact whenever congestion
    multipliers are uniform along the path, and always an upper bound
    within the current multiplier spread).
    """
    path = cache.path(source, sink)
    return sum(
        rrg.base_weight(u, v) for u, v in zip(path, path[1:])
    )

