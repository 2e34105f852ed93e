"""PathFinder negotiated congestion (``RouterConfig.mode="negotiate"``).

The paper's router keeps nets electrically disjoint at all times: a
committed net's resources leave the graph, and congestion is resolved
by whole-pass rip-up with move-to-front reordering.  PathFinder — the
modern scalable alternative this module implements — inverts that:
**every net stays routed at all times**, resources may be transiently
overused, and each iteration rips up and reroutes one net at a time
against a cost model that makes contested resources progressively more
expensive until the overuse negotiates itself away.

Cost model
----------
A junction node ``n`` carries the classic present × (base + history)
cost, normalized to a unit base cost and expressed as a multiplicative
*factor* over the architecture's base edge weights:

    factor(n) = (1 + p · g^(i-1) · occ(n)) · (1 + hist(n))

where ``occ(n)`` counts the *other* nets currently occupying ``n``
(the net being rerouted is ripped up first), ``i`` is the iteration
number, ``g`` is ``RouterConfig.negotiate_growth`` (the present-cost
schedule sharpens geometrically every iteration — the standard
convergence pressure; sharing becomes prohibitively expensive long
before the iteration budget runs out), ``p`` is
``RouterConfig.negotiate_present_factor`` and ``hist(n)`` accumulates
``negotiate_history_gain · overuse`` for every iteration ``n`` ended
overused.  Pin nodes are exclusive terminals and always have factor 1.

An edge's negotiated weight is ``base(u, v) · (factor(u) + factor(v))
/ 2`` — symmetric, equal to the base weight on uncongested ground, and
never below it (factors are ≥ 1), which keeps the architecture's
Manhattan lower bound admissible for negotiated A*.  The
timing blend against per-connection slack ratios happens inside the
kernel (see :func:`repro.graph.flat.flat_negotiated_search` and
:mod:`repro.router.timing`).

Determinism
-----------
A *serial* negotiation is a deterministic function of (circuit,
architecture, config): net order is fixed, sink order within a net is
fixed by the slack table, tree-node seed order breaks search ties, and
history/occupancy tables are updated in sorted node order.  A recorded
trajectory golden (``tests/differential/test_negotiation_trajectory.py``)
pins the serial schedule pass by pass — negotiation blocks, Dijkstra
counters, final trees and optimal pathlengths.  The engine checkpoints
the full inter-iteration state (:meth:`NegotiationState.to_payload`),
so resume is bit-identical.  The independent checker
(``repro.validate``) is the correctness gate for every converged
result.

Graph
-----
Negotiation never consumes the device, so it is frozen once per route
(:meth:`~repro.fpga.routing_graph.RoutingResourceGraph.device_snapshot`)
and every net reroute searches a copy-on-write
:meth:`~repro.graph.flat.FlatGraph.overlay` that attaches just that
net's pins.  All overlays share the device's id space, which is what
lets :class:`NegotiationState` keep one dense factor table current by
patching it.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import CheckpointError, GraphError
from ..fpga.netlist import PlacedNet
from ..fpga.routing_graph import RoutingResourceGraph
from ..graph.core import Graph
from ..graph.flat import FlatGraph, flat_dijkstra
from ..graph.search import SearchPolicy
from ..net import Net
from .result import NetRoute, measure_route
from .timing import SlackTable

Node = Hashable

#: the algorithm tag stamped on negotiated routes/results.  It is
#: deliberately *not* in ``repro.validate.checker.ARBORESCENCE_ALGORITHMS``:
#: negotiated trees promise zero overuse, not shortest paths, so the
#: replay layer applies the occupancy/bookkeeping checks but skips the
#: arborescence distance assertions.
NEGOTIATE_ALGORITHM = "negotiate"

#: ceiling on the criticality fed into the search-cost blend.  A
#: connection at slack ratio exactly 1.0 would weight the negotiated
#: term by zero and ignore congestion entirely — two critical-path
#: connections contending for one junction could then never negotiate.
#: Capping the *blend* (the table itself still reports exact ratios,
#: critical sinks at 1.0) leaves even the most critical connection a
#: sliver of congestion pressure, which the unbounded history growth
#: eventually turns into a detour.
MAX_CRITICALITY = 0.95

#: exponent applied to the slack ratio before blending (``crit =
#: ratio^0.5``).  Elmore delay concentrates most connections in the
#: 0.3–0.8 ratio band; the concave transform pushes that mid-band
#: toward the delay objective so near-critical connections take direct
#: routes too, while genuinely slack connections still absorb the
#: detours.  Monotone, so it never reorders the reroute schedule.
CRITICALITY_EXPONENT = 0.5


def is_junction(node: Node) -> bool:
    """True for routing-graph junction nodes (the contended resources)."""
    return type(node) is tuple and len(node) == 5 and node[0] == "J"


def node_to_payload(node: Node) -> List:
    """JSON-encode a routing-graph node (tuple of str/int → list)."""
    return list(node)


def node_from_payload(obj) -> Tuple:
    """Decode :func:`node_to_payload` (list → tuple)."""
    if not isinstance(obj, list):
        raise CheckpointError(f"malformed node payload {obj!r}")
    return tuple(obj)


class FrozenFactorProvider:
    """A picklable point-in-time snapshot of negotiated node factors.

    The parallel engines ship one of these (sparse: only non-unit
    factors) to each worker, so a whole reroute chunk searches against
    identical frozen costs regardless of scheduling order.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Dict[Node, float]) -> None:
        self.factors = factors

    def node_factor(self, node: Node) -> float:
        return self.factors.get(node, 1.0)

    def factor_table(self, flat) -> List[float]:
        table = [1.0] * len(flat.nodes)
        index = flat.index
        for node, f in self.factors.items():
            i = index.get(node)
            if i is not None:
                table[i] = f
        return table


class NegotiationState:
    """Occupancy, history and per-net trees across iterations.

    Implements the cost provider protocol of
    :meth:`~repro.graph.search.SearchPolicy.negotiated_search`
    (:meth:`factor_table`), so it can be handed straight to
    ``policy.negotiated_search``.
    """

    __slots__ = (
        "present_factor",
        "history_gain",
        "growth",
        "iteration",
        "history",
        "occupancy",
        "trees",
        "_table",
        "_table_nodes",
        "_table_index",
    )

    def __init__(self, config) -> None:
        self.present_factor = config.negotiate_present_factor
        self.history_gain = config.negotiate_history_gain
        self.growth = config.negotiate_growth
        self.iteration = 1
        #: junction → accumulated history cost (monotone non-decreasing)
        self.history: Dict[Node, float] = {}
        #: junction → number of nets currently occupying it
        self.occupancy: Dict[Node, int] = {}
        #: net name → (ordered tree nodes, tree edges)
        self.trees: Dict[str, Tuple[List[Node], List[Tuple[Node, Node]]]] = {}
        #: the dense factor table, its id space (a snapshot's node
        #: list) and that id space's index; None until first asked for
        #: and after every whole-table change
        self._table: Optional[List[float]] = None
        self._table_nodes = None
        self._table_index: Optional[Dict[Node, int]] = None

    # ------------------------------------------------------------------
    # cost provider protocol
    # ------------------------------------------------------------------
    def node_factor(self, node: Node) -> float:
        """The present × history multiplier for ``node`` (≥ 1)."""
        if not is_junction(node):
            return 1.0
        occ = self.occupancy.get(node, 0)
        hist = self.history.get(node)
        if not occ and hist is None:
            return 1.0
        schedule = self.present_factor * self.growth ** (self.iteration - 1)
        present = 1.0 + schedule * occ
        return present * (1.0 + (hist or 0.0))

    def factor_table(self, flat) -> List[float]:
        """Dense per-id factors (``node_factor`` of every id) for the
        flat kernel.

        One table per id space, keyed on ``flat.nodes``: every overlay
        of the device snapshot shares the device's node table, so all
        nets of a route read the same list.  It is kept current
        incrementally — :meth:`add_tree` / :meth:`remove_tree` patch
        the entries of the tree's junctions — and rebuilt whole only
        after :meth:`begin_iteration` / :meth:`update_history`, which
        change every factor: at most once per iteration.
        """
        if self._table is None or self._table_nodes is not flat.nodes:
            self._build_table(flat)
        return self._table

    def _build_table(self, flat) -> None:
        table = [1.0] * len(flat.nodes)
        index = flat.index
        for node in self.occupancy:
            i = index.get(node)
            if i is not None:
                table[i] = self.node_factor(node)
        for node in self.history:
            if node in self.occupancy:
                continue
            i = index.get(node)
            if i is not None:
                table[i] = self.node_factor(node)
        self._table = table
        self._table_nodes = flat.nodes
        self._table_index = index

    def _patch_table(self, nodes: Sequence[Node]) -> None:
        """Refresh the table entries of ``nodes`` after an occupancy
        change (a no-op while there is no table)."""
        table = self._table
        if table is None:
            return
        index = self._table_index
        for n in nodes:
            if is_junction(n):
                i = index.get(n)
                if i is not None:
                    table[i] = self.node_factor(n)

    def sparse_factors(self) -> Dict[Node, float]:
        """All non-unit factors (what the parallel engines ship)."""
        out: Dict[Node, float] = {}
        for node in self.occupancy:
            out[node] = self.node_factor(node)
        for node in self.history:
            if node not in out:
                out[node] = self.node_factor(node)
        return out

    # ------------------------------------------------------------------
    # tree bookkeeping
    # ------------------------------------------------------------------
    def add_tree(
        self,
        name: str,
        nodes: Sequence[Node],
        edges: Sequence[Tuple[Node, Node]],
    ) -> None:
        if name in self.trees:
            raise GraphError(f"net {name!r} is already routed; rip it up first")
        self.trees[name] = (list(nodes), list(edges))
        occ = self.occupancy
        for n in nodes:
            if is_junction(n):
                occ[n] = occ.get(n, 0) + 1
        self._patch_table(nodes)

    def remove_tree(self, name: str) -> None:
        entry = self.trees.pop(name, None)
        if entry is None:
            return
        occ = self.occupancy
        for n in entry[0]:
            if is_junction(n):
                c = occ.get(n, 0) - 1
                if c <= 0:
                    occ.pop(n, None)
                else:
                    occ[n] = c
        self._patch_table(entry[0])

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self._table = None

    # ------------------------------------------------------------------
    # convergence accounting
    # ------------------------------------------------------------------
    def total_overuse(self) -> int:
        """Total excess claims over all junctions (0 ⇔ converged)."""
        return sum(c - 1 for c in self.occupancy.values() if c > 1)

    def overused_nodes(self) -> int:
        return sum(1 for c in self.occupancy.values() if c > 1)

    def overusing_nets(self) -> List[str]:
        """Names of nets touching at least one overused junction."""
        over = {n for n, c in self.occupancy.items() if c > 1}
        return sorted(
            name
            for name, (nodes, _) in self.trees.items()
            if any(n in over for n in nodes)
        )

    def update_history(self) -> None:
        """Accumulate history cost on every currently-overused junction.

        Monotone: entries only ever grow (the property-test contract).
        Sorted node order keeps the float sums machine-independent.
        """
        gain = self.history_gain
        hist = self.history
        for node in sorted(
            (n for n, c in self.occupancy.items() if c > 1), key=repr
        ):
            hist[node] = hist.get(node, 0.0) + gain * (
                self.occupancy[node] - 1
            )
        self._table = None

    def history_norm(self) -> float:
        """Σ history (summed in sorted node order — deterministic)."""
        return sum(self.history[n] for n in sorted(self.history, key=repr))

    def tree_graphs(self, base_weight) -> Dict[str, Graph]:
        """Every routed tree as a base-weighted :class:`Graph`."""
        out: Dict[str, Graph] = {}
        for name, (nodes, edges) in self.trees.items():
            g = Graph()
            if nodes:
                g.add_node(nodes[0])
            for u, v in edges:
                g.add_edge(u, v, base_weight(u, v))
            out[name] = g
        return out

    # ------------------------------------------------------------------
    # checkpoint payload
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """The full inter-iteration state as a JSON-safe document.

        Occupancy is derivable from the trees and the slack table from
        the trees plus the config, so neither is stored; history floats
        round-trip exactly through JSON (``repr`` serialization).
        """
        return {
            "iteration": self.iteration,
            "history": [
                [node_to_payload(n), self.history[n]]
                for n in sorted(self.history, key=repr)
            ],
            "trees": {
                name: {
                    "nodes": [node_to_payload(n) for n in nodes],
                    "edges": [
                        [node_to_payload(u), node_to_payload(v)]
                        for u, v in edges
                    ],
                }
                for name, (nodes, edges) in sorted(self.trees.items())
            },
        }

    @classmethod
    def from_payload(cls, config, payload) -> "NegotiationState":
        if not isinstance(payload, dict):
            raise CheckpointError("negotiation payload is not a document")
        state = cls(config)
        try:
            state.iteration = int(payload["iteration"])
            for node_obj, value in payload["history"]:
                state.history[node_from_payload(node_obj)] = float(value)
            for name, tree in payload["trees"].items():
                nodes = [node_from_payload(n) for n in tree["nodes"]]
                edges = [
                    (node_from_payload(u), node_from_payload(v))
                    for u, v in tree["edges"]
                ]
                state.add_tree(name, nodes, edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed negotiation payload "
                f"({type(exc).__name__}: {exc})"
            ) from None
        return state


def ordered_sinks(
    placed_name: str, net: Net, slack: Optional[SlackTable]
) -> List[Node]:
    """The net's sinks in decreasing criticality (input order on ties).

    Critical connections route first so they claim direct paths while
    the tree is small; Python's stable sort preserves the net's own
    sink order among equally-critical connections, keeping the
    schedule deterministic.
    """
    sinks = list(net.sinks)
    if slack is not None:
        sinks.sort(
            key=lambda s: -slack.criticality(placed_name, s)
        )
    return sinks


def route_connections(
    graph: FlatGraph,
    name: str,
    net: Net,
    provider,
    policy: SearchPolicy,
    slack: Optional[SlackTable] = None,
) -> Optional[Tuple[List[Node], List[Tuple[Node, Node]]]]:
    """Route one net sink-by-sink on ``graph`` under negotiated costs.

    ``graph`` is a frozen snapshot with the net's pins attached — the
    engine passes the net's overlay of the device snapshot
    (:meth:`~repro.graph.flat.FlatGraph.overlay`).  Each connection
    runs a multi-source search seeded from every node of the tree so
    far, so later connections reuse earlier wiring — the net's own
    resources are never double-counted.  Wirelength-only connections
    seed the whole tree for free (``g = 0`` everywhere); a
    timing-driven connection seeds each tree node with
    ``crit · tree_distance(source → node)``, charging it for the delay
    already accrued at its attachment point so critical sinks attach
    near the source instead of at the nearest wire.  Returns
    ``(ordered tree nodes, tree edges)``, or None when a pin is
    isolated or a sink is unreachable (statically infeasible: the
    negotiated graph is always the full pristine device).
    """
    index = graph.index
    rows = graph.rows()
    for pin in net.terminals:
        i = index.get(pin)
        if i is None or not rows[i]:
            return None
    nodes: List[Node] = [net.source]
    node_set = {net.source}
    edges: List[Tuple[Node, Node]] = []
    #: base distance from the source through the tree wiring so far
    tree_dist: Dict[Node, float] = {net.source: 0.0}
    for sink in ordered_sinks(name, net, slack):
        crit = (
            min(
                MAX_CRITICALITY,
                slack.criticality(name, sink) ** CRITICALITY_EXPONENT,
            )
            if slack is not None
            else 0.0
        )
        offsets = None
        if crit > 0.0:
            offsets = {n: crit * tree_dist[n] for n in nodes}
        dist, pred = policy.negotiated_search(
            graph, nodes, sink, provider, crit, offsets=offsets
        )
        if sink not in dist:
            return None
        # walk back to the first node already in the tree: with seed
        # offsets a seed may itself have been relaxed through another
        # seed, so stopping at tree membership (not pred exhaustion)
        # keeps the attachment path disjoint from existing wiring
        path = [sink]
        u = sink
        while u not in node_set:
            u = pred[u]
            path.append(u)
        path.reverse()
        for a, b in zip(path, path[1:]):
            edges.append((a, b))
            if b not in node_set:
                node_set.add(b)
                nodes.append(b)
                tree_dist[b] = tree_dist[a] + graph.edge_weight(a, b)
    return nodes, edges


def build_route(
    rrg: RoutingResourceGraph,
    device: FlatGraph,
    placed: PlacedNet,
    edges: Sequence[Tuple[Node, Node]],
) -> NetRoute:
    """Measure a converged negotiated tree into a :class:`NetRoute`.

    Metrics are in base weights, like every other mode.  The optimal
    pathlengths are *true* base-graph optima (negotiation never removes
    resources, so the net's overlay of the pristine ``device`` snapshot
    is exactly the routing instance) — stronger than the paper modes'
    congested-path approximation.
    """
    net = placed.to_graph_net()
    tree = Graph()
    tree.add_node(net.source)
    for u, v in edges:
        tree.add_edge(u, v, rrg.base_weight(u, v))
    dist, _ = flat_dijkstra(
        device.overlay(net.terminals), net.source, targets=tuple(net.sinks)
    )
    optimal = {s: dist[s] for s in net.sinks if s in dist}
    return measure_route(
        placed.name,
        NEGOTIATE_ALGORITHM,
        net.source,
        net.sinks,
        tree,
        rrg.base_weight,
        optimal_pathlengths=optimal,
    )
