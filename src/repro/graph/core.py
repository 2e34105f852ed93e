"""Undirected weighted graph used as the routing substrate.

The paper models the FPGA as an arbitrary weighted graph ``G = (V, E)``
(Section 2, Figure 2): every wire segment and programmable switch is an
edge whose weight reflects wirelength plus congestion.  This module
provides that substrate as a small, dependency-free adjacency-dict graph
with the exact operations the routing algorithms need:

* cheap neighbor iteration (Dijkstra inner loop),
* edge removal (resources committed to a routed net are deleted),
* weight updates (congestion re-weighting between nets),
* a monotonically increasing :attr:`Graph.version` so shortest-path caches
  can tell when their memoized results became stale.

Nodes may be any hashable value; the FPGA layer uses structured tuples
(e.g. ``("h", x, y, track)``) while the algorithm test-suites mostly use
small integers and grid coordinates.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..errors import GraphError

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """A simple undirected graph with positive edge weights.

    Parallel edges are not supported (the FPGA model never needs them:
    distinct physical wires become distinct nodes/edges by construction),
    and self-loops are rejected.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge("a", "b", 2.0)
    >>> g.add_edge("b", "c", 1.0)
    >>> g.weight("a", "b")
    2.0
    >>> sorted(g.neighbors("b"))
    ['a', 'c']
    """

    __slots__ = (
        "_adjacency",
        "_num_edges",
        "_version",
        "_version_hooks",
        "_frozen",
        "_dirty",
        "_dirty_added",
        "__weakref__",
    )

    def __init__(self) -> None:
        self._adjacency: Dict[Node, Dict[Node, float]] = {}
        self._num_edges = 0
        self._version = 0
        self._version_hooks: List[Callable[[int], None]] = []
        self._frozen: Optional[object] = None
        # mutation delta since `_frozen` was built, for the incremental
        # refreeze: nodes whose adjacency row changed, and nodes added
        # (in insertion order).  None until a first freeze starts the
        # lineage — unfrozen graphs pay one None-check per mutation.
        self._dirty: Optional[set] = None
        self._dirty_added: List[Node] = []

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        """Advance the mutation counter and notify registered hooks."""
        self._version += 1
        if self._version_hooks:
            version = self._version
            for hook in self._version_hooks:
                hook(version)

    def add_version_hook(self, hook: Callable[[int], None]) -> None:
        """Register ``hook(version)`` to fire after every mutation.

        Hooks are the engine's observability tap: a
        :class:`~repro.engine.instrumentation.PassRecorder` counts graph
        mutations per routing pass without the router having to report
        them.  Hooks must be cheap and must not mutate the graph.
        """
        self._version_hooks.append(hook)

    def _touch(self, u: Node, v: Node) -> None:
        """Record ``u``/``v`` in the refreeze delta (rows changed)."""
        dirty = self._dirty
        if dirty is not None:
            dirty.add(u)
            dirty.add(v)
            if len(dirty) > 8192:
                # delta too large to be worth patching; stop tracking
                # until the next freeze restarts the lineage
                self._dirty = None
                self._dirty_added = []

    def add_node(self, node: Node) -> None:
        """Add ``node`` if not already present (idempotent)."""
        if node not in self._adjacency:
            self._adjacency[node] = {}
            if self._dirty is not None:
                self._dirty_added.append(node)
            self._bump()

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add an undirected edge ``{u, v}`` with the given ``weight``.

        Adding an edge that already exists overwrites its weight.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} not allowed")
        if weight < 0:
            raise GraphError(f"negative weight {weight} on edge ({u!r}, {v!r})")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adjacency[u]:
            self._num_edges += 1
        self._adjacency[u][v] = weight
        self._adjacency[v][u] = weight
        self._touch(u, v)
        self._bump()

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raise :class:`GraphError` if absent."""
        try:
            del self._adjacency[u][v]
            del self._adjacency[v][u]
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph") from None
        self._num_edges -= 1
        self._touch(u, v)
        self._bump()

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        try:
            neighbors = self._adjacency.pop(node)
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None
        for other in neighbors:
            del self._adjacency[other][node]
        self._num_edges -= len(neighbors)
        dirty = self._dirty
        if dirty is not None:
            dirty.add(node)
            dirty.update(neighbors)
            if len(dirty) > 8192:
                self._dirty = None
                self._dirty_added = []
        self._bump()

    def set_weight(self, u: Node, v: Node, weight: float) -> None:
        """Update the weight of an existing edge."""
        if weight < 0:
            raise GraphError(f"negative weight {weight} on edge ({u!r}, {v!r})")
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        self._adjacency[u][v] = weight
        self._adjacency[v][u] = weight
        self._touch(u, v)
        self._bump()

    def scale_weight(self, u: Node, v: Node, factor: float) -> None:
        """Multiply the weight of edge ``{u, v}`` by ``factor``."""
        self.set_weight(u, v, self.weight(u, v) * factor)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; bumped on every structural or weight change."""
        return self._version

    def has_node(self, node: Node) -> bool:
        return node in self._adjacency

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``{u, v}``; raises if the edge is absent."""
        try:
            return self._adjacency[u][v]
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph") from None

    def neighbors(self, node: Node) -> Iterable[Node]:
        try:
            return self._adjacency[node].keys()
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def neighbor_items(self, node: Node):
        """``(neighbor, weight)`` pairs — the Dijkstra hot path."""
        try:
            return self._adjacency[node].items()
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def degree(self, node: Node) -> int:
        try:
            return len(self._adjacency[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    @property
    def nodes(self) -> Iterable[Node]:
        return self._adjacency.keys()

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Iterate each undirected edge exactly once as ``(u, v, w)``."""
        seen = set()
        for u, nbrs in self._adjacency.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield (u, v, w)
            seen.add(u)

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # pickling (process-pool executors ship graph snapshots to workers;
    # version hooks are observer callbacks and do not travel)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self._adjacency, self._num_edges, self._version)

    def __setstate__(self, state) -> None:
        self._adjacency, self._num_edges, self._version = state
        self._version_hooks = []
        self._frozen = None
        self._dirty = None
        self._dirty_added = []

    # ------------------------------------------------------------------
    # frozen views
    # ------------------------------------------------------------------
    def freeze(self) -> "GraphView":  # noqa: F821 - forward ref
        """An immutable CSR snapshot of this graph (memoized).

        Returns a :class:`~repro.graph.flat.GraphView` whose flat
        int-indexed arrays mirror the current adjacency exactly —
        same node enumeration order, same per-node neighbor order —
        so the flat search kernels break ties exactly as a search over
        the dict adjacency would.  The view is cached per
        :attr:`version`: repeated calls between mutations are free,
        and any mutation (commit, uncommit, reweight, pin attach)
        transparently invalidates it.

        Refreezing after a mutation is *incremental*: the graph tracks
        which rows changed since the previous view, and the new view
        shares every untouched row with the old one (see
        :meth:`FlatGraph.refrozen`).  A routing net touches a handful
        of rows — pin taps, committed junctions, reweighted segments —
        so the per-net refreeze is O(delta), not O(V+E).
        """
        view = self._frozen
        if view is not None and view.version == self._version:
            return view
        from .flat import FlatGraph, GraphView

        flat = None
        if view is not None and self._dirty is not None:
            flat = view.flat.refrozen(
                self._adjacency,
                self._dirty,
                self._dirty_added,
                self._num_edges,
            )
        if flat is None:
            flat = FlatGraph.from_graph(self)
        view = GraphView(flat, self._version, self)
        self._frozen = view
        self._dirty = set()
        self._dirty_added = []
        return view

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Deep copy (independent adjacency; node objects are shared)."""
        g = Graph()
        g._adjacency = {u: dict(nbrs) for u, nbrs in self._adjacency.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Induced subgraph on ``nodes`` (nodes absent from G are ignored)."""
        keep = {n for n in nodes if n in self._adjacency}
        g = Graph()
        for n in keep:
            g.add_node(n)
        for u in keep:
            for v, w in self._adjacency[u].items():
                if v in keep and not g.has_edge(u, v):
                    g.add_edge(u, v, w)
        return g

    def edge_subgraph(
        self, edge_list: Iterable[Edge]
    ) -> "Graph":
        """Subgraph containing exactly ``edge_list`` (weights from G)."""
        g = Graph()
        for u, v in edge_list:
            g.add_edge(u, v, self.weight(u, v))
        return g

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def connected_component(self, start: Node) -> set:
        """Set of nodes reachable from ``start``."""
        if start not in self._adjacency:
            raise GraphError(f"node {start!r} not in graph")
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in self._adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def is_connected(self, within: Optional[Iterable[Node]] = None) -> bool:
        """True if the graph (or the given node subset) is mutually reachable.

        With ``within``, checks that all listed nodes lie in one connected
        component of the *full* graph (they need not induce a connected
        subgraph themselves) — exactly the feasibility question the router
        asks before attempting a net.
        """
        if within is not None:
            targets = list(within)
            if not targets:
                return True
            component = self.connected_component(targets[0])
            return all(t in component for t in targets)
        if not self._adjacency:
            return True
        first = next(iter(self._adjacency))
        return len(self.connected_component(first)) == self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={self.num_nodes}, |E|={self.num_edges})"


def edge_key(u: Node, v: Node) -> Edge:
    """Canonical (order-independent) key for an undirected edge.

    Uses a total order on ``repr`` when the nodes are not directly
    comparable, so mixed node types still produce a deterministic key.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)
