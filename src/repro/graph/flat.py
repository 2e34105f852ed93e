"""Flat CSR graph core: int-indexed arrays behind the frozen-view API.

The dict-adjacency :class:`~repro.graph.core.Graph` is the right
substrate for *mutation* — committing a routed net deletes nodes,
congestion re-weighting touches edges — but it is the wrong substrate
for *search*: every Dijkstra relaxation pays several tuple hashes
(``seen``/``dist``/``pred`` lookups keyed by structured node tuples
like ``("J", x, y, side, track)``).  Production FPGA routers run on
flat integer-indexed routing-resource graphs for exactly this reason.

This module provides that representation:

* :class:`FlatGraph` — an immutable CSR (compressed-sparse-row)
  snapshot: ``indptr``/``indices``/``weights`` numpy arrays plus a node
  table mapping int ids back to the original node objects.  Node
  enumeration order and per-row neighbor order mirror the source
  graph's dict insertion order **exactly** — that is what lets the flat
  kernels reproduce a dict-adjacency search's tie-breaking bit for bit.
* :class:`GraphView` — a :class:`FlatGraph` stamped with the
  :attr:`Graph.version` it was frozen at.  ``Graph.freeze()`` memoizes
  one view per version, so any mutation transparently invalidates it.
* :meth:`FlatGraph.with_terminals` / :meth:`FlatGraph.overlay` — a
  snapshot with one-way *terminal* nodes appended (unreachable until
  attached), and a cheap copy-on-write per-query view that attaches a
  few of them.  PathFinder negotiation freezes the device once per
  route this way and gives every net reroute its own overlay.
* :func:`flat_dijkstra` / :func:`flat_negotiated_search` — the search
  kernels, over int ids.  They are the only shortest-path kernels in
  the package: :func:`~repro.graph.shortest_paths.dijkstra` and the
  :class:`~repro.graph.shortest_paths.ShortestPathCache` run the first
  on ``Graph.freeze()``, and PathFinder's
  :class:`~repro.graph.search.SearchPolicy` runs the second, as A* or
  as plain Dijkstra, on a frozen device.

Bit-identity contract
---------------------
:func:`flat_dijkstra` replays the event sequence of the textbook
search over the dict adjacency — one shared push counter, heap entries
``(key, counter, id)``, stale pops counted, the budget checked on every
pop, the same early-exit and cutoff tests in the same order — so its
``(dist, pred)`` maps equal that search's exactly: the same IEEE
doubles (the arithmetic ``d + w`` per relaxation happens in the same
order on the same values), the same settled sets, the same
tie-breaking, and the same dict *iteration order*: ``dist`` in
settlement order and ``pred`` in first-relaxation order.  Several
consumers are order-sensitive — PFA's ``pred.items()`` walk, the
dominance oracle's walk over the settled sequence.  The dict-adjacency
searches survive as the reference oracle of the test suites
(``tests/reference_kernels.py``), and the golden files in
``tests/differential/`` pin whole routes.
"""

from __future__ import annotations

import heapq
import weakref
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from ..errors import GraphError
from .core import Graph
from .shortest_paths import get_dijkstra_budget, get_dijkstra_counters

Node = Hashable
INF = float("inf")


def _extend_coords(
    coords: Tuple[np.ndarray, np.ndarray, np.ndarray],
    nodes: List[Node],
    n_old: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grow a lattice-coordinate table to cover appended node slots."""
    from .search import lattice_coordinate

    xs0, ys0, valid0 = coords
    n = len(nodes)
    if n == n_old:
        return coords
    xs = np.zeros(n, dtype=np.float64)
    ys = np.zeros(n, dtype=np.float64)
    valid = np.zeros(n, dtype=bool)
    xs[:n_old] = xs0
    ys[:n_old] = ys0
    valid[:n_old] = valid0
    for i in range(n_old, n):
        c = lattice_coordinate(nodes[i])
        if c is not None:
            xs[i] = c[0]
            ys[i] = c[1]
            valid[i] = True
    return (xs, ys, valid)


class FlatGraph:
    """An immutable int-indexed snapshot of an undirected weighted graph.

    Two interchangeable layouts of the same data:

    * **rows** — per-node Python lists of ``(neighbor id, weight)``
      pairs, the representation the search kernels iterate.  Built
      eagerly by :meth:`from_graph` (freezing is on the router's
      per-net critical path).
    * **CSR arrays** — ``indptr``/``indices``/``weights`` numpy arrays
      (node ``i``'s half-edges occupy ``indptr[i]:indptr[i+1]``),
      materialized lazily for pickling and the vectorized heuristic
      tables.

    Both the node enumeration and every row's neighbor order replicate
    the source graph's dict insertion order, so searches over the flat
    form break ties exactly like searches over the dict adjacency.

    Instances are cheap to pickle (three numpy arrays plus the node
    table) — the engine ships them to worker processes instead of full
    dict graphs — and :meth:`thaw` reconstructs an equivalent mutable
    :class:`Graph` with identical adjacency ordering on the other side.

    Weights are stored as float64; integer edge weights round-trip to
    the equal float value (``2 -> 2.0``).
    """

    __slots__ = (
        "nodes",
        "num_edges",
        "_indptr",
        "_indices",
        "_weights",
        "_index",
        "_rows",
        "_coords",
        "_mh_tables",
        "_num_ghosts",
    )

    def __init__(
        self,
        nodes: List[Node],
        indptr: Optional[np.ndarray],
        indices: Optional[np.ndarray],
        weights: Optional[np.ndarray],
        num_edges: int,
    ) -> None:
        self.nodes = nodes
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self.num_edges = num_edges
        self._index: Optional[Dict[Node, int]] = None
        self._rows: Optional[List[List[Tuple[int, float]]]] = None
        self._coords: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._mh_tables: Dict[Tuple[Node, float], List[float]] = {}
        # dead slots left behind by incremental refreezes (see
        # `refrozen`): entries of `nodes`/`rows` that no longer belong
        # to the graph.  They are unreachable (no surviving row
        # references them, and `_index` drops them), so the kernels
        # never visit one; only the node-enumeration surface and
        # pickling need to skip them.
        self._num_ghosts = 0

    @classmethod
    def from_graph(cls, graph: Graph) -> "FlatGraph":
        """Freeze ``graph`` into flat form, preserving insertion order.

        ``freeze()`` happens once per net on the live routing graph, so
        this path is the latency-critical one: it builds only the id
        table and the Python row lists the kernels iterate.  The CSR
        numpy arrays are derived lazily (:meth:`_materialize_arrays`)
        the first time something actually needs them — pickling, the
        vectorized Manhattan table — which keeps a freeze-then-search
        cycle cheaper than a single dict-kernel sweep.
        """
        adj = graph._adjacency
        nodes = list(adj)
        index = {u: i for i, u in enumerate(nodes)}
        rows = [
            [(index[v], float(w)) for v, w in nbrs.items()]
            for nbrs in adj.values()
        ]
        return cls._from_rows(nodes, index, rows, graph.num_edges)

    @classmethod
    def _from_rows(
        cls,
        nodes: List[Node],
        index: Dict[Node, int],
        rows: List[List[Tuple[int, float]]],
        num_edges: int,
    ) -> "FlatGraph":
        flat = cls(nodes, None, None, None, num_edges)
        flat._index = index
        flat._rows = rows
        return flat

    def with_terminals(
        self, taps: Dict[Node, Iterable[Tuple[Node, float]]]
    ) -> "FlatGraph":
        """A new snapshot: this one plus a one-way *terminal* per entry.

        Each key of ``taps`` is appended as a node, in order, whose row
        lists its ``(neighbor, weight)`` taps — with the semantics of
        one :meth:`Graph.add_edge` per tap: a repeated neighbor keeps
        its first position and takes the last weight, and a neighbor
        absent from this snapshot is dropped.  No existing row lists a
        terminal, so searches cannot reach one until an
        :meth:`overlay` attaches it.  The result is ghost-free, so it
        pickles as its arrays stand.
        """
        if self._num_ghosts:
            return FlatGraph.from_graph(self.thaw()).with_terminals(taps)
        nodes = list(self.nodes)
        index = dict(self.index)
        rows = list(self.rows())
        num_edges = self.num_edges
        for terminal, ends in taps.items():
            if terminal in index:
                raise GraphError(f"terminal {terminal!r} is already a node")
            row: Dict[int, float] = {}
            for end, w in ends:
                j = index.get(end)
                if j is not None:
                    row[j] = float(w)
            index[terminal] = len(nodes)
            nodes.append(terminal)
            rows.append(list(row.items()))
            num_edges += len(row)
        return FlatGraph._from_rows(nodes, index, rows, num_edges)

    def overlay(self, terminals: Iterable[Node]) -> "FlatGraph":
        """A per-query view of this snapshot with ``terminals`` attached.

        Each terminal (see :meth:`with_terminals`) is mirrored into its
        taps' rows: a tap's row becomes ``row + [(terminal, w)]``,
        terminals in the given order, repeats skipped.  These are
        exactly the rows that adding the terminals' edges to the source
        graph and refreezing would produce, so searches break ties
        identically.

        Copy-on-write: the overlay owns its rows list and the rows it
        patched; the node table, index and lattice coordinates are
        shared with this snapshot, which is never modified (concurrent
        overlays of one snapshot are safe).  Manhattan tables are
        memoized on the overlay and die with it.
        """
        index = self.index
        base = self.rows()
        rows = list(base)
        seen = set()
        for terminal in terminals:
            t = index.get(terminal)
            if t is None:
                raise GraphError(f"terminal {terminal!r} not in graph")
            if t in seen:
                continue
            seen.add(t)
            for j, w in base[t]:
                row = rows[j]
                if row is base[j]:
                    rows[j] = row + [(t, w)]
                else:
                    row.append((t, w))
        flat = FlatGraph._from_rows(self.nodes, index, rows, self.num_edges)
        flat._coords = self._coords
        return flat

    def refrozen(
        self,
        adj: Dict[Node, Dict[Node, float]],
        dirty: Iterable[Node],
        added: List[Node],
        num_edges: int,
    ) -> Optional["FlatGraph"]:
        """A new snapshot patched from this one, or None to force a
        full rebuild.

        ``Graph.freeze()`` calls this with the set of nodes whose
        adjacency changed (``dirty``) and the nodes added (``added``,
        in insertion order) since this snapshot was taken.  Only those
        rows are rebuilt; everything else — node slots, ids, unchanged
        rows — is shared structurally with this snapshot, which stays
        valid and immutable.  A routing pass mutates a handful of rows
        per net (pin taps, committed junctions, reweighted segments),
        so the per-net refreeze drops from O(V+E) to O(delta).

        Removed nodes keep their id as a dead *ghost* slot (an empty
        row, dropped from the index); a removed-then-re-added node gets
        a fresh id at the tail, which is exactly where dict insertion
        order puts it.  Ghosts are unreachable because every neighbor
        of a removed node is marked dirty, so each referencing row is
        rebuilt here.  Returns None — caller falls back to
        :meth:`from_graph` — when the delta or the accumulated ghosts
        outgrow the point where patching beats rebuilding.
        """
        rows_base = self._rows
        if rows_base is None:
            return None
        n = len(adj)
        if (len(dirty) + len(added)) * 8 > n:
            return None
        if (self._num_ghosts + len(added)) * 2 > n:
            return None
        index = dict(self.index)
        nodes = list(self.nodes)
        rows = list(rows_base)
        ghosts = self._num_ghosts
        for d in dirty:
            if d not in adj:
                i = index.pop(d, None)
                if i is not None:
                    rows[i] = []
                    ghosts += 1
        for nd in added:
            if nd not in adj:
                continue  # added then removed within the window
            old = index.get(nd)
            if old is not None:
                # re-added after a removal: retire the old slot so the
                # node's enumeration position moves to the tail, where
                # dict re-insertion order puts it
                rows[old] = []
                ghosts += 1
            i = len(nodes)
            nodes.append(nd)
            rows.append([])
            index[nd] = i
        for d in dirty:
            i = index.get(d)
            if i is not None:
                rows[i] = [
                    (index[v], float(w)) for v, w in adj[d].items()
                ]
        for nd in added:
            i = index.get(nd)
            if i is not None:
                rows[i] = [
                    (index[v], float(w)) for v, w in adj[nd].items()
                ]
        flat = FlatGraph._from_rows(nodes, index, rows, num_edges)
        flat._num_ghosts = ghosts
        if self._coords is not None:
            # node slots are append-only, so the lattice table carries
            # forward: recompute only the appended tail (ghost slots
            # keep their stale coords — nothing reaches them)
            flat._coords = _extend_coords(
                self._coords, nodes, len(self.nodes)
            )
        return flat

    def _materialize_arrays(self) -> None:
        """Build the CSR arrays from the row lists."""
        rows = self._rows
        if rows is None:  # pragma: no cover - unreachable via ctors
            raise GraphError("FlatGraph has neither rows nor arrays")
        indptr = [0]
        indices: List[int] = []
        weights: List[float] = []
        for row in rows:
            for j, w in row:
                indices.append(j)
                weights.append(w)
            indptr.append(len(indices))
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._weights = np.asarray(weights, dtype=np.float64)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (lazily materialized)."""
        if self._indptr is None:
            self._materialize_arrays()
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR neighbor-id array (lazily materialized)."""
        if self._indices is None:
            self._materialize_arrays()
        return self._indices

    @property
    def weights(self) -> np.ndarray:
        """CSR float64 weight array (lazily materialized)."""
        if self._weights is None:
            self._materialize_arrays()
        return self._weights

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes) - self._num_ghosts

    @property
    def index(self) -> Dict[Node, int]:
        """Node object -> int id (lazily rebuilt after unpickling).

        The lazy rebuild is only reachable on unpickled snapshots,
        which are ghost-free by construction (:meth:`__getstate__`
        compacts); a refrozen snapshot always carries its index.
        """
        if self._index is None:
            self._index = {u: i for i, u in enumerate(self.nodes)}
        return self._index

    def alive_nodes(self) -> List[Node]:
        """The graph's nodes in enumeration order, ghost slots skipped."""
        if not self._num_ghosts:
            return self.nodes
        index = self.index
        return [
            nd for i, nd in enumerate(self.nodes) if index.get(nd) == i
        ]

    def node_id(self, node: Node) -> int:
        try:
            return self.index[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def has_node(self, node: Node) -> bool:
        return node in self.index

    def rows(self) -> List[List[Tuple[int, float]]]:
        """Per-node ``(neighbor id, weight)`` lists — the kernel hot path.

        Plain Python lists: iterating numpy scalars inside the Dijkstra
        loop would cost more than the hashing it replaces.  A frozen
        snapshot carries its rows from birth; an unpickled one (worker
        shipping) rebuilds them here from the CSR arrays, recovering
        the identical float64 values via ``ndarray.tolist()``.
        """
        if self._rows is None:
            idx = self._indices.tolist()
            wts = self._weights.tolist()
            ptr = self._indptr.tolist()
            self._rows = [
                list(zip(idx[a:b], wts[a:b]))
                for a, b in zip(ptr, ptr[1:])
            ]
        return self._rows

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of edge ``{u, v}``; raises if absent."""
        ui = self.node_id(u)
        vi = self.node_id(v)
        for j, w in self.rows()[ui]:
            if j == vi:
                return w
        raise GraphError(f"edge ({u!r}, {v!r}) not in graph")

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Each undirected edge once, as ``(u, v, w)`` node objects."""
        nodes = self.nodes
        for i, row in enumerate(self.rows()):
            for j, w in row:
                if j > i:
                    yield (nodes[i], nodes[j], w)
                elif j == i:  # pragma: no cover - self-loops rejected
                    yield (nodes[i], nodes[j], w)

    # ------------------------------------------------------------------
    # lattice geometry (vectorized Manhattan heuristic support)
    # ------------------------------------------------------------------
    def lattice_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(xs, ys, valid)`` per node id; invalid coords are 0.0.

        ``valid[i]`` is False for nodes without a
        :func:`~repro.graph.search.lattice_coordinate`; the Manhattan
        table gives those nodes a bound of 0.0, exactly like the dict
        heuristic does.
        """
        if self._coords is None:
            from .search import lattice_coordinate

            n = len(self.nodes)
            xs = np.zeros(n, dtype=np.float64)
            ys = np.zeros(n, dtype=np.float64)
            valid = np.zeros(n, dtype=bool)
            for i, node in enumerate(self.nodes):
                c = lattice_coordinate(node)
                if c is not None:
                    xs[i] = c[0]
                    ys[i] = c[1]
                    valid[i] = True
            self._coords = (xs, ys, valid)
        return self._coords

    def manhattan_table(
        self, target: Node, scale: float
    ) -> Optional[List[float]]:
        """Per-id Manhattan bounds toward ``target``, or None.

        Each entry equals ``scale * (|x - tx| + |y - ty|)`` computed
        with the identical IEEE operation order as the scalar heuristic
        in :func:`~repro.graph.search.manhattan_heuristic`, so negotiated
        A* sees bit-identical ``f`` keys.  Nodes without a lattice
        coordinate get 0.0 (the scalar fallback).

        Tables are memoized per ``(target, scale)`` — the snapshot is
        immutable, and a negotiation iteration searches toward the same
        sink once per pass.
        """
        cached = self._mh_tables.get((target, scale))
        if cached is not None:
            return cached
        from .search import lattice_coordinate

        tc = lattice_coordinate(target)
        if tc is None:
            return None
        tx, ty = tc
        xs, ys, valid = self.lattice_arrays()
        h = scale * (np.abs(xs - tx) + np.abs(ys - ty))
        if not valid.all():
            h = np.where(valid, h, 0.0)
        table = h.tolist()
        self._mh_tables[(target, scale)] = table
        return table

    # ------------------------------------------------------------------
    # conversion / pickling
    # ------------------------------------------------------------------
    def thaw(self) -> Graph:
        """Reconstruct a mutable :class:`Graph` from this snapshot.

        The rebuilt adjacency has the identical node enumeration and
        per-node neighbor order as the graph this snapshot was frozen
        from, so ``freeze() -> thaw() -> freeze()`` is a fixpoint and
        searches over the thawed graph break ties identically.

        The thawed graph is born with this snapshot pre-installed as
        its frozen view: it *is* the CSR image of the adjacency just
        built, so the first ``freeze()`` after a few mutations (the
        worker's pin attachment, the per-pass reset) patches this view
        incrementally instead of rebuilding it from scratch.
        """
        nodes = self.nodes
        rows = self.rows()
        adj: Dict[Node, Dict[Node, float]] = {}
        if self._num_ghosts:
            index = self.index
            for i, row in enumerate(rows):
                nd = nodes[i]
                if index.get(nd) != i:
                    continue
                adj[nd] = {nodes[j]: w for j, w in row}
        else:
            for i, row in enumerate(rows):
                adj[nodes[i]] = {nodes[j]: w for j, w in row}
        g = Graph()
        g._adjacency = adj
        g._num_edges = self.num_edges
        g._frozen = GraphView(self, g._version, g)
        g._dirty = set()
        g._dirty_added = []
        return g

    def __getstate__(self):
        # ship the compact CSR arrays, never the Python row lists —
        # a worker batch pickles one FlatGraph per batch, and arrays
        # serialize in a fraction of the space and time.  A refrozen
        # snapshot compacts its ghost slots away first, so unpickled
        # snapshots are always dense.
        flat = self
        if self._num_ghosts:
            flat = FlatGraph.from_graph(self.thaw())
        return (
            flat.nodes,
            flat.indptr,
            flat.indices,
            flat.weights,
            flat.num_edges,
        )

    def __setstate__(self, state) -> None:
        (
            self.nodes,
            self._indptr,
            self._indices,
            self._weights,
            self.num_edges,
        ) = state
        self._index = None
        self._rows = None
        self._coords = None
        self._mh_tables = {}
        self._num_ghosts = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatGraph(|V|={self.num_nodes}, |E|={self.num_edges})"
        )


class GraphView:
    """A :class:`FlatGraph` stamped with the version it was frozen at.

    ``Graph.freeze()`` returns one of these and memoizes it until the
    next mutation; consumers holding a view can cheaply check whether
    it still describes a graph via :meth:`fresh`.  The search methods
    delegate to the flat kernels (see the module docstring).
    """

    __slots__ = ("flat", "version", "_source")

    def __init__(
        self, flat: FlatGraph, version: int, source: Optional[Graph] = None
    ) -> None:
        self.flat = flat
        self.version = version
        self._source = weakref.ref(source) if source is not None else None

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphView":
        return cls(FlatGraph.from_graph(graph), graph.version, graph)

    def fresh(self, graph: Graph) -> bool:
        """True while this view still describes ``graph`` — it was
        frozen *from this graph object* and the graph has not mutated
        since.  A different graph is never fresh, even at an equal
        version count."""
        if self._source is not None and self._source() is not graph:
            return False
        return graph.version == self.version

    @property
    def num_nodes(self) -> int:
        return self.flat.num_nodes

    @property
    def num_edges(self) -> int:
        return self.flat.num_edges

    @property
    def nodes(self) -> Iterable[Node]:
        return self.flat.alive_nodes()

    def has_node(self, node: Node) -> bool:
        return self.flat.has_node(node)

    def thaw(self) -> Graph:
        return self.flat.thaw()

    def sssp(
        self,
        source: Node,
        targets: Optional[Iterable[Node]] = None,
        cutoff: Optional[float] = None,
    ) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        return flat_dijkstra(
            self.flat, source, targets=targets, cutoff=cutoff
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphView({self.flat!r}, version={self.version})"


def flat_dijkstra(
    flat: FlatGraph,
    source: Node,
    targets: Optional[Iterable[Node]] = None,
    cutoff: Optional[float] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Plain Dijkstra over the CSR arrays.

    Bit-identical to the reference dict-adjacency Dijkstra on the graph
    ``flat`` was frozen from (see the module docstring): identical
    ``(dist, pred)`` values, identical tie-breaking, and identical dict
    iteration order (``dist`` in settlement order, ``pred`` in
    first-relaxation order).
    Budget checks and counter recording follow the same per-pop /
    per-call cadence as the dict kernel.

    One ``best`` array carries the whole seen/settled state: ``best[v]``
    is v's cheapest pushed label, frozen at the true distance once v
    settles.  The encoding is exact, not approximate — pushes improve
    ``best[v]`` strictly, so the entry carrying the current ``best[v]``
    is always the live one and a popped ``d > best[u]`` is precisely
    the dict kernel's stale pop; a settled node can never be re-pushed
    because ``nd = dist[u] + w >= dist[v]`` for non-negative weights.
    Push set, push order, settle order and stale-pop count therefore
    replay the dict kernel event for event.
    """
    index = flat.index
    src = index.get(source)
    if src is None:
        raise GraphError(f"source {source!r} not in graph")
    nodes = flat.nodes
    rows = flat.rows()
    n = len(nodes)

    # a target absent from the graph can never settle: like the dict
    # kernel's `remaining` set it holds the loop open to exhaustion
    remaining: Optional[set] = None
    missing = 0
    if targets is not None:
        remaining = set()
        absent = set()
        for t in targets:
            ti = index.get(t)
            if ti is None:
                absent.add(t)
            else:
                remaining.add(ti)
        remaining.discard(src)
        missing = len(absent)

    inf = INF
    best = [inf] * n
    pred_arr = [0] * n
    pred_order: List[int] = []
    dist: Dict[Node, float] = {}
    best[src] = 0.0
    counter = 0
    pops = 0
    budget = get_dijkstra_budget()
    heap: List[Tuple[float, int, int]] = [(0.0, 0, src)]
    heappop = heapq.heappop
    heappush = heapq.heappush
    if budget is None and remaining is None and cutoff is None:
        # hot path: the full unbudgeted SSSP the cache promotes
        while heap:
            d, _, u = heappop(heap)
            pops += 1
            if d > best[u]:
                continue
            dist[nodes[u]] = d
            for v, w in rows[u]:
                nd = d + w
                if nd < best[v]:
                    if best[v] == inf:
                        pred_order.append(v)
                    best[v] = nd
                    pred_arr[v] = u
                    counter += 1
                    heappush(heap, (nd, counter, v))
    else:
        while heap:
            d, _, u = heappop(heap)
            pops += 1
            if budget is not None:
                budget.check(pops, counter, backend="dijkstra")
            if d > best[u]:
                continue
            dist[nodes[u]] = d
            if remaining is not None:
                remaining.discard(u)
                if not remaining and not missing:
                    break
            for v, w in rows[u]:
                nd = d + w
                if nd < best[v]:
                    if cutoff is not None and nd > cutoff:
                        continue
                    if best[v] == inf:
                        pred_order.append(v)
                    best[v] = nd
                    pred_arr[v] = u
                    counter += 1
                    heappush(heap, (nd, counter, v))
    counters = get_dijkstra_counters()
    if counters is not None:
        counters.record(pops, counter, len(heap))
    pred: Dict[Node, Node] = {}
    for v in pred_order:
        pred[nodes[v]] = nodes[pred_arr[v]]
    return dist, pred


def flat_negotiated_search(
    flat: FlatGraph,
    sources,
    target: Node,
    factors: List[float],
    criticality: float = 0.0,
    heuristic=None,
    offsets=None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Multi-source negotiated-cost search over the CSR arrays.

    The PathFinder connection kernel: edge ``(u, v)`` with base weight
    ``w`` costs ``w * (crit + (1 - crit) * (factors[u] + factors[v]) /
    2)``, where ``factors`` is the cost provider's dense per-id
    multiplier table (every entry ``>= 1``, see
    ``SearchPolicy.negotiated_search``).  The rows themselves are never
    re-weighted — congestion lives entirely in ``factors`` — so one
    frozen device snapshot serves every net of an iteration: each net
    searches a :meth:`FlatGraph.overlay` that attaches just its own
    pins and shares the device's id space, and with it the factor
    table.

    Seeds settle at ``g = offsets[node]`` (default 0) in the order
    given (the deterministic tie-break the negotiation loop relies on);
    the search stops once ``target`` settles.  A seeded node reachable
    more cheaply from another seed is relaxed like any node and gains a
    ``pred`` entry.  Seeding a tree node at ``offsets[node]`` is
    equivalent to a super-source with weighted seed edges, so A*
    exactness is unaffected.  Unrelaxed seeds carry no predecessor, so
    walking ``pred`` back from ``target`` ends at a seed.  Manhattan
    heuristics (``heuristic.key[0] == "manhattan"``) run through the
    memoized per-id table (:meth:`FlatGraph.manhattan_table`), any
    other heuristic is called on node objects; with a heuristic that
    lower-bounds the *base* distance the search is exact goal-directed
    A* (factors ``>= 1`` never undercut the base weight).
    """
    index = flat.index
    tgt = index.get(target)
    if tgt is None:
        raise GraphError(f"target {target!r} not in graph")
    if not 0.0 <= criticality <= 1.0:
        raise GraphError(
            f"criticality must be in [0, 1], got {criticality}"
        )
    crit = criticality
    mix = (1.0 - crit) * 0.5
    nodes = flat.nodes
    rows = flat.rows()
    n = len(nodes)
    if len(factors) < n:
        raise GraphError(
            f"factor table covers {len(factors)} ids but the snapshot "
            f"has {n}"
        )

    table: Optional[List[float]] = None
    fn = heuristic
    if heuristic is not None:
        key = getattr(heuristic, "key", None)
        if key is not None and key[0] == "manhattan":
            table = flat.manhattan_table(target, key[1])

    inf = INF
    best = [inf] * n
    pred_arr = [-1] * n
    pred_order: List[int] = []
    dist: Dict[Node, float] = {}
    heap: List[Tuple[float, int, float, int]] = []
    counter = 0
    for s in sources:
        si = index.get(s)
        if si is None:
            raise GraphError(f"source {s!r} not in graph")
        if best[si] < inf:
            continue
        g0 = offsets.get(s, 0.0) if offsets else 0.0
        if g0 < 0.0:
            raise GraphError(f"negative source offset {g0} for {s!r}")
        best[si] = g0
        if fn is None:
            hs = 0.0
        elif table is not None:
            hs = table[si]
        else:
            hs = fn(nodes[si])
        heap.append((g0 + hs, counter, g0, si))
        counter += 1
    if not heap:
        raise GraphError("negotiated search needs at least one source")
    heapq.heapify(heap)
    pops = 0
    budget = get_dijkstra_budget()
    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        _, _, g, u = heappop(heap)
        pops += 1
        if budget is not None:
            budget.check(pops, counter, backend="negotiate")
        if nodes[u] in dist:
            continue
        dist[nodes[u]] = g
        if u == tgt:
            break
        fu = factors[u]
        for v, w in rows[u]:
            if nodes[v] in dist:
                continue
            ng = g + w * (crit + mix * (fu + factors[v]))
            if ng < best[v]:
                if fn is None:
                    hv = 0.0
                elif table is not None:
                    hv = table[v]
                else:
                    hv = fn(nodes[v])
                if hv == INF:
                    continue
                if pred_arr[v] < 0:
                    pred_order.append(v)
                best[v] = ng
                pred_arr[v] = u
                counter += 1
                heappush(heap, (ng + hv, counter, ng, v))
    counters = get_dijkstra_counters()
    if counters is not None:
        counters.record(pops, counter, len(heap))
    pred: Dict[Node, Node] = {}
    for v in pred_order:
        pred[nodes[v]] = nodes[pred_arr[v]]
    return dist, pred
