"""Goal-directed shortest-path kernels: A*, bidirectional Dijkstra, ALT.

Every construction in the paper — the KMB/Mehlhorn metric closures, the
dominance predicates of Section 4, and the router's maze expansion —
bottoms out in :func:`repro.graph.shortest_paths.dijkstra`, so it is the
hottest path in the codebase.  Goal-oriented search with admissible
lower bounds (Hougardy et al., *Dijkstra meets Steiner*) prunes most of
the frontier while preserving exactness, and production FPGA routers
run exactly this shape of A* over the routing-resource graph.  This
module provides the kernels; :class:`SearchPolicy` packages them for
:class:`~repro.graph.shortest_paths.ShortestPathCache`.

Exactness contract
------------------
* :func:`astar` with an *admissible and consistent* heuristic settles
  nodes with their exact distance, so ``dist[target]`` equals the plain
  Dijkstra distance whenever ``target`` is reachable.
* :func:`bidirectional_dijkstra` uses the standard two-frontier
  stopping rule (``top_f + top_b >= mu``) and returns the exact
  distance.
* Neither kernel reproduces plain Dijkstra's equal-cost tie-breaking
  (A* pops by ``g + h``, the bidirectional search meets in the middle),
  so the cache wiring uses them **only for distance queries**.
  Canonical *paths* always come from plain — possibly early-exit —
  Dijkstra runs: an early-exit run executes an identical prefix of the
  full run, and a settled node's ``(dist, pred)`` never changes after
  settling, so the paths it yields are bit-identical to the full run's.

Heuristics
----------
:func:`manhattan_heuristic` is the channel-lattice lower bound for FPGA
routing graphs: junction ``("J", x, y, side, track)`` sits at lattice
point ``(x, y)``, pin ``("P", bx, by, p)`` at the block centre
``(bx + 0.5, by + 0.5)``, and plain ``(x, y)`` grid nodes at
themselves.  With ``scale`` a lower bound on ``weight / L1-displacement``
over every displacement edge, ``h(v) = scale · L1(v, target)`` is
admissible and consistent: an edge moving ``d ≤ 1`` in L1 costs at
least ``scale · d``, so ``h`` can never drop faster than the edge
weight.  :class:`LandmarkIndex` provides the general-graph fallback
(ALT lower bounds via the triangle inequality), precomputed per
:attr:`Graph.version`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import GraphError
from .core import Graph
from .flat import (
    GRAPH_BACKENDS,
    FlatGraph,
    flat_negotiated_search,
    resolve_graph_backend,
)
from .shortest_paths import (
    dijkstra,
    get_dijkstra_budget,
    get_dijkstra_counters,
    reconstruct_path,
)

Node = Hashable
INF = float("inf")

#: the RouterConfig.search vocabulary
SEARCH_BACKENDS = ("dijkstra", "astar", "bidir", "auto")


class Heuristic:
    """A lower-bound function plus a hashable identity.

    ``key`` identifies the heuristic for cache keying — two heuristics
    with equal keys must compute identical bounds.
    """

    __slots__ = ("fn", "key")

    def __init__(self, fn: Callable[[Node], float], key: Tuple) -> None:
        self.fn = fn
        self.key = key

    def __call__(self, node: Node) -> float:
        return self.fn(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Heuristic({self.key!r})"


def lattice_coordinate(node: Node) -> Optional[Tuple[float, float]]:
    """The (x, y) lattice position of a routing-graph or grid node.

    Recognizes the :mod:`repro.fpga.routing_graph` node vocabulary —
    ``("J", x, y, side, track)`` junctions and ``("P", bx, by, p)``
    pins (placed at the block centre) — plus bare ``(x, y)`` pairs from
    :func:`repro.graph.generators.grid_graph`.  Returns None for
    anything else.
    """
    if type(node) is not tuple:
        return None
    n = len(node)
    if n == 5 and node[0] == "J":
        x, y = node[1], node[2]
        if isinstance(x, (int, float)) and isinstance(y, (int, float)):
            return (float(x), float(y))
    elif n == 4 and node[0] == "P":
        bx, by = node[1], node[2]
        if isinstance(bx, (int, float)) and isinstance(by, (int, float)):
            return (float(bx) + 0.5, float(by) + 0.5)
    elif n == 2:
        x, y = node
        if (
            isinstance(x, (int, float))
            and isinstance(y, (int, float))
            and not isinstance(x, bool)
            and not isinstance(y, bool)
        ):
            return (float(x), float(y))
    return None


def lattice_scale(graph: Graph) -> Optional[float]:
    """The admissible Manhattan scale for ``graph``, or None.

    Scans every edge: each endpoint must have a
    :func:`lattice_coordinate` and no edge may move more than one unit
    of L1 distance.  The scale is the minimum ``weight / displacement``
    over the displacement edges — the largest factor for which
    ``scale · L1(v, t)`` is still a lower bound on the true distance.
    Returns None when the graph is not a unit lattice (or a
    displacement edge has zero weight, which would make the bound
    vacuous).
    """
    scale = INF
    for u, v, w in graph.edges():
        cu = lattice_coordinate(u)
        if cu is None:
            return None
        cv = lattice_coordinate(v)
        if cv is None:
            return None
        d = abs(cu[0] - cv[0]) + abs(cu[1] - cv[1])
        if d > 1.0 + 1e-9:
            return None
        if d > 1e-12:
            ratio = w / d
            if ratio < scale:
                scale = ratio
    if scale == INF or scale <= 0.0:
        return None
    return scale


def manhattan_heuristic(
    graph: Graph, target: Node, scale: Optional[float] = None
) -> Optional[Heuristic]:
    """Channel-lattice Manhattan lower bound toward ``target``.

    ``scale`` is the per-unit-L1 weight lower bound; omitted, it is
    derived (and verified) from the graph via :func:`lattice_scale`.
    Returns None when no admissible bound can be formed (no target
    coordinate, or the graph is not a lattice).
    """
    tc = lattice_coordinate(target)
    if tc is None:
        return None
    if scale is None:
        scale = lattice_scale(graph)
        if scale is None:
            return None
    tx, ty = tc

    def h(node: Node) -> float:
        c = lattice_coordinate(node)
        if c is None:
            return 0.0
        return scale * (abs(c[0] - tx) + abs(c[1] - ty))

    return Heuristic(h, ("manhattan", scale, target))


class LandmarkIndex:
    """ALT (A*, Landmarks, Triangle inequality) lower bounds.

    ``k`` landmarks are chosen by deterministic farthest-point
    selection (first landmark = smallest node by ``repr``; each next
    landmark maximizes the distance to the chosen set, unreachable
    nodes counting as farthest so every component gets covered).  One
    full Dijkstra per landmark is precomputed; the index is valid for
    exactly one :attr:`Graph.version` (check :meth:`fresh`).

    ``h(v) = max_L |d(L, target) − d(L, v)|`` is admissible and
    consistent by the triangle inequality; landmark maps missing either
    endpoint contribute nothing (0), which keeps the bound admissible
    on disconnected graphs.
    """

    def __init__(self, graph: Graph, k: int = 4) -> None:
        if k < 1:
            raise GraphError(f"landmark count must be >= 1, got {k}")
        self._graph = graph
        self._version = graph.version
        nodes = sorted(graph.nodes, key=repr)
        self._landmarks: List[Node] = []
        self._maps: List[Dict[Node, float]] = []
        if not nodes:
            return
        k = min(k, len(nodes))
        current = nodes[0]
        while len(self._landmarks) < k:
            self._landmarks.append(current)
            self._maps.append(dijkstra(graph, current)[0])
            if len(self._landmarks) == k:
                break
            best = None
            best_d = -1.0
            for n in nodes:
                if n in self._landmarks:
                    continue
                dmin = min(m.get(n, INF) for m in self._maps)
                if dmin > best_d:
                    best_d = dmin
                    best = n
            if best is None:  # pragma: no cover - k capped at |V|
                break
            current = best

    @property
    def landmarks(self) -> Tuple[Node, ...]:
        return tuple(self._landmarks)

    def fresh(self, graph: Graph) -> bool:
        """True while the index still describes ``graph``."""
        return graph is self._graph and graph.version == self._version

    def heuristic(self, target: Node) -> Heuristic:
        rows = [(m, m.get(target, INF)) for m in self._maps]

        def h(node: Node) -> float:
            best = 0.0
            for m, dt in rows:
                if dt == INF:
                    continue
                dv = m.get(node, INF)
                if dv == INF:
                    continue
                diff = dt - dv
                if diff < 0.0:
                    diff = -diff
                if diff > best:
                    best = diff
            return best

        return Heuristic(
            h, ("alt", self._version, len(self._landmarks), target)
        )


def astar(
    graph: Graph,
    source: Node,
    target: Node,
    heuristic: Callable[[Node], float],
    cutoff: Optional[float] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Goal-directed Dijkstra (A*) from ``source`` toward ``target``.

    ``heuristic`` must be an admissible, consistent lower bound on the
    distance to ``target`` (see the module docstring); under that
    contract every settled node carries its exact distance, and the
    search stops as soon as ``target`` is settled.  A node whose
    heuristic is infinite is provably unable to reach the target and is
    pruned outright.

    Returns ``(dist, pred)`` over the settled prefix, exactly like
    :func:`~repro.graph.shortest_paths.dijkstra` — but note the settled
    *set* and the ``pred`` tie-breaking differ from plain Dijkstra's,
    so the result must never be cached as a plain run (the
    :class:`~repro.graph.shortest_paths.ShortestPathCache` keys kernel
    results separately for exactly this reason).
    """
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} not in graph")
    if not graph.has_node(target):
        raise GraphError(f"target {target!r} not in graph")
    dist: Dict[Node, float] = {}
    pred: Dict[Node, Node] = {}
    seen = {source: 0.0}
    counter = 0
    pops = 0
    budget = get_dijkstra_budget()
    # (f = g + h, tie counter, g, node): the explicit g avoids deriving
    # it from f by float subtraction
    heap: List[Tuple[float, int, float, Node]] = [
        (heuristic(source), 0, 0.0, source)
    ]
    while heap:
        _, _, g, u = heapq.heappop(heap)
        pops += 1
        if budget is not None:
            budget.check(pops, counter, backend="astar")
        if u in dist:
            continue
        dist[u] = g
        if u == target:
            break
        for v, w in graph.neighbor_items(u):
            if v in dist:
                continue
            ng = g + w
            if cutoff is not None and ng > cutoff:
                continue
            if v not in seen or ng < seen[v]:
                hv = heuristic(v)
                if hv == INF:
                    continue
                seen[v] = ng
                pred[v] = u
                counter += 1
                heapq.heappush(heap, (ng + hv, counter, ng, v))
    counters = get_dijkstra_counters()
    if counters is not None:
        counters.record(pops, counter, len(heap))
    return dist, pred


def bidirectional_dijkstra(
    graph: Graph, source: Node, target: Node
) -> Tuple[float, Optional[List[Node]]]:
    """Two-frontier Dijkstra for a single ``source → target`` query.

    Expands the frontier with the smaller tentative key (forward on
    ties) and stops once the frontier keys sum past the best meeting
    cost — the standard exact stopping rule.  Returns ``(distance,
    path)``; ``(inf, None)`` when the endpoints are disconnected.  The
    distance is re-accumulated in forward edge order along the found
    path so it is bit-identical to what any forward kernel computes for
    that path (the meeting-rule sum adds the backward half in reverse
    order, which float non-associativity can shift by one ulp).  The
    path is *a* shortest path whose tie-breaking differs from plain
    Dijkstra's, so it is never used where canonical paths are required.
    """
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} not in graph")
    if not graph.has_node(target):
        raise GraphError(f"target {target!r} not in graph")
    if source == target:
        return 0.0, [source]
    budget = get_dijkstra_budget()
    dist_f: Dict[Node, float] = {}
    dist_b: Dict[Node, float] = {}
    seen_f = {source: 0.0}
    seen_b = {target: 0.0}
    pred_f: Dict[Node, Node] = {}
    pred_b: Dict[Node, Node] = {}
    heap_f: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    heap_b: List[Tuple[float, int, Node]] = [(0.0, 0, target)]
    counter = 0
    pops = 0
    best = INF
    meet: Optional[Node] = None
    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            heap, dist, seen = heap_f, dist_f, seen_f
            pred, other_dist, other_seen = pred_f, dist_b, seen_b
        else:
            heap, dist, seen = heap_b, dist_b, seen_b
            pred, other_dist, other_seen = pred_b, dist_f, seen_f
        d, _, u = heapq.heappop(heap)
        pops += 1
        if budget is not None:
            budget.check(pops, counter, backend="bidir")
        if u in dist:
            continue
        dist[u] = d
        du_other = other_dist.get(u)
        if du_other is not None and d + du_other < best:
            best = d + du_other
            meet = u
        for v, w in graph.neighbor_items(u):
            if v in dist:
                continue
            nd = d + w
            if v not in seen or nd < seen[v]:
                seen[v] = nd
                pred[v] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
            dv_other = other_seen.get(v)
            if dv_other is not None and nd + dv_other < best:
                # any tentative other-side label is a realizable path
                # length, so this only ever tightens the bound
                best = nd + dv_other
                meet = v
    counters = get_dijkstra_counters()
    if counters is not None:
        counters.record(pops, counter, len(heap_f) + len(heap_b))
    if meet is None:
        return INF, None
    path = reconstruct_path(pred_f, source, meet)
    node = meet
    while node != target:
        node = pred_b[node]
        path.append(node)
    # re-accumulate the distance in forward order along the found path:
    # ``best`` sums the backward half in reverse edge order, and float
    # addition is not associative, so it can sit one ulp away from the
    # forward-order sum every other kernel produces
    d = 0.0
    for a, b in zip(path, path[1:]):
        d += graph.weight(a, b)
    return d, path


def multi_target_dijkstra(
    graph: Graph, source: Node, targets: Sequence[Node]
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Early-exit Dijkstra that stops once every target is settled.

    A thin named wrapper over ``dijkstra(graph, source, targets=...)``
    documenting the property the cache wiring relies on: the early-exit
    run executes an identical prefix of the full run, so the distances
    *and predecessors* of every settled node — in particular every
    reachable target — are bit-identical to the full run's.
    """
    return dijkstra(graph, source, targets=targets)


class SearchPolicy:
    """How a :class:`ShortestPathCache` answers point-to-point queries.

    Parameters
    ----------
    backend:
        One of :data:`SEARCH_BACKENDS`.  ``"dijkstra"`` keeps the plain
        kernel everywhere (the reference profile); ``"astar"`` uses
        goal-directed search for pair distances when a heuristic is
        available (falling back to the bidirectional kernel);
        ``"bidir"`` always uses the bidirectional kernel; ``"auto"``
        picks A* when a heuristic can be derived, else bidirectional.
    heuristic_scale:
        Trusted per-unit-L1 weight lower bound.  The router supplies
        ``min(segment_weight, pin_weight)`` from the architecture,
        which skips the O(E) lattice verification scan and — unlike a
        scale derived from the current edge set — stays admissible as
        pin edges are attached and detached mid-pass.  Callers
        providing it assert that every node on any path has a
        :func:`lattice_coordinate` and every edge satisfies
        ``weight ≥ scale · L1-displacement``.
    landmarks:
        When > 0, build a :class:`LandmarkIndex` of that many landmarks
        for graphs that are not lattices.  The index costs one full
        Dijkstra per landmark and is rebuilt whenever the graph
        version changes — intended for static general graphs, never
        for the mutating routing graph.
    graph_backend:
        One of :data:`~repro.graph.flat.GRAPH_BACKENDS`.  ``"flat"``
        runs every plain and goal-directed kernel over the graph's
        frozen CSR view (``Graph.freeze()``); ``"dict"`` keeps the
        historical dict-adjacency kernels; ``"auto"`` (default) picks
        flat once the graph is large enough to amortize the freeze.
        The flat kernels are bit-identical to the dict kernels, so
        this switch changes throughput, never results.  It does not
        apply to :meth:`negotiated_search`, which always searches a
        frozen snapshot.

    All distances computed through a policy are exact, so any backend
    may share a cache's pair-distance store; the policy's :meth:`key`
    still participates in cache keying so that differently-configured
    runs are never conflated.
    """

    __slots__ = (
        "backend",
        "heuristic_scale",
        "landmarks",
        "graph_backend",
        "_scale_graph",
        "_scale_version",
        "_scale",
        "_alt",
    )

    def __init__(
        self,
        backend: str = "auto",
        *,
        heuristic_scale: Optional[float] = None,
        landmarks: int = 0,
        graph_backend: str = "auto",
    ) -> None:
        if backend not in SEARCH_BACKENDS:
            raise GraphError(
                f"unknown search backend {backend!r}; "
                f"expected one of {SEARCH_BACKENDS}"
            )
        if heuristic_scale is not None and heuristic_scale <= 0:
            raise GraphError(
                f"heuristic_scale must be positive, got {heuristic_scale}"
            )
        if landmarks < 0:
            raise GraphError(f"landmarks must be >= 0, got {landmarks}")
        if graph_backend not in GRAPH_BACKENDS:
            raise GraphError(
                f"unknown graph backend {graph_backend!r}; "
                f"expected one of {GRAPH_BACKENDS}"
            )
        self.backend = backend
        self.heuristic_scale = heuristic_scale
        self.landmarks = landmarks
        self.graph_backend = graph_backend
        self._scale_graph: Optional[int] = None
        self._scale_version: Optional[int] = None
        self._scale: Optional[float] = None
        self._alt: Optional[LandmarkIndex] = None

    @classmethod
    def for_architecture(
        cls, backend: str, arch, graph_backend: str = "auto"
    ) -> "SearchPolicy":
        """The router's policy: Manhattan scale from the architecture.

        ``min(segment_weight, pin_weight)`` bounds the cost of any
        unit-L1 move on the routing-resource graph (switch edges do not
        displace), independent of congestion multipliers (which only
        increase weights) and of which pins are currently attached.
        """
        scale = min(arch.segment_weight, arch.pin_weight)
        if scale <= 0:
            return cls(backend, graph_backend=graph_backend)
        return cls(
            backend,
            heuristic_scale=scale,
            graph_backend=graph_backend,
        )

    def key(self) -> Tuple:
        """Hashable identity (backend + heuristic configuration)."""
        return (
            self.backend,
            self.heuristic_scale,
            self.landmarks,
            self.graph_backend,
        )

    def graph_kernel(self, graph: Graph) -> str:
        """``"flat"`` or ``"dict"`` — the plain kernel for ``graph``."""
        return resolve_graph_backend(self.graph_backend, graph)

    def plain_sssp(
        self,
        graph: Graph,
        source: Node,
        targets=None,
        cutoff: Optional[float] = None,
    ):
        """Plain (possibly limited) Dijkstra via the resolved backend.

        This is the cache's entry point for every canonical run: the
        flat and dict kernels return bit-identical ``(dist, pred)``
        maps, so which one executes is purely a throughput choice.
        """
        if self.graph_kernel(graph) == "flat":
            return graph.freeze().sssp(
                source, targets=targets, cutoff=cutoff
            )
        return dijkstra(graph, source, targets=targets, cutoff=cutoff)

    def _scale_for(self, graph: Graph) -> Optional[float]:
        if self.heuristic_scale is not None:
            return self.heuristic_scale
        if (
            self._scale_graph != id(graph)
            or self._scale_version != graph.version
        ):
            self._scale = lattice_scale(graph)
            self._scale_graph = id(graph)
            self._scale_version = graph.version
        return self._scale

    def heuristic_for(
        self, graph: Graph, target: Node
    ) -> Optional[Heuristic]:
        """An admissible heuristic toward ``target``, or None."""
        scale = self._scale_for(graph)
        if scale is not None:
            h = manhattan_heuristic(graph, target, scale=scale)
            if h is not None:
                return h
        if self.landmarks > 0:
            if self._alt is None or not self._alt.fresh(graph):
                self._alt = LandmarkIndex(graph, self.landmarks)
            return self._alt.heuristic(target)
        return None

    def negotiated_search(
        self,
        flat: FlatGraph,
        sources: Sequence[Node],
        target: Node,
        provider,
        criticality: float = 0.0,
        offsets: Optional[Dict[Node, float]] = None,
    ) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        """Multi-source negotiated-cost search over a frozen snapshot.

        The PathFinder cost seam: ``provider.factor_table(flat)``
        supplies a dense per-id list of present × history multipliers,
        and :func:`~repro.graph.flat.flat_negotiated_search` blends it
        into the edge weights on the fly, so the graph is never
        re-weighted per query.  The negotiation loop freezes the device
        once per route and searches each net on a per-net
        :meth:`~repro.graph.flat.FlatGraph.overlay` of it; every
        overlay shares the device's id space, so one frozen snapshot
        and one factor table serve every net of an iteration.  Factors
        must be ``>= 1``: the blended cost then never undercuts the
        base weight, which keeps this policy's base-metric Manhattan
        heuristic admissible for the goal-directed backends.

        Backend mapping: ``"dijkstra"`` runs the plain multi-source
        kernel; ``"astar"``/``"auto"`` go goal-directed when a
        Manhattan bound is available (ALT landmarks index mutable
        graphs and do not apply here); ``"bidir"`` has no multi-source
        two-frontier form and deliberately degrades to the plain
        kernel (documented in ``docs/pathfinder.md``).
        """
        heuristic = None
        if self.backend in ("astar", "auto"):
            scale = self.heuristic_scale
            if scale is None:
                scale = lattice_scale(flat)
            if scale is not None:
                heuristic = manhattan_heuristic(flat, target, scale=scale)
        return flat_negotiated_search(
            flat,
            sources,
            target,
            provider.factor_table(flat),
            criticality,
            heuristic=heuristic,
            offsets=offsets,
        )

    def pair_distance(self, graph: Graph, u: Node, v: Node) -> float:
        """Exact ``minpath(u, v)`` via the configured kernel (inf if
        disconnected)."""
        backend = self.backend
        use_flat = self.graph_kernel(graph) == "flat"
        if backend == "dijkstra":
            if use_flat:
                dist, _ = graph.freeze().sssp(u, targets=[v])
            else:
                dist, _ = dijkstra(graph, u, targets=[v])
            return dist.get(v, INF)
        if backend in ("astar", "auto"):
            h = self.heuristic_for(graph, v)
            if h is not None:
                if use_flat:
                    dist, _ = graph.freeze().astar(u, v, h)
                else:
                    dist, _ = astar(graph, u, v, h)
                return dist.get(v, INF)
        if use_flat:
            d, _ = graph.freeze().bidirectional(u, v)
            return d
        d, _ = bidirectional_dijkstra(graph, u, v)
        return d
