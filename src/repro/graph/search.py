"""Goal-directed search: A*, bidirectional Dijkstra, ALT heuristics.

Every construction in the paper — the KMB/Mehlhorn metric closures, the
dominance predicates of Section 4, and the router's maze expansion —
bottoms out in :func:`repro.graph.shortest_paths.dijkstra`, so it is the
hottest path in the codebase.  Goal-oriented search with admissible
lower bounds (Hougardy et al., *Dijkstra meets Steiner*) prunes most of
the frontier while preserving exactness, and production FPGA routers
run exactly this shape of A* over the routing-resource graph.  The
kernels live in :mod:`repro.graph.flat` and run on a graph's frozen CSR
view; this module provides the heuristics, and :class:`SearchPolicy`
packages both for
:class:`~repro.graph.shortest_paths.ShortestPathCache`.

Exactness contract
------------------
* :func:`~repro.graph.flat.flat_astar` with an *admissible and
  consistent* heuristic settles nodes with their exact distance, so
  ``dist[target]`` equals the plain Dijkstra distance whenever
  ``target`` is reachable.
* :func:`~repro.graph.flat.flat_bidirectional` uses the standard
  two-frontier stopping rule (``top_f + top_b >= mu``) and returns the
  exact distance.
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

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import GraphError
from .core import Graph
from .flat import FlatGraph, flat_negotiated_search
from .shortest_paths import dijkstra

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

    Every plain and goal-directed kernel runs over the graph's frozen
    CSR view (``Graph.freeze()``).  All distances computed through a policy are exact, so any backend
    may share a cache's pair-distance store; the policy's :meth:`key`
    still participates in cache keying so that differently-configured
    runs are never conflated.
    """

    __slots__ = (
        "backend",
        "heuristic_scale",
        "landmarks",
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
        self.backend = backend
        self.heuristic_scale = heuristic_scale
        self.landmarks = landmarks
        self._scale_graph: Optional[int] = None
        self._scale_version: Optional[int] = None
        self._scale: Optional[float] = None
        self._alt: Optional[LandmarkIndex] = None

    @classmethod
    def for_architecture(cls, backend: str, arch) -> "SearchPolicy":
        """The router's policy: Manhattan scale from the architecture.

        ``min(segment_weight, pin_weight)`` bounds the cost of any
        unit-L1 move on the routing-resource graph (switch edges do not
        displace), independent of congestion multipliers (which only
        increase weights) and of which pins are currently attached.
        """
        scale = min(arch.segment_weight, arch.pin_weight)
        if scale <= 0:
            return cls(backend)
        return cls(backend, heuristic_scale=scale)

    def key(self) -> Tuple:
        """Hashable identity (backend + heuristic configuration)."""
        return (self.backend, self.heuristic_scale, self.landmarks)

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
        view = graph.freeze()
        if backend == "dijkstra":
            dist, _ = view.sssp(u, targets=[v])
            return dist.get(v, INF)
        if backend in ("astar", "auto"):
            h = self.heuristic_for(graph, v)
            if h is not None:
                dist, _ = view.astar(u, v, h)
                return dist.get(v, INF)
        d, _ = view.bidirectional(u, v)
        return d
