"""Reference oracles the test suites compare the package against.

The package searches only on frozen CSR views (``repro.graph.flat``).
The textbook searches over the mutable dict adjacency live on here,
unchanged, as the reference that the flat kernels must reproduce bit
for bit — the same ``(dist, pred)`` values, settled sets,
tie-breaking, dict iteration order and operation counts:

* :func:`dijkstra`, :func:`multi_target_dijkstra`, :func:`astar` and
  :func:`bidirectional_dijkstra` — plain, early-exit, goal-directed and
  two-frontier Dijkstra over ``Graph.neighbor_items``;
* :class:`ReferenceCache` and :class:`ReferencePolicy` — a
  :class:`~repro.graph.ShortestPathCache` and a
  :class:`~repro.graph.SearchPolicy` that run those kernels instead of
  the CSR ones, so whole constructions can be replayed on the
  reference substrate;
* :func:`maxdom_forward_scan` and :func:`dominated_by_both` — the
  dominance oracle's definition of ``MaxDom(p, q)`` as a forward scan
  over every settled node, the reference for the bounded backward walk
  of :meth:`repro.arborescence.DominanceOracle.maxdom`.
"""

from __future__ import annotations

import heapq
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.search import SearchPolicy
from repro.graph.shortest_paths import (
    ShortestPathCache,
    get_dijkstra_budget,
    get_dijkstra_counters,
    reconstruct_path,
)

Node = Hashable
INF = float("inf")
_TOL = 1e-9


def dijkstra(
    graph: Graph,
    source: Node,
    targets: Optional[Iterable[Node]] = None,
    cutoff: Optional[float] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Run Dijkstra's algorithm [16] from ``source``.

    Parameters
    ----------
    graph:
        The weighted graph.
    source:
        Start node.
    targets:
        If given, the search stops as soon as every target has been
        settled (early exit) — the router uses this when it only needs
        pin-to-pin distances on a large routing graph.
    cutoff:
        If given, nodes farther than ``cutoff`` are not settled.  Used by
        neighborhood-restricted Steiner candidate generation.

    Returns
    -------
    (dist, pred):
        ``dist[v]`` is the shortest-path cost from ``source`` to each
        settled node ``v``; ``pred[v]`` is v's predecessor on one such
        shortest path (``pred[source]`` is absent).

    Notes
    -----
    Ties between equal-cost paths are broken by heap insertion order,
    which is deterministic given a deterministic graph construction
    order; all generators in :mod:`repro.graph.generators` are seeded.
    """
    if not graph.has_node(source):
        raise GraphError(f"source {source!r} not in graph")
    remaining = set(targets) if targets is not None else None
    if remaining is not None:
        remaining.discard(source)

    dist: Dict[Node, float] = {}
    pred: Dict[Node, Node] = {}
    seen = {source: 0.0}
    counter = 0
    pops = 0
    budget = get_dijkstra_budget()
    heap: List[Tuple[float, int, Node]] = [(0.0, counter, source)]
    while heap:
        d, _, u = heapq.heappop(heap)
        pops += 1
        if budget is not None:
            budget.check(pops, counter, backend="dijkstra")
        if u in dist:
            continue
        dist[u] = d
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in graph.neighbor_items(u):
            if v in dist:
                continue
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            if v not in seen or nd < seen[v]:
                seen[v] = nd
                pred[v] = u
                counter += 1
                heapq.heappush(heap, (nd, counter, v))
    counters = get_dijkstra_counters()
    if counters is not None:
        # leftover heap entries were never popped: frontier pruned by
        # an early exit / cutoff (plus stale duplicates on full runs)
        counters.record(pops, counter, len(heap))
    return dist, pred


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
    :func:`dijkstra` — but note the settled *set* and the ``pred``
    tie-breaking differ from plain Dijkstra's, so the result must never
    be cached as a plain run.
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


class ReferencePolicy(SearchPolicy):
    """A :class:`SearchPolicy` whose pair queries run the dict kernels."""

    __slots__ = ()

    def pair_distance(self, graph: Graph, u: Node, v: Node) -> float:
        if self.backend == "dijkstra":
            dist, _ = dijkstra(graph, u, targets=[v])
            return dist.get(v, INF)
        if self.backend in ("astar", "auto"):
            h = self.heuristic_for(graph, v)
            if h is not None:
                dist, _ = astar(graph, u, v, h)
                return dist.get(v, INF)
        d, _ = bidirectional_dijkstra(graph, u, v)
        return d


class ReferenceCache(ShortestPathCache):
    """A :class:`ShortestPathCache` whose plain runs are dict Dijkstra."""

    def _plain_run(self, source, targets=None, cutoff=None):
        return dijkstra(self.graph, source, targets=targets, cutoff=cutoff)


def reference_cache(graph: Graph, backend: Optional[str] = None):
    """A reference cache, with a :class:`ReferencePolicy` unless
    ``backend`` is None (the policy-free cache)."""
    policy = None if backend is None else ReferencePolicy(backend)
    return ReferenceCache(graph, search=policy)


def dominated_by_both(oracle, p: Node, q: Node) -> List[Node]:
    """All nodes dominated by both ``p`` and ``q``, in settlement order.

    Scans V using SSSPs rooted at p and q (distance *to* m equals
    distance *from* m in an undirected graph).
    """
    d0, _ = oracle.cache.sssp(oracle.source)
    dp_all, _ = oracle.cache.sssp(p)
    dq_all, _ = oracle.cache.sssp(q)
    dp = d0.get(p, INF)
    dq = d0.get(q, INF)
    if dp == INF or dq == INF:
        return []
    out: List[Node] = []
    for m, dm in d0.items():
        dmp = dp_all.get(m)
        if dmp is None or abs(dp - (dm + dmp)) > _TOL * max(1.0, dp):
            continue
        dmq = dq_all.get(m)
        if dmq is None or abs(dq - (dm + dmq)) > _TOL * max(1.0, dq):
            continue
        out.append(m)
    return out


def maxdom_forward_scan(oracle, p: Node, q: Node) -> Tuple[Node, float]:
    """``MaxDom(p, q)`` by a forward scan over V.

    The first node, in settlement order, of the largest source distance
    among those dominated by both p and q.
    """
    d0, _ = oracle.cache.sssp(oracle.source)
    dp = d0.get(p, INF)
    dq = d0.get(q, INF)
    if dp == INF or dq == INF:
        raise GraphError(
            f"maxdom undefined: {p!r} or {q!r} unreachable from source"
        )
    dp_all, _ = oracle.cache.sssp(p)
    dq_all, _ = oracle.cache.sssp(q)
    best: Optional[Node] = None
    best_d = -1.0
    for m, dm in d0.items():
        if dm <= best_d:
            continue
        dmp = dp_all.get(m)
        if dmp is None or abs(dp - (dm + dmp)) > _TOL * max(1.0, dp):
            continue
        dmq = dq_all.get(m)
        if dmq is None or abs(dq - (dm + dmq)) > _TOL * max(1.0, dq):
            continue
        best = m
        best_d = dm
    return best, best_d
