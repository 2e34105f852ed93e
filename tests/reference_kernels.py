"""Reference oracles the test suites compare the package against.

The package searches only on frozen CSR views (``repro.graph.flat``).
The textbook searches over the mutable dict adjacency live on here,
unchanged, as the reference that the flat kernels must reproduce bit
for bit — the same ``(dist, pred)`` values, settled sets,
tie-breaking, dict iteration order and operation counts:

* :func:`dijkstra` and :func:`multi_target_dijkstra` — plain and
  early-exit Dijkstra over ``Graph.neighbor_items``;
* :class:`ReferenceCache` — a :class:`~repro.graph.ShortestPathCache`
  that runs those kernels instead of the CSR ones, so whole
  constructions can be replayed on the reference substrate;
* :func:`maxdom_forward_scan` and :func:`dominated_by_both` — the
  dominance oracle's definition of ``MaxDom(p, q)`` as a forward scan
  over every settled node, the reference for the bounded backward walk
  of :meth:`repro.arborescence.DominanceOracle.maxdom`.
"""

from __future__ import annotations

import heapq
from typing import (
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
from repro.graph.shortest_paths import (
    ShortestPathCache,
    get_dijkstra_budget,
    get_dijkstra_counters,
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


class ReferenceCache(ShortestPathCache):
    """A :class:`ShortestPathCache` whose plain runs are dict Dijkstra."""

    def _plain_run(self, source, targets=None):
        return dijkstra(self.graph, source, targets=targets)


def reference_cache(graph: Graph, source_rooted: bool = False):
    """A reference cache under the given path rule."""
    return ReferenceCache(graph, source_rooted=source_rooted)


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
