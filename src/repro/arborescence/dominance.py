"""Graph dominance and ``MaxDom`` — the machinery of Section 4.

Definition 4.1: in a weighted graph G with source ``n0``, node *p
dominates* node *s* iff ``minpath_G(n0, p) = minpath_G(n0, s) +
minpath_G(s, p)`` — i.e. some shortest source→p path can pass through s.
``MaxDom(p, q)`` is a node dominated by both p and q that is as far from
the source as possible; routing to it lets the two source paths overlap
maximally (the "path folding" of PFA) without violating the
shortest-paths property.

:class:`DominanceOracle` packages these predicates over a shared
:class:`ShortestPathCache` so PFA/DOM/IDOM reuse the same SSSPs.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..errors import GraphError
from ..graph.core import Graph
from ..graph.shortest_paths import ShortestPathCache

Node = Hashable
INF = float("inf")
_TOL = 1e-9


class DominanceOracle:
    """Dominance queries for one (graph, source) pair.

    All answers are in terms of the *current* graph; the underlying
    cache invalidates automatically if the graph is mutated.
    """

    def __init__(
        self,
        graph: Graph,
        source: Node,
        cache: Optional[ShortestPathCache] = None,
    ):
        if not graph.has_node(source):
            raise GraphError(f"source {source!r} not in graph")
        self.graph = graph
        self.source = source
        self.cache = cache if cache is not None else ShortestPathCache(graph)
        #: (source SSSP, its keys, its distances) for :meth:`maxdom`
        self._order: Optional[
            Tuple[Dict[Node, float], List[Node], List[float]]
        ] = None

    def source_dist(self, node: Node) -> float:
        """``minpath_G(n0, node)`` (INF if unreachable)."""
        return self.cache.dist(self.source, node)

    def dominates(self, p: Node, s: Node) -> bool:
        """True iff ``p`` dominates ``s`` (Definition 4.1).

        Every node dominates itself and the source; the source dominates
        only itself.
        """
        dp = self.source_dist(p)
        ds = self.source_dist(s)
        if dp == INF or ds == INF:
            return False
        dsp = self.cache.dist(s, p)
        if dsp == INF:
            return False
        return abs(dp - (ds + dsp)) <= _TOL * max(1.0, dp)

    def _settled(
        self, d0: Dict[Node, float]
    ) -> Tuple[List[Node], List[float]]:
        """``d0``'s keys and distances as two lists, in settlement order.

        Built once per SSSP object: every pair of a PFA net shares one
        source SSSP, and the cache hands back the same dict until the
        graph mutates.
        """
        order = self._order
        if order is None or order[0] is not d0:
            order = (d0, list(d0), list(d0.values()))
            self._order = order
        return order[1], order[2]

    def maxdom(self, p: Node, q: Node) -> Tuple[Node, float]:
        """``MaxDom(p, q)`` and its source distance.

        The winner is the node of largest source distance dominated by
        both ``p`` and ``q`` — among equals, the first one the source
        SSSP settled.  The source always qualifies (it is dominated by
        everything), so a result always exists provided p and q are
        reachable.

        Only nodes that can win are tested.  Dijkstra settles in
        non-decreasing distance, so the settled list is sorted; a node
        farther than ``min(dp, dq)`` plus tolerance cannot be dominated
        by both (``dm + dmp >= dm > dp + tp``).  The walk therefore
        starts at the last node within that bound, goes backwards, and
        stops once it drops below the best distance found.  Within the
        winning distance group the last passing node it meets is the
        first one settled — the node a forward scan over V returns.
        """
        d0, _ = self.cache.sssp(self.source)
        dp = d0.get(p, INF)
        dq = d0.get(q, INF)
        if dp == INF or dq == INF:
            raise GraphError(
                f"maxdom undefined: {p!r} or {q!r} unreachable from source"
            )
        dp_all, _ = self.cache.sssp(p)
        dq_all, _ = self.cache.sssp(q)
        keys, dists = self._settled(d0)
        tp = _TOL * max(1.0, dp)
        tq = _TOL * max(1.0, dq)
        hi = bisect_right(dists, min(dp + tp, dq + tq))
        best: Optional[Node] = None
        best_d = -1.0
        for i in range(hi - 1, -1, -1):
            dm = dists[i]
            if dm < best_d:
                break
            m = keys[i]
            dmp = dp_all.get(m)
            if dmp is None or abs(dp - (dm + dmp)) > tp:
                continue
            dmq = dq_all.get(m)
            if dmq is None or abs(dq - (dm + dmq)) > tq:
                continue
            best = m
            best_d = dm
        if best is None:  # pragma: no cover - the source always passes
            raise GraphError(f"nothing dominated by both {p!r} and {q!r}")
        return best, best_d

    def nearest_dominated(
        self, p: Node, pool: Iterable[Node]
    ) -> Tuple[Node, float]:
        """The node in ``pool`` dominated by ``p`` that is nearest to p.

        This is DOM's per-sink connection rule ("connect each sink to the
        closest sink/source that it dominates").  ``p`` itself is skipped;
        ties prefer the candidate closer to the source, then a
        deterministic repr order.  Always succeeds when the source is in
        ``pool`` (everything dominates the source).

        To keep the connect-to relation acyclic even in graphs with
        zero-weight edges (where two nodes can dominate each other at
        equal source distance), candidates are restricted to strictly
        smaller *rank* ``(source_dist, not-source flag, repr)`` than p.
        Each connection then strictly descends toward the source, so the
        union of connection paths is always source-connected.
        """
        d0, _ = self.cache.sssp(self.source)
        dp = d0.get(p, INF)
        if dp == INF:
            raise GraphError(f"{p!r} unreachable from source")

        def rank(node: Node, d: float) -> Tuple[float, int, str]:
            return (d, 0 if node == self.source else 1, repr(node))

        p_rank = rank(p, dp)
        best: Optional[Node] = None
        best_key: Optional[Tuple[float, float, str]] = None
        for s in pool:
            if s == p:
                continue
            ds = d0.get(s)
            if ds is None or rank(s, ds) >= p_rank:
                continue
            # cache.dist answers from whichever endpoint is warm, so a
            # fresh IDOM candidate `p` never forces its own Dijkstra.
            dsp = self.cache.dist(s, p)
            if dsp == INF or abs(dp - (ds + dsp)) > _TOL * max(1.0, dp):
                continue
            key = (dsp, ds, repr(s))
            if best_key is None or key < best_key:
                best_key = key
                best = s
        if best is None:
            raise GraphError(
                f"{p!r} dominates nothing in the pool (source missing?)"
            )
        return best, best_key[0]  # type: ignore[index]

    def shortest_paths_union(
        self, connections: Sequence[Tuple[Node, Node]]
    ) -> Graph:
        """Union of one shortest path per requested (u, v) connection."""
        union = Graph()
        union.add_node(self.source)
        for u, v in connections:
            path = self.cache.path(u, v)
            if len(path) == 1:
                union.add_node(path[0])
            for a, b in zip(path, path[1:]):
                union.add_edge(a, b, self.graph.weight(a, b))
        return union
