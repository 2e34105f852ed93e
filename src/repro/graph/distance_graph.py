"""Metric closure ("distance graph") over a set of terminals.

KMB's first step (Appendix 8.1) constructs *G'*, "the complete graph over
N with the weight of each edge equal to the cost of the corresponding
shortest path in G"; ZEL and DOM operate on the same object.  We
represent it as a symmetric dict-of-dicts distance matrix plus the cache
needed to expand closure edges back into real paths in G.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..errors import DisconnectedError
from .core import Graph
from .shortest_paths import ShortestPathCache

Node = Hashable
INF = float("inf")


class DistanceGraph:
    """The complete shortest-path distance graph over ``terminals``.

    Parameters
    ----------
    cache:
        Shortest-path cache for the underlying graph G.  SSSPs are rooted
        at the terminals, so building the closure costs
        ``O(|N| · (|E| + |V| log |V|))`` — the bound quoted throughout
        Sections 3–4 of the paper.
    terminals:
        The nodes of the closure (a net, possibly plus Steiner candidates).

    The object is intentionally *not* live: it snapshots distances at
    construction time.  Callers rebuild it (cheaply, thanks to the cache)
    after mutating the terminal set.
    """

    def __init__(self, cache: ShortestPathCache, terminals: Sequence[Node]):
        self._cache = cache
        self._terminals: Tuple[Node, ...] = tuple(terminals)
        self._matrix: Dict[Node, Dict[Node, float]] = {
            t: {} for t in self._terminals
        }
        # Distances are looked up pairwise through the cache, which
        # answers from whichever endpoint already has a memoized SSSP.
        # This is what lets IGMST/IDOM evaluate a fresh Steiner candidate
        # without a Dijkstra rooted at the candidate: the net terminals
        # are warm, the candidate is reached from their side.
        terms = self._terminals
        for i, u in enumerate(terms):
            for v in terms[i + 1:]:
                d = cache.dist(u, v)
                if d == INF:
                    raise DisconnectedError(u, v)
                self._matrix[u][v] = d
                self._matrix[v][u] = d

    @property
    def terminals(self) -> Tuple[Node, ...]:
        return self._terminals

    @property
    def matrix(self) -> Dict[Node, Dict[Node, float]]:
        """Symmetric distance matrix ``matrix[u][v] = minpath_G(u, v)``."""
        return self._matrix

    def row(self, node: Node) -> Dict[Node, float]:
        """Distances from every closure terminal to one more ``node``.

        The row the closure over ``terminals + [node]`` would add, looked
        up in the same pair order and raising the same
        :class:`DisconnectedError`.  IKMB's ΔH scan attaches one such row
        per Steiner candidate to the round's shared N ∪ S closure
        instead of rebuilding the closure for every candidate.
        """
        cache = self._cache
        row: Dict[Node, float] = {}
        for t in self._terminals:
            d = cache.dist(t, node)
            if d == INF:
                raise DisconnectedError(t, node)
            row[t] = d
        return row

    def dist(self, u: Node, v: Node) -> float:
        if u == v:
            return 0.0
        return self._matrix[u][v]

    def expand_edge(self, u: Node, v: Node) -> List[Node]:
        """The actual shortest path in G realizing closure edge (u, v)."""
        return self._cache.path(u, v)

    def expand_edges(
        self, edges: Iterable[Tuple[Node, Node]]
    ) -> Graph:
        """Union of the shortest paths realizing ``edges`` — KMB's G''."""
        g = Graph()
        base = self._cache.graph
        for u, v in edges:
            path = self.expand_edge(u, v)
            if len(path) == 1:
                g.add_node(path[0])
            for a, b in zip(path, path[1:]):
                g.add_edge(a, b, base.weight(a, b))
        return g


def terminal_distances(
    cache: ShortestPathCache, terminals: Sequence[Node]
) -> Dict[Node, Dict[Node, float]]:
    """Bare distance matrix over ``terminals`` (no path expansion support)."""
    return DistanceGraph(cache, terminals).matrix
