"""Minimum spanning trees: Prim over graphs, and MST over distance matrices.

KMB (Appendix 8.1) needs two MSTs per invocation — one over the complete
*distance graph* on the net and one over the expanded path-union subgraph —
and ZEL (Appendix 8.2) repeatedly re-evaluates the distance-graph MST
after triple contractions.  Both shapes are provided here:

* :func:`prim_mst` — classic Prim with a binary heap for sparse graphs;
* :func:`kruskal_mst` — union–find alternative (used for cross-checking
  and for edge-list inputs);
* :func:`dense_mst` — Prim in O(k²) over a dict-of-dict distance matrix,
  the right tool for metric closures over nets (k = |N| is tiny).
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

from ..errors import GraphError
from .core import Graph

Node = Hashable
INF = float("inf")


def prim_mst(
    graph: Graph, within: Optional[Iterable[Node]] = None
) -> Tuple[List[Tuple[Node, Node, float]], float]:
    """Minimum spanning tree of ``graph`` via Prim's algorithm.

    Parameters
    ----------
    graph:
        Weighted undirected graph.
    within:
        Optional node subset; the MST is computed on the induced
        subgraph.  Raises :class:`GraphError` if the (sub)graph is
        disconnected.

    Returns
    -------
    (edges, cost):
        MST edge list as ``(u, v, w)`` triples and their total weight.
    """
    target = graph if within is None else graph.subgraph(within)
    if target.num_nodes == 0:
        return [], 0.0
    edges = prim_edges(
        next(iter(target.nodes)), target.num_nodes, target.neighbor_items
    )
    return edges, sum(w for _, _, w in edges)


def prim_edges(
    start: Node,
    size: int,
    neighbor_items: Callable[[Node], Iterable[Tuple[Node, float]]],
) -> List[Tuple[Node, Node, float]]:
    """Prim's MST edges from ``start`` over a graph of ``size`` nodes.

    ``neighbor_items(v)`` yields ``(neighbor, weight)`` pairs, so the
    same heap order — ``(weight, push counter)`` — serves a
    :class:`Graph` (:func:`prim_mst`) and a plain adjacency dict (KMB's
    kernel).  Raises :class:`GraphError` if fewer than ``size`` nodes are
    reachable.
    """
    in_tree = {start}
    edges: List[Tuple[Node, Node, float]] = []
    counter = 0
    heap: List[Tuple[float, int, Node, Node]] = []
    for v, w in neighbor_items(start):
        counter += 1
        heapq.heappush(heap, (w, counter, start, v))
    while heap and len(in_tree) < size:
        w, _, u, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        edges.append((u, v, w))
        for x, wx in neighbor_items(v):
            if x not in in_tree:
                counter += 1
                heapq.heappush(heap, (wx, counter, v, x))
    if len(in_tree) != size:
        raise GraphError(
            f"graph disconnected: MST reached {len(in_tree)} of "
            f"{size} nodes"
        )
    return edges


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self) -> None:
        self._parent: Dict[Node, Node] = {}
        self._rank: Dict[Node, int] = {}

    def find(self, x: Node) -> Node:
        parent = self._parent
        if x not in parent:
            parent[x] = x
            self._rank[x] = 0
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: Node, b: Node) -> bool:
        """Merge the sets containing a and b; False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def connected(self, a: Node, b: Node) -> bool:
        return self.find(a) == self.find(b)


def kruskal_mst(
    edge_list: Sequence[Tuple[Node, Node, float]],
    nodes: Optional[Iterable[Node]] = None,
) -> Tuple[List[Tuple[Node, Node, float]], float]:
    """MST via Kruskal over an explicit edge list.

    ``nodes`` (when given) declares the full vertex set so disconnection
    can be detected; otherwise the vertex set is inferred from the edges.
    """
    uf = UnionFind()
    vertex_count = 0
    if nodes is not None:
        all_nodes = set(nodes)
        vertex_count = len(all_nodes)
        for n in all_nodes:
            uf.find(n)
    else:
        all_nodes = set()
        for u, v, _ in edge_list:
            all_nodes.add(u)
            all_nodes.add(v)
        vertex_count = len(all_nodes)

    chosen: List[Tuple[Node, Node, float]] = []
    for u, v, w in sorted(edge_list, key=lambda e: e[2]):
        if uf.union(u, v):
            chosen.append((u, v, w))
            if len(chosen) == vertex_count - 1:
                break
    if vertex_count and len(chosen) != vertex_count - 1:
        raise GraphError("edge list does not connect all declared nodes")
    return chosen, sum(w for _, _, w in chosen)


def dense_mst(
    dist: Dict[Node, Dict[Node, float]],
    nodes: Optional[Sequence[Node]] = None,
) -> Tuple[List[Tuple[Node, Node, float]], float]:
    """Prim's algorithm in O(k²) over a dense distance matrix.

    Parameters
    ----------
    dist:
        ``dist[u][v]`` is the (symmetric) distance between u and v.
        Missing entries are treated as unreachable.
    nodes:
        The vertex set; defaults to ``dist``'s keys.  Order fixes the
        deterministic tie-breaking.

    This is the MST used over metric closures (KMB step 2, ZEL's G').
    Since net sizes are small (|N| ≤ a few dozen), the quadratic scan
    beats heap-based Prim.
    """
    verts = list(nodes) if nodes is not None else list(dist)
    if not verts:
        return [], 0.0
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    in_tree = [False] * n
    best = [INF] * n
    best_edge: List[Optional[Node]] = [None] * n
    best[0] = 0.0
    edges: List[Tuple[Node, Node, float]] = []
    for _ in range(n):
        # pick the cheapest fringe vertex
        u_idx = -1
        u_cost = INF
        for i in range(n):
            if not in_tree[i] and best[i] < u_cost:
                u_cost = best[i]
                u_idx = i
        if u_idx < 0:
            raise GraphError("distance matrix disconnected")
        in_tree[u_idx] = True
        u = verts[u_idx]
        if best_edge[u_idx] is not None:
            edges.append((best_edge[u_idx], u, u_cost))
        row = dist.get(u, {})
        for v, w in row.items():
            i = index.get(v)
            if i is not None and not in_tree[i] and w < best[i]:
                best[i] = w
                best_edge[i] = u
    return edges, sum(w for _, _, w in edges)


def mst_cost(dist: Dict[Node, Dict[Node, float]],
             nodes: Optional[Sequence[Node]] = None) -> float:
    """Total weight of :func:`dense_mst` (ZEL's inner-loop quantity)."""
    return dense_mst(dist, nodes)[1]
