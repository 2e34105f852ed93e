"""The Kou–Markowsky–Berman (KMB) graph Steiner heuristic [26].

Appendix 8.1 of the paper; performance ratio ``2·(1 − 1/L)`` where L is
the maximum leaf count of any optimal Steiner tree.  The three steps:

1. build the distance graph G' over the net N (metric closure),
2. take MST(G') and expand each closure edge into its realizing shortest
   path in G, forming the subgraph G'',
3. take MST(G'') and prune pendant (non-terminal leaf) edges.

KMB is both a stand-alone heuristic and the inner engine of IKMB; it is
also the tool the paper uses to *create* congestion for Table 1 (k nets
pre-routed with KMB, bumping edge weights).

Steps 2–3 run in one kernel (:func:`_kmb_kernel`) over plain dicts and
lists: :func:`kmb_cost` sums its surviving edges, :func:`kmb_tree_graph`
replays them into a :class:`Graph`, and :func:`kmb_round` costs every
Steiner candidate of an IKMB round against one shared closure.  Tree
and cost therefore come from a single implementation.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..graph.core import Graph
from ..graph.distance_graph import DistanceGraph
from ..graph.shortest_paths import ShortestPathCache
from ..graph.spanning import dense_mst, prim_edges
from ..net import Net
from .tree import RoutingTree

Node = Hashable
Adjacency = Dict[Node, Dict[Node, float]]
Edge = Tuple[Node, Node, float]


def _kmb_kernel(
    cache: ShortestPathCache,
    terminals: Sequence[Node],
    matrix: Adjacency,
) -> Tuple[List[Edge], Adjacency]:
    """KMB steps 2–3 over the closure ``matrix`` of distinct ``terminals``.

    Returns the Prim edges of MST(G'') in insertion order and the pruned
    tree as an adjacency dict.  Every step breaks ties exactly as the
    :class:`Graph`-based helpers do — :func:`dense_mst`'s fringe choice,
    expansion by ``cache.path(parent, child)`` in MST order, Prim's
    ``(weight, counter)`` heap, and the LIFO leaf pruning of
    :func:`~repro.graph.validation.prune_non_terminal_leaves` — so the
    tree matches a construction from those helpers bit for bit.
    """
    tree: Adjacency = {t: {} for t in terminals}
    if len(terminals) < 2:
        return [], tree
    # Step 2: MST over the metric closure, expanded back into G.
    mst_edges, _ = dense_mst(matrix, terminals)
    weight = cache.graph.weight
    expanded: Adjacency = {}
    for u, v, _ in mst_edges:
        path = cache.path(u, v)
        for a, b in zip(path, path[1:]):
            w = weight(a, b)
            expanded.setdefault(a, {})[b] = w
            expanded.setdefault(b, {})[a] = w
    # Step 3: Prim over G'' from its first node...
    edges = prim_edges(
        next(iter(expanded)), len(expanded), lambda v: expanded[v].items()
    )
    for u, v, w in edges:
        tree.setdefault(u, {})[v] = w
        tree.setdefault(v, {})[u] = w
    # ...then pendant pruning down to the terminals.
    keep = set(terminals)
    leaves = [n for n in tree if n not in keep and len(tree[n]) <= 1]
    while leaves:
        node = leaves.pop()
        nbrs = tree.pop(node, None)
        if nbrs is None:
            continue
        for nb in nbrs:
            del tree[nb][node]
        for nb in nbrs:
            if nb not in keep and len(tree[nb]) <= 1:
                leaves.append(nb)
    return edges, tree


def _edge_weights(tree: Adjacency) -> Iterator[float]:
    """Edge weights in :meth:`Graph.edges` order.

    ``sum()`` over floats is order-sensitive (and compensated on Python
    3.12+), so costs are summed in exactly the order
    :meth:`Graph.total_weight` would use on the replayed tree.
    """
    seen = set()
    for u, nbrs in tree.items():
        for v, w in nbrs.items():
            if v not in seen:
                yield w
        seen.add(u)


def _kmb(
    graph: Graph,
    terminals: Sequence[Node],
    cache: Optional[ShortestPathCache],
) -> Tuple[List[Node], List[Edge], Adjacency]:
    """Deduplicated terminals plus :func:`_kmb_kernel` over their closure."""
    terminals = list(dict.fromkeys(terminals))  # dedupe, keep order
    if cache is None:
        cache = ShortestPathCache(graph)
    closure = DistanceGraph(cache, terminals)
    edges, tree = _kmb_kernel(cache, terminals, closure.matrix)
    return terminals, edges, tree


def kmb_tree_graph(
    graph: Graph,
    terminals: Sequence[Node],
    cache: Optional[ShortestPathCache] = None,
) -> Graph:
    """Run KMB over an explicit terminal list, returning the tree subgraph.

    This low-level entry point is what IGMST calls with ``N ∪ S`` — the
    source/sink structure of the net is irrelevant to KMB itself.
    """
    terminals, edges, kept = _kmb(graph, terminals, cache)
    tree = Graph()
    for t in terminals:
        tree.add_node(t)
    # replaying the surviving Prim edges in order reproduces the pruned
    # tree's node order and per-node neighbour order exactly
    for u, v, w in edges:
        if u in kept and v in kept:
            tree.add_edge(u, v, w)
    return tree


def kmb_cost(
    graph: Graph,
    terminals: Sequence[Node],
    cache: Optional[ShortestPathCache] = None,
) -> float:
    """Cost of the KMB solution over ``terminals`` (ΔH evaluations)."""
    return sum(_edge_weights(_kmb(graph, terminals, cache)[2]))


def kmb_round(
    graph: Graph,
    members: Sequence[Node],
    cache: ShortestPathCache,
) -> Callable[[Node], float]:
    """``t ↦ kmb_cost(graph, members + [t], cache)`` for one IKMB round.

    The closure over ``members`` (N ∪ S) is built once; each candidate
    only adds its own row of distances to it, so a round of ``c``
    candidates costs ``c·|N ∪ S|`` distance lookups instead of
    ``c·|N ∪ S|²/2``.  Results equal :func:`kmb_cost` bit for bit.
    """
    members = list(dict.fromkeys(members))
    closure = DistanceGraph(cache, members)
    matrix = closure.matrix

    def cost(candidate: Node) -> float:
        if candidate in matrix:  # already in N ∪ S: KMB dedupes it
            return kmb_cost(graph, members, cache)
        row = closure.row(candidate)
        for m, d in row.items():
            matrix[m][candidate] = d
        matrix[candidate] = row
        try:
            _, tree = _kmb_kernel(cache, members + [candidate], matrix)
        finally:
            del matrix[candidate]
            for m in row:
                del matrix[m][candidate]
        return sum(_edge_weights(tree))

    return cost


def kmb(
    graph: Graph, net: Net, cache: Optional[ShortestPathCache] = None
) -> RoutingTree:
    """KMB solution for a net, as a validated :class:`RoutingTree`."""
    tree = kmb_tree_graph(graph, net.terminals, cache)
    return RoutingTree(net=net, tree=tree, algorithm="KMB").validate(
        host=graph
    )
