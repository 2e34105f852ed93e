"""Weighted-graph substrate: the routing domain of the paper (Section 2).

Everything the Steiner/arborescence heuristics and the FPGA router need:
an undirected weighted :class:`Graph`, Dijkstra shortest paths with a
version-aware :class:`ShortestPathCache`, spanning trees, the metric
closure (:class:`DistanceGraph`), seeded generators for the paper's
experimental workloads, and tree validation/pruning helpers.
"""

from .core import Graph, edge_key
from .flat import FlatGraph, GraphView, flat_dijkstra
from .distance_graph import DistanceGraph, terminal_distances
from .multiweight import MultiWeightGraph, sweep_tradeoff
from .generators import (
    grid_graph,
    random_connected_graph,
    random_net,
    random_nets,
)
from .shortest_paths import (
    DijkstraBudget,
    DijkstraCounters,
    ShortestPathCache,
    dijkstra,
    get_dijkstra_budget,
    get_dijkstra_counters,
    path_cost,
    reconstruct_path,
    set_dijkstra_budget,
    set_dijkstra_counters,
    shortest_path,
)
from .search import (
    SEARCH_BACKENDS,
    Heuristic,
    SearchPolicy,
    lattice_coordinate,
    lattice_scale,
    manhattan_heuristic,
)
from .spanning import UnionFind, dense_mst, kruskal_mst, mst_cost, prim_mst
from .validation import (
    assert_valid_steiner_tree,
    is_tree,
    prune_non_terminal_leaves,
    spans,
    tree_paths_from,
)

__all__ = [
    "Graph",
    "edge_key",
    "FlatGraph",
    "GraphView",
    "flat_dijkstra",
    "DistanceGraph",
    "terminal_distances",
    "MultiWeightGraph",
    "sweep_tradeoff",
    "grid_graph",
    "random_connected_graph",
    "random_net",
    "random_nets",
    "DijkstraBudget",
    "DijkstraCounters",
    "ShortestPathCache",
    "dijkstra",
    "get_dijkstra_budget",
    "get_dijkstra_counters",
    "set_dijkstra_budget",
    "set_dijkstra_counters",
    "path_cost",
    "reconstruct_path",
    "shortest_path",
    "SEARCH_BACKENDS",
    "Heuristic",
    "SearchPolicy",
    "lattice_coordinate",
    "lattice_scale",
    "manhattan_heuristic",
    "UnionFind",
    "dense_mst",
    "kruskal_mst",
    "mst_cost",
    "prim_mst",
    "assert_valid_steiner_tree",
    "is_tree",
    "prune_non_terminal_leaves",
    "spans",
    "tree_paths_from",
]
