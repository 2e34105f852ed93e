"""Property-based guarantees for the flat CSR graph core.

Three families of properties:

* **Round-trip fidelity** — ``Graph.freeze()`` / ``FlatGraph.thaw()``
  preserve every node, every edge, every weight, *and* the adjacency
  iteration order the dict kernels depend on.
* **Kernel bit-identity** — the flat Dijkstra kernel reproduces the
  dict-adjacency reference kernels (``tests/reference_kernels.py``)
  exactly: same distances, same predecessors, same dict iteration
  order, for arbitrary random graphs, endpoints, cutoffs and target
  sets; and negotiated A* through the vectorized Manhattan table
  replays the same search with the bound evaluated node by node.
* **Invalidation** — mutating a graph (including the router's
  uncommit path) invalidates its memoized view, and the re-frozen view
  reflects the mutation while staying bit-identical to dict search.

Runs under `hypothesis` when it is installed; otherwise the same
property checks execute over a vendored corpus of seeds, so the suite
needs no extra dependency to stay meaningful.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import (
    FlatGraph,
    GraphView,
    grid_graph,
    manhattan_heuristic,
    random_connected_graph,
)

from repro.graph.flat import flat_negotiated_search

from .reference_kernels import dijkstra, multi_target_dijkstra

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

#: vendored fallback corpus: (seed, nodes, extra edges)
SEED_CASES = [
    (0, 8, 4),
    (1, 12, 10),
    (2, 16, 20),
    (3, 20, 15),
    (4, 25, 30),
    (5, 30, 45),
    (6, 18, 6),
    (7, 40, 60),
    (8, 10, 25),
    (9, 22, 11),
]


def property_case(func):
    """Run ``func(seed, n, extra)`` under hypothesis or the corpus."""
    if HAVE_HYPOTHESIS:
        return settings(max_examples=30, deadline=None)(
            given(
                seed=st.integers(min_value=0, max_value=2**20),
                n=st.integers(min_value=2, max_value=40),
                extra=st.integers(min_value=0, max_value=60),
            )(func)
        )
    return pytest.mark.parametrize("seed,n,extra", SEED_CASES)(func)


def make_graph(seed, n, extra):
    rnd = random.Random(seed)
    g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), rnd)
    nodes = sorted(g.nodes, key=repr)
    rnd2 = random.Random(seed + 1)
    u = rnd2.choice(nodes)
    v = rnd2.choice(nodes)
    return g, u, v


def make_weighted_grid(seed, n, extra):
    side = 2 + (n % 7)
    rnd = random.Random(seed)
    g = grid_graph(side, side)
    for a, b, _ in list(g.edges()):
        g.set_weight(a, b, 0.25 + 2.0 * rnd.random())
    nodes = sorted(g.nodes)
    rnd2 = random.Random(seed + extra)
    return g, rnd2.choice(nodes), rnd2.choice(nodes)


def assert_same_adjacency(g, h):
    """Node sets, edge counts, weights AND iteration order all match."""
    assert list(g.nodes) == list(h.nodes)
    assert g.num_edges == h.num_edges
    for node in g.nodes:
        assert list(g.neighbor_items(node)) == list(h.neighbor_items(node))


@property_case
def test_freeze_thaw_round_trip(seed, n, extra):
    g, _, _ = make_graph(seed, n, extra)
    flat = g.freeze().flat
    assert flat.num_nodes == g.num_nodes
    assert flat.num_edges == g.num_edges
    assert_same_adjacency(g, flat.thaw())


@property_case
def test_csr_matches_adjacency(seed, n, extra):
    g, _, _ = make_graph(seed, n, extra)
    flat = FlatGraph.from_graph(g)
    for i, node in enumerate(flat.nodes):
        expected = [
            (flat.node_id(v), w) for v, w in g.neighbor_items(node)
        ]
        assert flat.rows()[i] == expected
    assert sorted(map(repr, flat.edges())) == sorted(map(repr, g.edges()))


@property_case
def test_flat_dijkstra_bit_identical(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    view = g.freeze()
    ref_dist, ref_pred = dijkstra(g, u)
    dist, pred = view.sssp(u)
    # identical values AND identical dict iteration order — consumers
    # (pfa_tree_graph, DominanceOracle) iterate these dicts
    assert list(dist.items()) == list(ref_dist.items())
    assert list(pred.items()) == list(ref_pred.items())


@property_case
def test_flat_early_exit_bit_identical(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    view = g.freeze()
    ref_dist, ref_pred = multi_target_dijkstra(g, u, [v])
    dist, pred = view.sssp(u, targets=[v])
    assert list(dist.items()) == list(ref_dist.items())
    assert list(pred.items()) == list(ref_pred.items())


@property_case
def test_flat_cutoff_bit_identical(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    full, _ = dijkstra(g, u)
    cutoff = sorted(full.values())[len(full) // 2]
    ref_dist, ref_pred = dijkstra(g, u, cutoff=cutoff)
    dist, pred = g.freeze().sssp(u, cutoff=cutoff)
    assert list(dist.items()) == list(ref_dist.items())
    assert list(pred.items()) == list(ref_pred.items())


@property_case
def test_flat_manhattan_astar_bit_identical(seed, n, extra):
    """The memoized per-id Manhattan table gives negotiated A* the
    bit-identical ``f`` keys of the scalar bound."""
    g, u, v = make_weighted_grid(seed, n, extra)
    h = manhattan_heuristic(g, v)
    assert h is not None
    flat = g.freeze().flat
    unit = [1.0] * len(flat.nodes)

    def scalar(node):  # no Manhattan key: evaluated node by node
        return h(node)

    ref_dist, ref_pred = flat_negotiated_search(
        flat, [u], v, unit, heuristic=scalar
    )
    dist, pred = flat_negotiated_search(flat, [u], v, unit, heuristic=h)
    assert list(dist.items()) == list(ref_dist.items())
    assert list(pred.items()) == list(ref_pred.items())


@property_case
def test_freeze_is_memoized_until_mutation(seed, n, extra):
    g, u, v = make_graph(seed, n, extra)
    view = g.freeze()
    assert g.freeze() is view          # memoized while version stable
    assert view.fresh(g)
    nbr, _ = next(iter(g.neighbor_items(u)))
    g.set_weight(u, nbr, 99.0)
    assert not view.fresh(g)
    view2 = g.freeze()
    assert view2 is not view           # mutation invalidated the memo
    ref_dist, _ = dijkstra(g, u)
    dist, _ = view2.sssp(u)
    assert list(dist.items()) == list(ref_dist.items())


@property_case
def test_post_uncommit_refreeze_bit_identical(seed, n, extra):
    """The router's rip-up path: route a net on a small device, commit
    it, uncommit it, and check the re-frozen view still searches
    bit-identically to the mutated dict graph."""
    from repro.fpga import xc4000
    from repro.fpga.routing_graph import RoutingResourceGraph
    from repro.graph.core import Graph

    side = 2 + (n % 3)
    rrg = RoutingResourceGraph(xc4000(side, side, 3))
    rrg.detach_all_pins()  # commit removes pins; uncommit never restores them
    g = rrg.graph
    stale = g.freeze()
    junctions = [x for x in g.nodes if x[0] == "J"]
    rnd = random.Random(seed)
    a = rnd.choice(junctions)
    # commit/uncommit an arbitrary single-edge tree touching `a`
    b, w = next(iter(g.neighbor_items(a)))
    tree = Graph()
    tree.add_edge(a, b, w)
    rrg.commit(tree)
    assert not stale.fresh(g)
    rrg.uncommit(tree)
    view = g.freeze()
    assert view.fresh(g)
    ref_dist, ref_pred = dijkstra(g, a)
    dist, pred = view.sssp(a)
    assert list(dist.items()) == list(ref_dist.items())
    assert list(pred.items()) == list(ref_pred.items())


@property_case
def test_incremental_refreeze_matches_full_rebuild(seed, n, extra):
    """freeze() after arbitrary mutation bursts — edge adds/removals,
    weight changes, node removals, remove-then-re-add — must present
    exactly the graph a from-scratch snapshot would: same node
    enumeration, same adjacency, same SSSP item order.  This is the
    patch path (ghost slots, tail re-insertion) that the router's
    commit/uncommit cycle exercises per net."""
    rnd = random.Random(seed)
    g, _, _ = make_graph(seed, n, extra)
    g.freeze()  # start the dirty-tracking lineage
    for _ in range(4):  # several freeze windows in one lineage
        nodes = sorted(g.nodes, key=repr)
        for _ in range(1 + extra % 5):
            op = rnd.randrange(5)
            u, v = rnd.choice(nodes), rnd.choice(nodes)
            if op == 0 and u != v:
                g.add_edge(u, v, round(rnd.uniform(0.5, 4.0), 3))
            elif op == 1 and g.has_edge(u, v):
                g.remove_edge(u, v)
            elif op == 2 and g.has_edge(u, v):
                g.set_weight(u, v, round(rnd.uniform(0.5, 4.0), 3))
            elif op == 3 and g.num_nodes > 2:
                g.remove_node(u)
                nodes = sorted(g.nodes, key=repr)
            else:
                g.add_node(("re", rnd.randrange(3)))  # may re-add
        view = g.freeze()
        flat = view.flat
        fresh = FlatGraph.from_graph(g)
        assert flat.num_nodes == fresh.num_nodes == g.num_nodes
        assert flat.num_edges == fresh.num_edges == g.num_edges
        assert list(view.nodes) == list(g.nodes)
        assert_same_adjacency(g, flat.thaw())
        src = next(iter(g.nodes))
        ref_dist, ref_pred = dijkstra(g, src)
        dist, pred = view.sssp(src)
        assert list(dist.items()) == list(ref_dist.items())
        assert list(pred.items()) == list(ref_pred.items())


@property_case
def test_view_reflects_graph_surface(seed, n, extra):
    g, u, _ = make_graph(seed, n, extra)
    view = GraphView.from_graph(g)
    assert view.num_nodes == g.num_nodes
    assert view.num_edges == g.num_edges
    assert list(view.nodes) == list(g.nodes)
    assert view.has_node(u)
    assert not view.has_node(("no", "such", "node"))
