"""Exactness of the shared-closure KMB kernel and the IGMST scan shortcuts.

The ΔH scan of :func:`repro.steiner.igmst` no longer rebuilds KMB from
scratch for every candidate: KMB's round evaluator reuses one N ∪ S
closure, a round roots one SSSP per member, and two-terminal nets skip
the scan.  None of that may change a single output bit, so this module
pins everything against :func:`reference_kmb_tree_graph` — the
Graph-based KMB construction the kernel replaced, kept here verbatim as
the oracle, and run on the dict-adjacency reference kernels
(``tests/reference_kernels.py``).

Runs under `hypothesis` when it is installed; otherwise the same
properties execute over a vendored corpus of seeds.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import DisconnectedError
from repro.graph import (
    DistanceGraph,
    Graph,
    ShortestPathCache,
    dense_mst,
    grid_graph,
    prim_mst,
    prune_non_terminal_leaves,
    random_connected_graph,
)
from repro.net import Net
from repro.steiner import (
    KMB_HEURISTIC,
    MEHLHORN_HEURISTIC,
    ZEL_HEURISTIC,
    SteinerHeuristic,
    igmst,
    kmb_cost,
    kmb_tree_graph,
)

from .reference_kernels import reference_cache

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

#: the cache's two path rules (``source_rooted``); each runs on the
#: CSR kernels and is checked against the dict reference kernels
PATH_RULES = [False, True]

#: the built-in heuristics, all of which meet the early-exit condition
EVERY_HEURISTIC = pytest.mark.parametrize(
    "heuristic",
    [KMB_HEURISTIC, ZEL_HEURISTIC, MEHLHORN_HEURISTIC],
    ids=lambda h: h.name,
)

#: vendored fallback corpus: (seed, use a grid, warm the members first)
SEED_CASES = [(seed, seed % 2 == 0, seed % 3 == 0) for seed in range(12)]


def property_case(func):
    """Run ``func(seed, grid, warm)`` under hypothesis or the corpus."""
    if HAVE_HYPOTHESIS:
        return settings(max_examples=25, deadline=None)(
            given(
                seed=st.integers(min_value=0, max_value=2**20),
                grid=st.booleans(),
                warm=st.booleans(),
            )(func)
        )
    return pytest.mark.parametrize("seed,grid,warm", SEED_CASES)(func)


def reference_kmb_tree_graph(graph, terminals, cache=None):
    """KMB as built before the shared kernel: closure, dense MST,
    expansion into a :class:`Graph`, Prim, then pendant pruning."""
    terminals = list(dict.fromkeys(terminals))
    if len(terminals) == 1:
        g = Graph()
        g.add_node(terminals[0])
        return g
    if cache is None:
        cache = ShortestPathCache(graph)
    closure = DistanceGraph(cache, terminals)
    mst_edges, _ = dense_mst(closure.matrix, terminals)
    expanded = closure.expand_edges((u, v) for u, v, _ in mst_edges)
    tree_edges, _ = prim_mst(expanded)
    tree = Graph()
    for t in terminals:
        tree.add_node(t)
    for u, v, w in tree_edges:
        tree.add_edge(u, v, w)
    prune_non_terminal_leaves(tree, terminals)
    return tree


def make_cache(graph, source_rooted):
    return ShortestPathCache(graph, source_rooted=source_rooted)


def make_instance(seed, grid):
    """A graph plus random members N ∪ S and candidates outside them."""
    rnd = random.Random(seed)
    if grid:
        graph = grid_graph(rnd.randint(3, 7), rnd.randint(3, 7))
    else:
        n = rnd.randint(6, 30)
        m = min(n - 1 + rnd.randint(0, 3 * n), n * (n - 1) // 2)
        graph = random_connected_graph(n, m, rnd)
    nodes = sorted(graph.nodes, key=repr)
    members = rnd.sample(nodes, rnd.randint(2, min(7, len(nodes) - 1)))
    rest = [v for v in nodes if v not in members]
    candidates = rnd.sample(rest, min(len(rest), 6))
    return graph, members, candidates


def layout(tree):
    """Node order, per-node neighbour order and weights of a tree."""
    return [(u, list(tree.neighbor_items(u))) for u in tree.nodes]


@property_case
def test_round_evaluator_equals_reference_kmb_cost(seed, grid, warm):
    graph, members, candidates = make_instance(seed, grid)
    for rule in PATH_RULES:
        cache = make_cache(graph, rule)
        if warm:
            cache.warm(members)
        cost = KMB_HEURISTIC.round_fn(graph, members, cache)
        # a member re-offered as candidate is deduplicated, like KMB does
        for t in candidates + [members[-1]]:
            ref_cache = reference_cache(graph, rule)
            expected = reference_kmb_tree_graph(
                graph, members + [t], ref_cache
            ).total_weight()
            assert cost(t) == expected, (rule, t)


@property_case
def test_kmb_tree_graph_equals_reference_layout(seed, grid, warm):
    graph, members, candidates = make_instance(seed, grid)
    terminals = members + candidates[:1]
    for rule in PATH_RULES:
        cache = make_cache(graph, rule)
        if warm:
            cache.warm(members)
        tree = kmb_tree_graph(graph, terminals, cache)
        ref_cache = reference_cache(graph, rule)
        if warm:
            ref_cache.warm(members)
        expected = reference_kmb_tree_graph(graph, terminals, ref_cache)
        assert layout(tree) == layout(expected), rule
        assert kmb_cost(graph, terminals, cache) == expected.total_weight()


class TestKernelEdgeCases:
    def test_single_terminal(self, small_grid):
        tree = kmb_tree_graph(small_grid, [(1, 1), (1, 1)])
        assert list(tree.nodes) == [(1, 1)]
        assert kmb_cost(small_grid, [(1, 1)]) == 0

    def test_disconnected_candidate_row_raises(self):
        g = Graph()
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_node(9)
        cost = KMB_HEURISTIC.round_fn(g, [1, 3], ShortestPathCache(g))
        assert cost(2) == 2.0
        with pytest.raises(DisconnectedError) as info:
            cost(9)
        assert (info.value.source, info.value.target) == (1, 9)
        # a failed candidate leaves the shared closure intact
        assert cost(2) == 2.0


def two_terminal_instances():
    for seed in range(6):
        rnd = random.Random(1000 + seed)
        if seed % 2:
            graph = grid_graph(6, 5)
        else:
            graph = random_connected_graph(24, 60, rnd)
        nodes = sorted(graph.nodes, key=repr)
        a, b = rnd.sample(nodes, 2)
        yield graph, Net(source=a, sinks=(b,))


def offset(heuristic):
    """``heuristic`` with every cost shifted by a constant: identical
    gains, but cost(H(N)) no longer equals minpath(a, b), so IGMST must
    run the full candidate scan."""
    return SteinerHeuristic(
        heuristic.name,
        lambda g, t, c: heuristic.cost_fn(g, t, c) + 1024.0,
        heuristic.tree_fn,
    )


@EVERY_HEURISTIC
def test_two_terminal_early_exit_matches_full_scan(heuristic):
    for graph, net in two_terminal_instances():
        fast = igmst(graph, net, heuristic=heuristic, record_trace=True)
        full = igmst(graph, net, heuristic=offset(heuristic),
                     record_trace=True)
        assert layout(fast.tree) == layout(full.tree)
        assert fast.steiner_nodes == full.steiner_nodes == ()
        assert fast.trace.rounds == full.trace.rounds == 1
        assert fast.trace.steps == full.trace.steps == []


def counted(heuristic, calls):
    def cost_fn(g, terminals, cache):
        calls.append(tuple(terminals))
        return heuristic.cost_fn(g, terminals, cache)

    return SteinerHeuristic(heuristic.name, cost_fn, heuristic.tree_fn)


@EVERY_HEURISTIC
def test_two_terminal_net_evaluates_no_candidates(heuristic):
    for graph, net in two_terminal_instances():
        calls = []
        igmst(graph, net, heuristic=counted(heuristic, calls))
        assert calls == [tuple(net.terminals)]  # the base cost only


def test_doubled_cost_heuristic_still_scans():
    # cost(H(N)) = 2·minpath(a, b) fails the early-exit test, so the
    # custom heuristic of test_custom_heuristic_plugs_in keeps its scan
    graph, net = next(two_terminal_instances())
    calls = []
    bad = SteinerHeuristic(
        "BAD",
        lambda g, t, c: calls.append(tuple(t)) or 2 * kmb_cost(g, t, c),
        kmb_tree_graph,
    )
    result = igmst(graph, net, heuristic=bad)
    assert len(calls) == graph.num_nodes - 1  # base + every candidate
    assert result.algorithm == "IBAD"
