"""Tests for the arborescence heuristics (DJKA, DOM, PFA, IDOM) and the
exact GSA solver."""

from __future__ import annotations

import random

import pytest

from repro.arborescence import (
    DominanceOracle,
    djka,
    dom,
    dom_cost,
    idom,
    optimal_arborescence,
    optimal_arborescence_cost,
    pfa,
    tight_edge_dag,
)
from repro.errors import GraphError
from repro.graph import Graph, ShortestPathCache, dijkstra, grid_graph, is_tree
from repro.net import Net
from repro.steiner import kmb
from tests.conftest import random_instance
from tests.reference_kernels import dominated_by_both

ALGOS = [djka, dom, pfa, idom]


def assert_arborescence(graph, net, result):
    """Every sink's tree pathlength must equal its graph distance."""
    dist, _ = dijkstra(graph, net.source)
    assert is_tree(result.tree)
    for sink in net.sinks:
        assert result.pathlength(sink) == pytest.approx(dist[sink])


class TestDominance:
    def test_everything_dominates_source(self, medium_grid):
        oracle = DominanceOracle(medium_grid, (0, 0))
        assert oracle.dominates((5, 5), (0, 0))
        assert oracle.dominates((0, 0), (0, 0))

    def test_source_dominates_only_itself(self, medium_grid):
        oracle = DominanceOracle(medium_grid, (0, 0))
        assert not oracle.dominates((0, 0), (3, 3))

    def test_rectilinear_dominance_matches_geometry(self, medium_grid):
        # on a uniform grid with source at origin, p dominates s iff
        # p >= s componentwise (the Manhattan-plane special case of
        # Definition 4.1)
        oracle = DominanceOracle(medium_grid, (0, 0))
        assert oracle.dominates((4, 5), (2, 3))
        assert oracle.dominates((4, 5), (4, 0))
        assert not oracle.dominates((4, 5), (5, 5))
        assert not oracle.dominates((2, 3), (3, 2))

    def test_maxdom_is_meet_on_grid(self, medium_grid):
        oracle = DominanceOracle(medium_grid, (0, 0))
        m, d = oracle.maxdom((3, 7), (6, 2))
        assert m == (3, 2)
        assert d == 5

    def test_maxdom_unreachable_raises(self):
        g = Graph()
        g.add_edge("s", "a", 1.0)
        g.add_node("b")
        oracle = DominanceOracle(g, "s")
        with pytest.raises(GraphError):
            oracle.maxdom("a", "b")

    def test_nearest_dominated_prefers_close(self, medium_grid):
        oracle = DominanceOracle(medium_grid, (0, 0))
        target, d = oracle.nearest_dominated((5, 5), [(0, 0), (5, 4), (1, 1)])
        assert target == (5, 4)
        assert d == 1

    def test_nearest_dominated_falls_back_to_source(self, medium_grid):
        oracle = DominanceOracle(medium_grid, (0, 0))
        target, d = oracle.nearest_dominated((2, 0), [(0, 0), (0, 2)])
        assert target == (0, 0)
        assert d == 2

    def test_dominated_by_both_contains_source(self, medium_grid):
        oracle = DominanceOracle(medium_grid, (0, 0))
        common = dominated_by_both(oracle, (2, 5), (5, 2))
        assert (0, 0) in common
        assert (2, 2) in common
        assert (3, 3) not in common
        # MaxDom is the farthest member of that set
        m, d = oracle.maxdom((2, 5), (5, 2))
        assert m == (2, 2) and d == max(
            oracle.source_dist(c) for c in common
        )


class TestShortestPathProperty:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_optimal_pathlengths_on_grids(self, algo):
        for seed in range(6):
            g, net = random_instance(seed + 30, num_pins=5)
            result = algo(g, net)
            assert_arborescence(g, net, result)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_optimal_pathlengths_on_random_graphs(self, algo):
        from repro.graph import random_connected_graph, random_net

        rng = random.Random(99)
        for trial in range(4):
            g = random_connected_graph(40, 120, rng)
            net = random_net(g, 5, rng)
            result = algo(g, net)
            assert_arborescence(g, net, result)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_two_pin_net_is_shortest_path(self, algo, medium_grid):
        net = Net(source=(0, 0), sinks=((7, 7),))
        result = algo(medium_grid, net)
        assert result.cost == 14
        assert result.max_pathlength == 14


class TestWirelengthQuality:
    def test_ranking_idom_pfa_dom_djka(self):
        """Table 1's consistent wirelength ranking, on aggregate."""
        totals = {a.__name__: 0.0 for a in ALGOS}
        for seed in range(10):
            g, net = random_instance(seed + 40, num_pins=6)
            for algo in ALGOS:
                totals[algo.__name__] += algo(g, net).cost
        assert totals["idom"] <= totals["pfa"] + 1e-6
        assert totals["pfa"] <= totals["dom"] + 1e-6
        assert totals["dom"] <= totals["djka"] + 1e-6

    def test_idom_never_worse_than_dom(self):
        for seed in range(8):
            g, net = random_instance(seed + 50, num_pins=5)
            assert idom(g, net).cost <= dom(g, net).cost + 1e-9

    def test_pfa_competitive_with_kmb_uncongested(self):
        """On uncongested grids PFA's wirelength is near KMB's (§5)."""
        g = grid_graph(12, 12)
        rng = random.Random(4)
        ratio_sum, trials = 0.0, 8
        for i in range(trials):
            nodes = rng.sample(list(g.nodes), 5)
            net = Net(source=nodes[0], sinks=tuple(nodes[1:]))
            ratio_sum += pfa(g, net).cost / kmb(g, net).cost
        assert ratio_sum / trials <= 1.10

    def test_idom_exact_on_small_instances(self):
        gaps = []
        for seed in range(8):
            g, net = random_instance(seed + 60, num_pins=4)
            heur = idom(g, net).cost
            opt = optimal_arborescence_cost(g, net)
            assert heur >= opt - 1e-9
            gaps.append(heur / opt)
        assert sum(gaps) / len(gaps) <= 1.15


class TestExactGSA:
    def test_tight_edges_on_grid(self):
        g = grid_graph(4, 4)
        preds = tight_edge_dag(g, (0, 0))
        # (2,2) is reached via (1,2) and (2,1) only
        assert sorted(u for u, _ in preds[(2, 2)]) == [(1, 2), (2, 1)]
        assert preds[(0, 0)] == []

    def test_exact_cost_lower_bounds_heuristics(self):
        for seed in range(6):
            g, net = random_instance(seed + 70, num_pins=4)
            opt = optimal_arborescence_cost(g, net)
            for algo in ALGOS:
                assert algo(g, net).cost >= opt - 1e-9

    def test_exact_tree_is_valid_arborescence(self):
        for seed in range(6):
            g, net = random_instance(seed + 80, num_pins=4)
            tree, cost = optimal_arborescence(g, net)
            assert tree.total_weight() == pytest.approx(cost)
            dist, _ = dijkstra(g, net.source)
            from repro.graph import tree_paths_from

            tdist, _ = tree_paths_from(tree, net.source)
            for sink in net.sinks:
                assert tdist[sink] == pytest.approx(dist[sink])

    def test_exact_at_least_steiner_optimum(self):
        # GSA optimum is lower-bounded by the unconstrained GMST optimum
        from repro.steiner import optimal_steiner_cost

        for seed in range(5):
            g, net = random_instance(seed + 90, num_pins=4)
            gsa = optimal_arborescence_cost(g, net)
            gmst = optimal_steiner_cost(g, net.terminals)
            assert gsa >= gmst - 1e-9

    def test_sink_limit(self, medium_grid):
        net = Net(
            source=(0, 0),
            sinks=tuple((i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)),
        )
        with pytest.raises(GraphError):
            optimal_arborescence(medium_grid, net, max_sinks=5)


class TestDOMDetails:
    def test_dom_cost_consistent_with_tree(self):
        g, net = random_instance(3, num_pins=5)
        cache = ShortestPathCache(g)
        cost = dom_cost(g, net.source, net.sinks, cache)
        result = dom(g, net, cache)
        assert cost == pytest.approx(result.cost)

    def test_dom_handles_steiner_members(self):
        g, net = random_instance(4, num_pins=4)
        cache = ShortestPathCache(g)
        extra = next(
            v for v in g.nodes if v not in set(net.terminals)
        )
        cost = dom_cost(g, net.source, list(net.sinks) + [extra], cache)
        assert cost > 0

    def test_idom_trace(self):
        g, net = random_instance(6, num_pins=6)
        result = idom(g, net, record_trace=True)
        trace = result.trace
        costs = [trace.initial_cost] + [c for _, _, c in trace.steps]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert trace.final_cost == pytest.approx(result.cost)

    def test_idom_candidate_strategies(self):
        g, net = random_instance(7, num_pins=4)
        full = idom(g, net, candidates="all")
        nb = idom(g, net, candidates="neighborhood")
        assert_arborescence(g, net, nb)
        assert nb.cost >= full.cost - 1e-9  # restricted scan can't win

    def test_idom_unknown_strategy_raises(self, medium_grid):
        net = Net(source=(0, 0), sinks=((5, 5),))
        with pytest.raises(GraphError):
            idom(medium_grid, net, candidates="bogus")

    def test_idom_max_steiner_cap(self):
        g, net = random_instance(8, num_pins=6)
        result = idom(g, net, max_steiner_nodes=0)
        assert result.steiner_nodes == ()
        assert result.cost == pytest.approx(dom(g, net).cost)
