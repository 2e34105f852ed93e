"""Tests for the worst-case families of Figures 10, 11 and 14."""

from __future__ import annotations

import pytest

from repro.arborescence import (
    greedy_set_cover,
    idom,
    optimal_arborescence_cost,
    pfa,
    pfa_trap_family,
    setcover_family,
    staircase_instance,
)
from repro.analysis import run_fig11
from repro.errors import GraphError
from repro.graph import dijkstra, is_tree


class TestPFATrapFamily:
    def test_instance_structure(self):
        inst = pfa_trap_family(3)
        assert len(inst.net.sinks) == 6
        assert inst.graph.has_node("g")
        assert inst.graph.has_node("m2")

    def test_analytic_optimum_matches_exact(self):
        for pairs in (1, 2, 3):
            inst = pfa_trap_family(pairs)
            exact = optimal_arborescence_cost(inst.graph, inst.net)
            assert exact == pytest.approx(inst.optimal_cost)

    def test_pfa_pays_the_traps(self):
        inst = pfa_trap_family(4)
        cost = pfa(inst.graph, inst.net).cost
        assert cost == pytest.approx(inst.trap_cost)

    def test_idom_recovers_the_hub(self):
        inst = pfa_trap_family(4)
        cost = idom(inst.graph, inst.net).cost
        assert cost == pytest.approx(inst.optimal_cost)

    def test_ratio_grows_linearly(self):
        ratios = []
        for pairs in (2, 4, 8):
            inst = pfa_trap_family(pairs)
            ratios.append(pfa(inst.graph, inst.net).cost / inst.optimal_cost)
        assert ratios[0] < ratios[1] < ratios[2]
        # doubling the pairs roughly doubles the ratio
        assert ratios[2] / ratios[1] > 1.5

    def test_solutions_remain_arborescences(self):
        inst = pfa_trap_family(3)
        dist, _ = dijkstra(inst.graph, inst.net.source)
        for algo in (pfa, idom):
            tree = algo(inst.graph, inst.net)
            assert is_tree(tree.tree)
            for sink in inst.net.sinks:
                assert tree.pathlength(sink) == pytest.approx(dist[sink])

    def test_invalid_pairs(self):
        with pytest.raises(GraphError):
            pfa_trap_family(0)


class TestStaircase:
    def test_geometry(self):
        inst = staircase_instance(3)
        assert inst.net.source == (0, 0)
        assert inst.net.sinks == ((1, 6), (2, 4), (3, 2))

    def test_upper_bound_is_feasible(self):
        # PFA's arborescence is feasible, so it bounds the optimum
        for k in (2, 3, 4):
            inst = staircase_instance(k)
            opt = optimal_arborescence_cost(inst.graph, inst.net)
            assert opt <= pfa(inst.graph, inst.net).cost + 1e-9

    def test_pfa_valid_and_bounded(self):
        for k in (2, 4, 6):
            inst = staircase_instance(k)
            tree = pfa(inst.graph, inst.net)
            dist, _ = dijkstra(inst.graph, inst.net.source)
            for sink in inst.net.sinks:
                assert tree.pathlength(sink) == pytest.approx(dist[sink])
            # the RSA bound: at most 2x the exact optimum
            opt = optimal_arborescence_cost(inst.graph, inst.net)
            assert tree.cost <= 2 * opt + 1e-9

    def test_invalid_size(self):
        with pytest.raises(GraphError):
            staircase_instance(0)

    def test_fig11_ratios_are_exact(self):
        # 8 and 10 sinks: the exact optima, not the old chain "bound"
        # (48 at 10 sinks), which is no arborescence at all
        rows = run_fig11((8, 10))
        assert [r["optimal"] for r in rows] == [38.0, 52.0]
        assert [r["pfa"] for r in rows] == [39.0, 52.0]
        assert rows[0]["ratio"] == 39.0 / 38.0
        assert rows[1]["ratio"] == 1.0

    def test_fig11_refuses_beyond_exact_limit(self):
        with pytest.raises(GraphError):
            run_fig11((13,))


class TestSetCoverFamily:
    def test_boxes_cover_universe(self):
        inst = setcover_family(3)
        universe = {(r, c) for r in range(2) for c in range(8)}
        assert set().union(*inst.boxes.values()) == universe
        # the two row boxes alone cover everything
        assert (
            inst.boxes["R0"] | inst.boxes["R1"] == universe
        )

    def test_greedy_selects_log_many(self):
        for levels in (2, 3, 4):
            inst = setcover_family(levels)
            universe = set().union(*inst.boxes.values())
            chosen = greedy_set_cover(universe, inst.boxes)
            assert len(chosen) == levels + 1
            assert all(name.startswith("C") for name in chosen)

    def test_greedy_requires_coverage(self):
        with pytest.raises(GraphError):
            greedy_set_cover({1, 2}, {"a": frozenset({1})})

    def test_graph_expansion(self):
        inst = setcover_family(2)
        # each sink has zero-weight edges to every box containing it
        sink = ("sink", 0, 0)
        neighbors = list(inst.graph.neighbors(sink))
        assert all(n[0] == "box" for n in neighbors)
        # row box R0 and the first column box C0 both contain (0, 0)
        assert ("box", "R0") in neighbors
        assert ("box", "C0") in neighbors

    def test_substrate_idom_escapes_the_bound(self):
        # documented reproduction finding: with path-level sharing the
        # expanded graph is solvable at cost 1 and IDOM finds it
        inst = setcover_family(3)
        assert idom(inst.graph, inst.net).cost == pytest.approx(1.0)
