"""Focused tests for router internals and the experiment width driver."""

from __future__ import annotations

import pytest

import repro
from repro.analysis.experiments import (
    _pristine_max_paths,
    run_width_table,
)
from repro.engine import RoutingSession
from repro.fpga import (
    Architecture,
    RoutingResourceGraph,
    XC4000_CIRCUITS,
    circuit_spec,
    scaled_spec,
    synthesize_circuit,
    xc4000,
)
from repro.graph import Graph
from repro.net import Net
from repro.router import RouterConfig
from repro.router.router import steiner_candidates_near_tree
from repro.steiner import kmb_tree_graph


class TestCandidateNeighborhood:
    @pytest.fixture
    def rrg(self):
        return RoutingResourceGraph(
            Architecture(rows=4, cols=4, channel_width=3, pins_per_block=4)
        )

    def test_excludes_tree_nodes_and_pins(self, rrg):
        from repro.fpga import pin_node
        from repro.graph import ShortestPathCache

        rrg.detach_all_pins()
        a = pin_node(0, 0, 0)
        b = pin_node(3, 3, 0)
        rrg.attach_pins([a, b])
        cache = ShortestPathCache(rrg.graph)
        seed = kmb_tree_graph(rrg.graph, [a, b], cache)
        cands = steiner_candidates_near_tree(rrg.graph, seed, depth=2)
        tree_nodes = set(seed.nodes)
        for c in cands:
            assert c not in tree_nodes
            assert c[0] == "J"

    def test_depth_zero_is_empty(self, rrg):
        g = rrg.graph
        u = next(iter(g.nodes))
        seed = Graph()
        seed.add_node(u)
        assert steiner_candidates_near_tree(g, seed, depth=0) == []

    def test_depth_grows_pool(self, rrg):
        g = rrg.graph
        u = next(n for n in g.nodes if n[0] == "J")
        seed = Graph()
        seed.add_node(u)
        d1 = steiner_candidates_near_tree(g, seed, depth=1)
        d3 = steiner_candidates_near_tree(g, seed, depth=3)
        assert len(d3) >= len(d1)


class TestPristinePaths:
    def test_matches_empty_device_distances(self):
        circuit = synthesize_circuit(
            scaled_spec(circuit_spec("term1"), 0.15), seed=4
        )
        arch = xc4000(circuit.rows, circuit.cols, 6)
        pristine = _pristine_max_paths(circuit, arch)
        assert set(pristine) == {n.name for n in circuit.nets}
        assert all(v > 0 for v in pristine.values())

    def test_lower_bounds_routed_paths(self):
        circuit = synthesize_circuit(
            scaled_spec(circuit_spec("term1"), 0.15), seed=4
        )
        arch = xc4000(circuit.rows, circuit.cols, 8)
        pristine = _pristine_max_paths(circuit, arch)
        result = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        for route in result.routes:
            assert route.max_pathlength >= pristine[route.name] - 1e-6


class TestWidthDriver:
    def test_small_width_table(self):
        specs = [s for s in XC4000_CIRCUITS if s.name == "term1"]
        result = run_width_table(
            specs,
            xc4000,
            algorithms=("kmb",),
            fraction=0.12,
            seed=2,
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.widths["kmb"] >= 1
        assert "SEGA" in row.published
        text = result.render(baseline="kmb")
        assert "TOTAL" in text and "ratio" in text

    def test_totals(self):
        from repro.analysis.experiments import WidthRow, WidthTableResult

        r = WidthTableResult(family="x")
        r.rows = [
            WidthRow("a", {"kmb": 3, "pfa": 4}, {}),
            WidthRow("b", {"kmb": 5, "pfa": 5}, {}),
        ]
        assert r.totals() == {"kmb": 8, "pfa": 9}


class TestStallDetection:
    def test_unroutable_reports_failures(self):
        circuit = synthesize_circuit(
            scaled_spec(circuit_spec("term1"), 0.2), seed=6
        )
        arch = xc4000(circuit.rows, circuit.cols, 1)
        session = RoutingSession(arch, RouterConfig(algorithm="kmb"))
        from repro.errors import UnroutableError

        with pytest.raises(UnroutableError) as exc:
            session.route(circuit)
        assert exc.value.failed_nets
        assert exc.value.passes <= 20

    def test_hopeless_case_stalls_early(self):
        # two nets forced through the same single-track cut: the
        # failure count can never reach zero, so the stall window (3
        # non-improving passes) must abort well before the pass budget
        from repro.errors import UnroutableError
        from repro.fpga import PlacedCircuit, PlacedNet

        nets = [
            PlacedNet("a", (0, 0, 0), ((4, 0, 0),)),
            PlacedNet("b", (0, 0, 1), ((4, 0, 1),)),
            PlacedNet("c", (0, 0, 2), ((4, 0, 2),)),
            PlacedNet("d", (0, 0, 3), ((4, 0, 3),)),
        ]
        circuit = PlacedCircuit(name="cut", rows=1, cols=5, nets=nets)
        arch = xc4000(1, 5, 1)
        session = RoutingSession(arch, RouterConfig(algorithm="kmb"))
        with pytest.raises(UnroutableError) as exc:
            session.route(circuit)
        assert exc.value.passes < 20
