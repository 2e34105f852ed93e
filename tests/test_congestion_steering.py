"""Scenario tests: congestion steering and determinism of the router."""

from __future__ import annotations

import pytest

import repro
from repro.fpga import (
    Architecture,
    PlacedCircuit,
    PlacedNet,
    RoutingResourceGraph,
    circuit_spec,
    scaled_spec,
    synthesize_circuit,
    xc4000,
)
from repro.router import (
    CongestionModel,
    RouterConfig,
)


class TestSteering:
    def test_hot_span_weights_rise_monotonically(self):
        rrg = RoutingResourceGraph(
            Architecture(rows=2, cols=2, channel_width=4)
        )
        model = CongestionModel(rrg, alpha=2.0)
        group = ("H", 0, 1)
        keys = rrg.group_tracks(group)
        weights = []
        for u, v in keys[:-1]:
            rrg.graph.remove_node(u)  # consume one track
            model.reweight_groups([group])
            survivors = [
                k for k in keys if rrg.graph.has_edge(*k)
            ]
            if survivors:
                su, sv = survivors[0]
                weights.append(rrg.graph.weight(su, sv))
        assert all(a < b for a, b in zip(weights, weights[1:]))

    def test_congestion_spreads_usage(self):
        """With congestion on, track usage spreads across channel spans
        (lower peak utilization than congestion-off at equal width)."""
        from repro.viz import channel_occupancy

        circuit = synthesize_circuit(
            scaled_spec(circuit_spec("term1"), 0.2), seed=3
        )
        width = 8
        arch = xc4000(circuit.rows, circuit.cols, width)
        peaks = {}
        for label, cfg in (
            ("on", RouterConfig(algorithm="kmb")),
            ("off", RouterConfig(algorithm="kmb", congestion=False)),
        ):
            result = repro.route(circuit, arch=arch, config=cfg)
            counts = channel_occupancy(result, arch)
            peaks[label] = max(counts.values())
        assert peaks["on"] <= peaks["off"] + 1


class TestRouterDeterminism:
    def test_same_inputs_same_result(self):
        circuit = synthesize_circuit(
            scaled_spec(circuit_spec("9symml"), 0.2), seed=5
        )
        arch = xc4000(circuit.rows, circuit.cols, 8)
        cfg = RouterConfig(algorithm="kmb")
        r1 = repro.route(circuit, arch=arch, config=cfg)
        r2 = repro.route(circuit, arch=arch, config=cfg)
        assert r1.total_wirelength == pytest.approx(r2.total_wirelength)
        assert [n.name for n in r1.routes] == [n.name for n in r2.routes]
        for a, b in zip(r1.routes, r2.routes):
            assert sorted(map(repr, a.edges)) == sorted(map(repr, b.edges))

    def test_cross_algorithm_isolation(self):
        # running one algorithm must not perturb a later run of another
        circuit = synthesize_circuit(
            scaled_spec(circuit_spec("9symml"), 0.2), seed=5
        )
        arch = xc4000(circuit.rows, circuit.cols, 8)
        first = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        ).total_wirelength
        repro.route(circuit, arch=arch, config=RouterConfig(algorithm="pfa"))
        again = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        ).total_wirelength
        assert first == pytest.approx(again)


class TestPinConflictScenarios:
    def test_two_nets_same_block_different_pins(self):
        nets = [
            PlacedNet("a", (0, 0, 0), ((2, 2, 0),)),
            PlacedNet("b", (0, 0, 1), ((2, 2, 1),)),
        ]
        circuit = PlacedCircuit(name="t", rows=3, cols=3, nets=nets)
        arch = xc4000(3, 3, 4)
        result = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        assert result.complete

    def test_dense_block_all_pins_used(self):
        # every pin slot of the center block carries a net
        nets = [
            PlacedNet(
                f"n{p}", (1, 1, p),
                (((0, 0, p) if p % 2 == 0 else (2, 2, p)),),
            )
            for p in range(8)
        ]
        circuit = PlacedCircuit(name="dense", rows=3, cols=3, nets=nets)
        arch = xc4000(3, 3, 8)
        result = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        assert result.complete
        assert result.num_routed == 8
