"""Tests for the detailed router (config, congestion, routing, width)."""

from __future__ import annotations

import pytest

import repro
from repro.engine import RoutingSession
from repro.errors import RoutingError, UnroutableError
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
    ALGORITHMS,
    CongestionModel,
    RouterConfig,
    estimate_lower_bound,
    minimum_channel_width,
)


@pytest.fixture(scope="module")
def small_circuit():
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    return synthesize_circuit(spec, seed=1)


def tiny_circuit():
    """Four hand-placed nets on a 3x3 array."""
    nets = [
        PlacedNet("a", (0, 0, 0), ((2, 2, 0),)),
        PlacedNet("b", (0, 2, 0), ((2, 0, 0),)),
        PlacedNet("c", (1, 1, 0), ((0, 1, 0), (2, 1, 0))),
        PlacedNet("d", (1, 0, 0), ((1, 2, 0),)),
    ]
    return PlacedCircuit(name="tiny", rows=3, cols=3, nets=nets)


class TestConfig:
    def test_defaults(self):
        cfg = RouterConfig()
        assert cfg.algorithm == "ikmb"
        assert cfg.max_passes == 20

    def test_unknown_algorithm(self):
        with pytest.raises(RoutingError):
            RouterConfig(algorithm="astar")

    def test_invalid_passes(self):
        with pytest.raises(RoutingError):
            RouterConfig(max_passes=0)

    def test_invalid_order(self):
        with pytest.raises(RoutingError):
            RouterConfig(order="random")

    def test_with_algorithm(self):
        cfg = RouterConfig().with_algorithm("pfa")
        assert cfg.algorithm == "pfa"
        assert cfg.max_passes == RouterConfig().max_passes


class TestCongestionModel:
    def test_penalty_scale(self):
        rrg = RoutingResourceGraph(
            Architecture(rows=2, cols=2, channel_width=2)
        )
        model = CongestionModel(rrg, alpha=2.0)
        assert model.penalty(0.0) == 1.0
        assert model.penalty(0.5) == 2.0

    def test_reweight_after_consumption(self):
        rrg = RoutingResourceGraph(
            Architecture(rows=2, cols=2, channel_width=2)
        )
        model = CongestionModel(rrg, alpha=2.0)
        group = ("H", 0, 0)
        keys = rrg.group_tracks(group)
        u, v = keys[0]
        rrg.graph.remove_node(u)  # consume one track's junction
        model.reweight_groups([group])
        u2, v2 = keys[1]
        assert rrg.graph.weight(u2, v2) == pytest.approx(
            rrg.base_weight(u2, v2) * 2.0
        )

    def test_alpha_zero_keeps_base(self):
        rrg = RoutingResourceGraph(
            Architecture(rows=2, cols=2, channel_width=2)
        )
        model = CongestionModel(rrg, alpha=0.0)
        group = ("H", 0, 0)
        u, v = rrg.group_tracks(group)[0]
        rrg.graph.remove_edge(u, v)
        model.reweight_groups([group])
        u2, v2 = rrg.group_tracks(group)[1]
        assert rrg.graph.weight(u2, v2) == rrg.base_weight(u2, v2)


class TestRouting:
    def test_tiny_circuit_routes(self):
        circuit = tiny_circuit()
        arch = xc4000(3, 3, 4)
        result = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        assert result.complete
        assert result.num_routed == 4
        for route in result.routes:
            assert route.wirelength > 0
            assert route.max_pathlength > 0

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_all_algorithms_route_tiny(self, algo):
        circuit = tiny_circuit()
        arch = xc4000(3, 3, 6)
        result = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm=algo)
        )
        assert result.complete
        assert result.algorithm == algo

    def test_unroutable_at_width_one(self, small_circuit):
        arch = xc4000(small_circuit.rows, small_circuit.cols, 1)
        with pytest.raises(UnroutableError) as exc:
            repro.route(
                small_circuit, arch=arch,
                config=RouterConfig(algorithm="kmb", max_passes=3),
            )
        assert exc.value.channel_width == 1
        assert exc.value.failed_nets

    def test_routes_are_disjoint(self, small_circuit):
        w, result = minimum_channel_width(
            small_circuit, xc4000, RouterConfig(algorithm="kmb")
        )
        # no routing-resource edge may be used by two different nets
        seen = {}
        from repro.graph import edge_key

        for route in result.routes:
            for u, v, _ in route.edges:
                key = edge_key(u, v)
                assert key not in seen, (
                    f"edge {key} shared by {seen.get(key)} and {route.name}"
                )
                seen[key] = route.name

    def test_arborescence_router_pathlengths(self, small_circuit):
        w, result = minimum_channel_width(
            small_circuit, xc4000, RouterConfig(algorithm="pfa")
        )
        # PFA routes must hit the recorded optimal pathlengths exactly
        # (both measured on the same congested graph state)
        for route in result.routes:
            for sink, opt in route.optimal_pathlengths.items():
                assert route.pathlengths[sink] <= opt + 1e-6

    def test_steiner_vs_two_pin_wirelength(self, small_circuit):
        width = 14  # generous width: both algorithms route in one pass
        arch = xc4000(small_circuit.rows, small_circuit.cols, width)
        steiner = repro.route(
            small_circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        two_pin = repro.route(
            small_circuit, arch=arch, config=RouterConfig(algorithm="two_pin")
        )
        assert steiner.total_wirelength < two_pin.total_wirelength

    def test_input_order_preserved(self):
        circuit = tiny_circuit()
        arch = xc4000(3, 3, 6)
        result = repro.route(
            circuit,
            arch=arch,
            config=RouterConfig(algorithm="kmb", order="input"),
        )
        assert [r.name for r in result.routes] == ["a", "b", "c", "d"]

    def test_summary_fields(self, small_circuit):
        arch = xc4000(small_circuit.rows, small_circuit.cols, 10)
        result = repro.route(
            small_circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        s = result.summary()
        assert s["routed"] == small_circuit.num_nets
        assert s["failed"] == 0
        assert s["W"] == 10


class TestChannelWidthSearch:
    def test_lower_bound_positive(self, small_circuit):
        assert estimate_lower_bound(small_circuit) >= 1

    def test_minimum_is_minimal(self, small_circuit):
        cfg = RouterConfig(algorithm="kmb")
        w, result = minimum_channel_width(small_circuit, xc4000, cfg)
        assert result.complete
        assert result.channel_width == w
        # one width below must fail (when above the search floor)
        if w > 1:
            arch = xc4000(small_circuit.rows, small_circuit.cols, w - 1)
            with pytest.raises(UnroutableError):
                RoutingSession(arch, cfg).route(small_circuit)

    def test_w_max_exhaustion(self, small_circuit):
        with pytest.raises(RoutingError):
            minimum_channel_width(
                small_circuit, xc4000,
                RouterConfig(algorithm="kmb", max_passes=1),
                w_start=1, w_max=1,
            )


class TestNetRoute:
    def test_route_tree_reconstruction(self, small_circuit):
        arch = xc4000(small_circuit.rows, small_circuit.cols, 10)
        result = repro.route(
            small_circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        route = result.routes[0]
        tree = route.tree()
        assert tree.total_weight() == pytest.approx(route.wirelength)

    def test_route_by_name(self, small_circuit):
        arch = xc4000(small_circuit.rows, small_circuit.cols, 10)
        result = repro.route(
            small_circuit, arch=arch, config=RouterConfig(algorithm="kmb")
        )
        name = result.routes[3].name
        assert result.route_by_name(name).name == name
        with pytest.raises(KeyError):
            result.route_by_name("ghost")

    def test_pathlength_stretch(self, small_circuit):
        arch = xc4000(small_circuit.rows, small_circuit.cols, 10)
        result = repro.route(
            small_circuit, arch=arch, config=RouterConfig(algorithm="djka")
        )
        assert result.mean_pathlength_stretch() <= 1.0 + 1e-6
