"""Tests for mixed criticality-aware routing (§2 classification)."""

from __future__ import annotations

import pytest

import repro
from repro.errors import RoutingError
from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit, xc4000
from repro.router import FPGARouter, RouterConfig


@pytest.fixture(scope="module")
def circuit():
    return synthesize_circuit(
        scaled_spec(circuit_spec("term1"), 0.22), seed=1
    )


class TestConfigValidation:
    def test_unknown_critical_algorithm(self):
        with pytest.raises(RoutingError):
            RouterConfig(critical_algorithm="warp")

    def test_two_pin_critical_rejected(self):
        with pytest.raises(RoutingError):
            RouterConfig(critical_algorithm="two_pin")

    def test_fraction_bounds(self):
        with pytest.raises(RoutingError):
            RouterConfig(critical_fraction=1.5)

    def test_critical_nets_normalized_to_frozenset(self):
        cfg = RouterConfig(
            critical_algorithm="pfa", critical_nets={"a", "b"}
        )
        assert isinstance(cfg.critical_nets, frozenset)


class TestClassification:
    def test_fraction_selects_longest_nets(self, circuit):
        cfg = RouterConfig(
            critical_algorithm="pfa", critical_fraction=0.25
        )
        router = FPGARouter(
            xc4000(circuit.rows, circuit.cols, 8), cfg
        )
        names = router._critical_names(circuit)
        assert len(names) == round(0.25 * circuit.num_nets)
        # selected nets have HPWL >= every unselected net's
        hpwl = {n.name: n.half_perimeter() for n in circuit.nets}
        worst_selected = min(hpwl[n] for n in names)
        best_unselected = max(
            v for k, v in hpwl.items() if k not in names
        )
        assert worst_selected >= best_unselected - 1  # ties allowed

    def test_no_critical_algorithm_means_empty(self, circuit):
        router = FPGARouter(
            xc4000(circuit.rows, circuit.cols, 8), RouterConfig()
        )
        assert router._critical_names(circuit) == set()

    def test_explicit_names_win(self, circuit):
        cfg = RouterConfig(
            critical_algorithm="pfa",
            critical_nets=frozenset({circuit.nets[0].name}),
            critical_fraction=0.9,
        )
        router = FPGARouter(
            xc4000(circuit.rows, circuit.cols, 8), cfg
        )
        assert router._critical_names(circuit) == {circuit.nets[0].name}


class TestMixedRouting:
    def test_mixed_dispatch_visible_in_routes(self, circuit):
        arch = xc4000(circuit.rows, circuit.cols, 10)
        cfg = RouterConfig(
            algorithm="kmb",
            critical_algorithm="pfa",
            critical_fraction=0.3,
        )
        result = repro.route(circuit, arch=arch, config=cfg)
        assert result.complete
        algos = {r.algorithm for r in result.routes}
        assert "KMB" in algos and "PFA" in algos

    def test_critical_nets_get_optimal_paths(self, circuit):
        arch = xc4000(circuit.rows, circuit.cols, 10)
        cfg = RouterConfig(
            algorithm="kmb",
            critical_algorithm="idom",
            critical_fraction=0.3,
        )
        result = repro.route(circuit, arch=arch, config=cfg)
        for route in result.routes:
            if route.algorithm == "IDOM":
                # pathlengths match the optimum recorded at routing time
                for sink, opt in route.optimal_pathlengths.items():
                    assert route.pathlengths[sink] <= opt + 1e-6

    def test_mixed_mode_still_completes_at_reasonable_width(self, circuit):
        from repro.router import minimum_channel_width

        pure, _ = minimum_channel_width(
            circuit, xc4000, RouterConfig(algorithm="kmb")
        )
        mixed, _ = minimum_channel_width(
            circuit, xc4000,
            RouterConfig(
                algorithm="kmb",
                critical_algorithm="pfa",
                critical_fraction=0.25,
            ),
        )
        # routing a quarter of the nets as arborescences costs at most
        # a couple of extra tracks
        assert mixed <= pure + 2
