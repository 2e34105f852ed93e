"""End-to-end integration tests: the full §5 pipeline in one pass.

Each test exercises an entire user workflow across module boundaries —
synthesize → route → measure → render → serialize — asserting the
cross-module invariants that unit tests cannot see.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis import RCParameters, routing_tree_delay
from repro.fpga import (
    circuit_spec,
    scaled_spec,
    synthesize_circuit,
    xc3000,
    xc4000,
)
from repro.graph import edge_key
from repro.io import result_from_dict, result_to_dict
from repro.router import (
    RouterConfig,
    minimum_channel_width,
)
from repro.viz import channel_occupancy, render_occupancy, render_svg


@pytest.fixture(scope="module")
def pipeline():
    """Synthesize + route one circuit once for the whole module."""
    spec = scaled_spec(circuit_spec("9symml"), 0.25)
    circuit = synthesize_circuit(spec, seed=11)
    width, result = minimum_channel_width(
        circuit, xc4000, RouterConfig(algorithm="ikmb")
    )
    arch = xc4000(circuit.rows, circuit.cols, width)
    return circuit, arch, width, result


class TestFullPipeline:
    def test_every_net_routed_once(self, pipeline):
        circuit, _, _, result = pipeline
        routed = {r.name for r in result.routes}
        assert routed == {n.name for n in circuit.nets}

    def test_wirelength_consistency_across_layers(self, pipeline):
        circuit, arch, _, result = pipeline
        # per-route wirelength == recomputed tree weight == edge sums
        for route in result.routes:
            tree = route.tree()
            assert tree.total_weight() == pytest.approx(route.wirelength)
            assert sum(w for _, _, w in route.edges) == pytest.approx(
                route.wirelength
            )

    def test_occupancy_consistent_with_routes(self, pipeline):
        circuit, arch, width, result = pipeline
        counts = channel_occupancy(result, arch)
        # total track-consumptions equals total segment edges used
        from repro.fpga import RoutingResourceGraph

        rrg = RoutingResourceGraph(arch)
        segments_used = sum(
            1
            for route in result.routes
            for u, v, _ in route.edges
            if rrg.segment_info(u, v) is not None
        )
        assert sum(counts.values()) == segments_used

    def test_render_and_serialize_agree(self, pipeline):
        circuit, arch, _, result = pipeline
        restored = result_from_dict(result_to_dict(result))
        assert render_occupancy(result, arch) == render_occupancy(
            restored, arch
        )
        assert render_svg(result, arch) == render_svg(restored, arch)

    def test_delay_evaluation_over_routed_trees(self, pipeline):
        circuit, arch, _, result = pipeline
        from repro.net import Net
        from repro.steiner.tree import RoutingTree

        for route in result.routes[:5]:
            net = Net(source=route.source, sinks=route.sinks)
            rt = RoutingTree(net=net, tree=route.tree())
            delay = routing_tree_delay(rt, RCParameters())
            assert delay > 0

    def test_xc3000_pipeline_also_works(self):
        spec = scaled_spec(circuit_spec("busc"), 0.12)
        circuit = synthesize_circuit(spec, seed=2)
        width, result = minimum_channel_width(
            circuit, xc3000, RouterConfig(algorithm="kmb")
        )
        assert result.complete
        # xc3000 uses Fc = ceil(0.6 W): the arch must reflect it
        arch = xc3000(circuit.rows, circuit.cols, width)
        assert arch.fc <= width
        assert arch.fs == 6


class TestCrossAlgorithmInvariants:
    def test_all_tree_algorithms_share_resource_accounting(self, pipeline):
        circuit, _, width, _ = pipeline
        # arborescence algorithms may need more width than IKMB's
        # minimum (Table 4); give everyone slack for this invariant test
        arch = xc4000(circuit.rows, circuit.cols, width + 3)
        for algo in ("kmb", "pfa", "idom"):
            res = repro.route(
                circuit, arch=arch, config=RouterConfig(algorithm=algo)
            )
            seen = {}
            for route in res.routes:
                for u, v, _ in route.edges:
                    key = edge_key(u, v)
                    assert key not in seen
                    seen[key] = route.name

    def test_arborescence_router_never_longer_paths(self, pipeline):
        """PFA routes must satisfy their per-net recorded optima; the
        steiner router generally does not — both on the same device."""
        circuit, _, width, _ = pipeline
        arch = xc4000(circuit.rows, circuit.cols, width + 3)
        pfa_res = repro.route(
            circuit, arch=arch, config=RouterConfig(algorithm="pfa")
        )
        violations = 0
        for route in pfa_res.routes:
            for sink, opt in route.optimal_pathlengths.items():
                if route.pathlengths[sink] > opt + 1e-6:
                    violations += 1
        assert violations == 0
