"""Tests for JSON serialization of circuits and routing results."""

from __future__ import annotations

import json

import pytest

import repro
from repro.errors import ReproError
from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit, xc4000
from repro.io import (
    circuit_from_dict,
    circuit_to_dict,
    load_circuit,
    load_result,
    result_from_dict,
    result_to_dict,
    save_circuit,
    save_result,
)
from repro.router import RouterConfig


@pytest.fixture(scope="module")
def circuit():
    return synthesize_circuit(
        scaled_spec(circuit_spec("term1"), 0.18), seed=2
    )


@pytest.fixture(scope="module")
def result(circuit):
    arch = xc4000(circuit.rows, circuit.cols, 10)
    return repro.route(
        circuit, arch=arch, config=RouterConfig(algorithm="kmb")
    )


class TestCircuitRoundTrip:
    def test_dict_round_trip(self, circuit):
        restored = circuit_from_dict(circuit_to_dict(circuit))
        assert restored.name == circuit.name
        assert restored.rows == circuit.rows
        assert [n.pins for n in restored.nets] == [
            n.pins for n in circuit.nets
        ]

    def test_file_round_trip(self, circuit, tmp_path):
        path = tmp_path / "circuit.json"
        save_circuit(circuit, str(path))
        restored = load_circuit(str(path))
        assert restored.num_nets == circuit.num_nets
        restored.validate(pins_per_block=8)

    def test_json_is_plain(self, circuit, tmp_path):
        path = tmp_path / "c.json"
        save_circuit(circuit, str(path))
        data = json.loads(path.read_text())
        assert data["format"] == "repro-circuit"

    def test_rejects_wrong_format(self):
        with pytest.raises(ReproError):
            circuit_from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self, circuit):
        data = circuit_to_dict(circuit)
        data["version"] = 99
        with pytest.raises(ReproError):
            circuit_from_dict(data)


class TestResultRoundTrip:
    def test_dict_round_trip(self, result):
        restored = result_from_dict(result_to_dict(result))
        assert restored.circuit == result.circuit
        assert restored.channel_width == result.channel_width
        assert restored.num_routed == result.num_routed
        assert restored.total_wirelength == pytest.approx(
            result.total_wirelength
        )

    def test_node_ids_decoded_to_tuples(self, result):
        restored = result_from_dict(result_to_dict(result))
        route = restored.routes[0]
        assert isinstance(route.source, tuple)
        assert route.source[0] == "P"
        u, v, _ = route.edges[0]
        assert isinstance(u, tuple) and isinstance(v, tuple)

    def test_metrics_survive(self, result):
        restored = result_from_dict(result_to_dict(result))
        for orig, back in zip(result.routes, restored.routes):
            assert back.max_pathlength == pytest.approx(
                orig.max_pathlength
            )
            assert back.wirelength == pytest.approx(orig.wirelength)

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_result(result, str(path))
        restored = load_result(str(path))
        assert restored.complete
        assert restored.summary() == result.summary()

    def test_tree_reconstruction_from_loaded(self, result, tmp_path):
        path = tmp_path / "r.json"
        save_result(result, str(path))
        restored = load_result(str(path))
        tree = restored.routes[0].tree()
        assert tree.total_weight() == pytest.approx(
            restored.routes[0].wirelength
        )

    def test_rejects_wrong_format(self):
        with pytest.raises(ReproError):
            result_from_dict({"format": "nope"})
