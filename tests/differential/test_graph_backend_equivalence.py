"""One search substrate: every route of the matrix matches its golden.

Every search runs on the frozen CSR core (``Graph.freeze()``); the
dict-adjacency kernels that used to be the reference here are gone
from the package.  This module replays the workloads that certified
the CSR core against them — the acceptance algorithms (PFA / IDOM /
DJKA / DOM / IKMB on XC3000, IKMB on XC4000), each execution engine,
the search-backend matrix, and the full channel-width search — and
asserts bit-identical results against the committed goldens in
``goldens/``: identical trees edge-for-edge, identical wirelengths,
identical pass counts and channel widths.  Every golden used here
equals a recording made on the dict kernels, so the goldens still pin
the CSR core to them.

``graph_backend`` is the removed config field that used to pick the
substrate.  Requests stored before its removal carry it, so every case
loads its config through the service's request loader with one of the
field's old values, and must route exactly as the golden.  The search
matrix crosses it with every ``search`` value a stored request may
carry, the retired ``"bidir"`` and ``"auto"`` included.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import RoutingSession
from repro.fpga import xc3000
from repro.router import RouterConfig, minimum_channel_width
from repro.service import config_from_dict, config_to_dict

from .conftest import result_signature

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: old values of the removed field that select the CSR core
FLAT_BACKENDS = ["flat", "auto"]

#: every ``search`` value a stored request may carry
STORED_SEARCH = ["dijkstra", "astar", "bidir", "auto"]


def golden(name):
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def signature(result):
    """The JSON image the goldens store (tuples become lists)."""
    return json.loads(json.dumps(result_signature(result)))


def legacy_config(graph_backend, search="dijkstra", **kwargs):
    """A config loaded the way a stored request carrying the removed
    ``graph_backend`` field and a ``search`` value is."""
    doc = config_to_dict(RouterConfig(**kwargs))
    doc["graph_backend"] = graph_backend
    doc["search"] = search
    return config_from_dict(doc)


def route(arch, circuit, graph_backend, *, search="dijkstra",
          engine="serial", max_workers=None, algorithm="ikmb"):
    config = legacy_config(graph_backend, search, algorithm=algorithm,
                           max_passes=6)
    session = RoutingSession(arch, config, engine=engine,
                             max_workers=max_workers)
    return signature(session.route(circuit))


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("graph_backend", FLAT_BACKENDS)
    @pytest.mark.parametrize("algorithm", ["pfa", "idom", "djka", "dom"])
    def test_backend_matches_reference(
        self, tiny_xc3000, algorithm, graph_backend
    ):
        arch, circuit = tiny_xc3000
        got = route(arch, circuit, graph_backend, algorithm=algorithm)
        assert got == golden(f"tiny_xc3000_{algorithm}")

    def test_steiner_matches(self, tiny_xc3000):
        arch, circuit = tiny_xc3000
        got = route(arch, circuit, "flat", algorithm="ikmb")
        assert got == golden("tiny_xc3000_ikmb")

    def test_xc4000_family_matches_reference(self, tiny_xc4000):
        arch, circuit = tiny_xc4000
        assert route(arch, circuit, "flat") == golden("tiny_xc4000_ikmb")


class TestSearchBackendMatrix:
    """Paper mode never consults ``search``: no stored value may change
    a routed tree."""

    @pytest.mark.parametrize("search", STORED_SEARCH)
    def test_search_times_graph_backend(self, tiny_xc3000, search):
        arch, circuit = tiny_xc3000
        got = route(arch, circuit, "flat", search=search, algorithm="pfa")
        assert got == golden("tiny_xc3000_pfa")


class TestEngineEquivalence:
    """CSR shipping (shared base snapshot + per-net pin taps) must
    commit the exact trees of the golden serial route."""

    @pytest.mark.parametrize("graph_backend", FLAT_BACKENDS)
    @pytest.mark.parametrize("engine", ["serial", "thread"])
    def test_engine_backend_matrix(self, tiny_xc3000, engine, graph_backend):
        arch, circuit = tiny_xc3000
        got = route(arch, circuit, graph_backend, engine=engine)
        assert got == golden("tiny_xc3000_ikmb")

    def test_process_engine_matches(self, tiny_xc3000):
        arch, circuit = tiny_xc3000
        got = route(arch, circuit, "flat", engine="process", max_workers=2)
        assert got == golden("tiny_xc3000_ikmb")


class TestChannelWidthEquivalence:
    @pytest.mark.parametrize("algorithm", ["pfa", "djka"])
    def test_negotiated_width_identical(self, tiny_xc3000, algorithm):
        _, circuit = tiny_xc3000
        cfg = legacy_config("flat", algorithm=algorithm, search="dijkstra",
                            max_passes=4)
        w, result = minimum_channel_width(
            circuit, xc3000, cfg, w_start=3, w_max=10
        )
        expected = golden(f"width_tiny_xc3000_{algorithm}")
        assert w == expected["channel_width"]
        assert signature(result) == expected["signature"]
