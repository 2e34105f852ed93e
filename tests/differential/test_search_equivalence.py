"""Stored ``search`` values cannot change a paper-mode route.

Paper mode answers every distance from cached single-source trees and
never consults ``RouterConfig.search``, which steers only PathFinder's
negotiated searches.  Requests stored while the field had four values
(``"dijkstra"``, ``"astar"``, ``"bidir"``, ``"auto"``) still carry any
of them, so every cell here loads its config through the service's
request loader with one of those values and replays a workload — each
iterated algorithm, each execution engine, and the channel-width
search — against the committed goldens in ``goldens/``: identical
trees edge-for-edge, identical wirelengths, identical pass counts and
channel widths.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.fpga import xc3000
from repro.router import RouterConfig, minimum_channel_width
from repro.service import config_from_dict, config_to_dict

from .conftest import route_once, result_signature

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: every ``search`` value a stored request may carry
STORED_SEARCH = ["dijkstra", "astar", "bidir", "auto"]


def golden(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def signature(result):
    """The JSON image the goldens store (tuples become lists)."""
    return json.loads(json.dumps(result_signature(result)))


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("backend", STORED_SEARCH)
    @pytest.mark.parametrize("algorithm", ["ikmb", "pfa", "idom"])
    def test_backend_matches_reference(
        self, tiny_xc3000, algorithm, backend
    ):
        arch, circuit = tiny_xc3000
        got = route_once(arch, circuit, backend=backend, algorithm=algorithm)
        assert signature(got) == golden(f"tiny_xc3000_{algorithm}")

    @pytest.mark.parametrize("backend", STORED_SEARCH)
    def test_izel_matches_reference(self, mini_xc3000, backend):
        arch, circuit = mini_xc3000
        got = route_once(arch, circuit, backend=backend, algorithm="izel",
                         steiner_candidate_depth=1, max_steiner_nodes=4)
        assert signature(got) == golden("mini_xc3000_izel")

    @pytest.mark.parametrize("backend", STORED_SEARCH)
    def test_xc4000_family_matches_reference(self, tiny_xc4000, backend):
        arch, circuit = tiny_xc4000
        got = route_once(arch, circuit, backend=backend)
        assert signature(got) == golden("tiny_xc4000_ikmb")

    @pytest.mark.parametrize("backend", ["astar", "bidir", "auto"])
    def test_congestion_free_config_matches(self, tiny_xc3000, backend):
        # no golden pins this configuration: the "dijkstra" cell is the
        # reference
        arch, circuit = tiny_xc3000
        kwargs = dict(congestion=False, algorithm="pfa")
        ref = result_signature(
            route_once(arch, circuit, backend="dijkstra", **kwargs)
        )
        got = result_signature(
            route_once(arch, circuit, backend=backend, **kwargs)
        )
        assert got == ref


class TestEngineEquivalence:
    """The engines share the worker wiring: the speculative parallel
    paths must commit the golden serial trees under every stored
    value."""

    @pytest.mark.parametrize("backend", STORED_SEARCH)
    @pytest.mark.parametrize("engine", ["serial", "thread"])
    def test_engine_backend_matrix(self, tiny_xc3000, engine, backend):
        arch, circuit = tiny_xc3000
        got = route_once(arch, circuit, backend=backend, engine=engine)
        assert signature(got) == golden("tiny_xc3000_ikmb")

    @pytest.mark.parametrize("backend", ["auto"])
    def test_process_engine_matches(self, tiny_xc3000, backend):
        arch, circuit = tiny_xc3000
        got = route_once(arch, circuit, backend=backend, engine="process",
                         max_workers=2)
        assert signature(got) == golden("tiny_xc3000_ikmb")


class TestChannelWidthEquivalence:
    @pytest.mark.parametrize("backend", STORED_SEARCH)
    def test_negotiated_width_identical(self, tiny_xc3000, backend):
        _, circuit = tiny_xc3000
        doc = config_to_dict(RouterConfig(algorithm="pfa", max_passes=4))
        doc["search"] = backend
        w, result = minimum_channel_width(
            circuit, xc3000, config_from_dict(doc), w_start=3, w_max=10
        )
        expected = golden("width_tiny_xc3000_pfa")
        assert w == expected["channel_width"]
        assert signature(result) == expected["signature"]
