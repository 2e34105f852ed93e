"""Unit tests for the flat CSR graph core and its integration seams.

Covers what the property suite (test_flat_properties.py) does not:
the removed ``graph_backend`` knob and its legacy values, pickling,
the cache's single CSR substrate, the worker's flat materialization,
the config/CLI surface, and the package exports.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

import repro
from repro.errors import GraphError
from repro.fpga import xc4000
from repro.fpga.routing_graph import RoutingResourceGraph
from repro.graph import (
    FlatGraph,
    Graph,
    GraphView,
    ShortestPathCache,
    grid_graph,
)
from repro.net import Net
from repro.router import RouterConfig
from repro.service import config_from_dict


def small_graph():
    g = Graph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("a", "c", 5.0)
    g.add_node("lone")
    return g


def assert_same_adjacency(g, h):
    assert list(g.nodes) == list(h.nodes)
    assert g.num_edges == h.num_edges
    for node in g.nodes:
        assert list(g.neighbor_items(node)) == list(h.neighbor_items(node))


# ----------------------------------------------------------------------
# the removed graph_backend knob
# ----------------------------------------------------------------------
class TestResolveBackend:
    """``graph_backend`` once chose between dict and CSR search.  Every
    search now runs on CSR, so the knob is gone from ``RouterConfig``;
    requests written with it still load."""

    def test_explicit_choices_pass_through(self):
        for choice in ("dict", "flat", "auto"):
            doc = {"algorithm": "ikmb", "graph_backend": choice}
            assert config_from_dict(doc) == RouterConfig(algorithm="ikmb")

    def test_unknown_choice_rejected(self):
        with pytest.raises(TypeError):
            config_from_dict({"graph_backend": "csr"})

    def test_config_validates_backend(self):
        with pytest.raises(TypeError):
            RouterConfig(graph_backend="flat")


def test_small_graphs_search_on_csr():
    """No size threshold: a cache on a four-node graph freezes it."""
    g = small_graph()
    cache = ShortestPathCache(g)
    dist, _ = cache.sssp("a")
    assert dist["c"] == 3.0
    assert g._frozen is not None and g._frozen.fresh(g)


def test_internal_code_does_not_warn():
    """Freezing, searching and thawing a grid emits no
    DeprecationWarning."""
    g = grid_graph(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        view = g.freeze()
        view.sssp((0, 0))
        view.thaw()


# ----------------------------------------------------------------------
# pickling (process-engine shipping)
# ----------------------------------------------------------------------
def test_flatgraph_pickle_round_trip():
    g = small_graph()
    flat = g.freeze().flat
    flat.rows()  # populate a lazy mirror; it must not travel
    clone = pickle.loads(pickle.dumps(flat))
    assert isinstance(clone, FlatGraph)
    assert clone.nodes == flat.nodes
    assert clone.num_edges == flat.num_edges
    assert_same_adjacency(g, clone.thaw())


def test_pickle_is_base_arrays_only():
    flat = grid_graph(6, 6).freeze().flat
    flat.rows()
    flat.index  # populate both lazies
    state = flat.__getstate__()
    blob_with_lazies = pickle.dumps(flat)
    fresh = FlatGraph.from_graph(grid_graph(6, 6))
    assert len(blob_with_lazies) == len(pickle.dumps(fresh))
    assert "rows" not in str(state)


# ----------------------------------------------------------------------
# freeze()/GraphView lifecycle
# ----------------------------------------------------------------------
def test_weights_coerce_to_float64():
    g = Graph()
    g.add_edge(1, 2, 2)  # int weight
    h = g.freeze().thaw()
    (nbr, w), = h.neighbor_items(1)
    assert nbr == 2 and w == 2.0 and isinstance(w, float)


def test_view_fresh_tracks_other_graphs():
    g = small_graph()
    view = g.freeze()
    other = small_graph()
    assert view.fresh(g)
    assert not view.fresh(other)  # same version, different object


# ----------------------------------------------------------------------
# worker materialization == live graph with the net's pins attached
# ----------------------------------------------------------------------
def _rrg_and_net():
    rrg = RoutingResourceGraph(xc4000(2, 2, 3))
    rrg.detach_all_pins()
    pins = sorted(rrg._pin_edges)[:3]
    return rrg, Net(pins[0], pins[1:], name="n0")


def test_materialize_flat_matches_dict_snapshot():
    from repro.engine.worker import NetTask, materialize_graph

    rrg, net = _rrg_and_net()
    task = NetTask(
        name="n0",
        net=net,
        algo="djka",
        config=RouterConfig(),
        flat=rrg.graph.freeze().flat,
        pin_taps={pn: rrg.pin_taps(pn) for pn in net.terminals},
    )
    rrg.attach_pins(net.terminals)
    assert_same_adjacency(rrg.graph, materialize_graph(task))


def test_materialize_requires_some_shipping():
    from repro.engine.worker import NetTask, materialize_graph

    _, net = _rrg_and_net()
    task = NetTask(name="n0", net=net, algo="djka", config=RouterConfig())
    with pytest.raises(GraphError):
        materialize_graph(task)


def test_pin_taps_rejects_non_pin():
    rrg, _ = _rrg_and_net()
    with pytest.raises(GraphError):
        rrg.pin_taps(("J", 0, 0, "E", 0))


# ----------------------------------------------------------------------
# package surface
# ----------------------------------------------------------------------
def test_public_exports():
    for name in ("GraphView", "FlatGraph", "SearchPolicy", "RouterConfig",
                 "Diagnostic"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
    assert repro.GraphView is GraphView
    assert repro.FlatGraph is FlatGraph


def test_cli_graph_backend_flag():
    from repro.cli import _build_parser

    parser = _build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["route", "busc", "--graph-backend", "flat"])

