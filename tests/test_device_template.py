"""The per-process device template behind ``RoutingResourceGraph``.

Each architecture's device is built once per process
(:class:`~repro.fpga.routing_graph.DeviceTemplate`); every
``RoutingResourceGraph(arch)`` copies the template's graph and shares
its read-only tables, and ``reset()`` thaws the template's pristine CSR
snapshot.  These tests pin what makes that sharing safe:

* the built graph equals the graph ``reset()`` used to replay from the
  base weights — node order, row order and weights — so a copy, a
  reset and the old replay are one and the same device;
* mutating one device leaves every other device of the architecture,
  and every later one, equal to an uncached build;
* the cache holds at most its bound, keys on the whole architecture
  value, and concurrent first constructions build once;
* no value a device hands out can change another device;
* the checker's verdicts do not depend on the router's device.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys
import threading
from dataclasses import replace

import pytest

from repro.engine import RoutingSession
from repro.fpga import CircuitSpec, synthesize_circuit, xc3000, xc4000
from repro.fpga import routing_graph
from repro.fpga.architecture import Architecture
from repro.fpga.routing_graph import (
    TEMPLATE_CACHE_SIZE,
    RoutingResourceGraph,
    _cached_template,
    pin_node,
)
from repro.graph.core import Graph
from repro.graph.flat import FlatGraph
from repro.router import RouterConfig
from repro.router.congestion import CongestionModel
from repro.validate import verify_result

#: (rows, cols, channel width) grid for the replay property
SHAPES = [(1, 1, 1), (2, 2, 1), (3, 4, 2), (5, 5, 3), (4, 5, 6), (6, 9, 4),
          (8, 8, 6)]
FAMILIES = {"xc3000": xc3000, "xc4000": xc4000}


def adjacency(graph):
    """The full adjacency image: node order, row order, weights."""
    return [(u, list(graph.neighbor_items(u))) for u in graph.nodes]


def edge_weights(graph):
    return {frozenset((u, v)): w for u, v, w in graph.edges()}


def uncached(arch):
    """A fresh instance filled by ``_build``, bypassing the cache."""
    built = RoutingResourceGraph.__new__(RoutingResourceGraph)
    built.arch = arch
    built._build()
    return built


def replay(built):
    """The graph the base weights rebuild, edge by edge, in order."""
    graph = Graph()
    for (u, v), w in built._base_weight.items():
        graph.add_edge(u, v, w)
    return graph


def churn(device):
    """Drive every mutating method of the device protocol once."""
    congestion = CongestionModel(device)
    device.detach_all_pins()
    net = [pin_node(0, 0, 0), pin_node(1, 1, 1)]
    device.attach_pins(net)
    group = ("H", 0, 0)
    u, v = device.group_tracks(group)[0]
    tree = Graph()
    tree.add_edge(u, v, device.base_weight(u, v))
    touched = device.commit(tree)
    assert congestion.reweight_groups(touched) > 0
    device.detach_pins(net)
    device.uncommit(tree)
    congestion.reweight_groups(device.groups())
    device.reset()
    # the reset graph is the thawed shared snapshot: mutate it too
    device.detach_all_pins()
    device.commit(tree)
    congestion.reweight_groups(touched)


class TestBuiltEqualsReplay:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("rows,cols,width", SHAPES)
    def test_built_graph_is_the_base_weight_replay(
        self, family, rows, cols, width
    ):
        built = uncached(FAMILIES[family](rows, cols, width))
        rebuilt = replay(built)
        assert adjacency(built.graph) == adjacency(rebuilt)
        assert built.graph.num_edges == rebuilt.num_edges

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("rows,cols,width", SHAPES[:4])
    def test_copy_and_reset_are_the_replay(self, family, rows, cols, width):
        arch = FAMILIES[family](rows, cols, width)
        rebuilt = replay(uncached(arch))
        device = RoutingResourceGraph(arch)
        assert adjacency(device.graph) == adjacency(rebuilt)
        device.reset()
        assert adjacency(device.graph) == adjacency(rebuilt)
        assert device.graph.freeze().flat.rows() == (
            FlatGraph.from_graph(rebuilt).rows()
        )


class TestIndependentDevices:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_mutating_one_device_leaves_the_others(self, family):
        arch = FAMILIES[family](3, 4, 3)
        reference = uncached(arch)
        first = RoutingResourceGraph(arch)
        second = RoutingResourceGraph(arch)
        churn(first)
        later = RoutingResourceGraph(arch)
        for device in (second, later):
            assert adjacency(device.graph) == adjacency(reference.graph)
            assert device._base_weight == reference._base_weight
            assert device._groups == reference._groups
            assert device._pin_edges == reference._pin_edges
            assert device._segments == reference._segments
        # a reset device thaws the shared snapshot, still pristine
        second.reset()
        assert adjacency(second.graph) == adjacency(reference.graph)

    def test_devices_own_their_graphs(self):
        arch = xc3000(2, 3, 2)
        a, b = RoutingResourceGraph(arch), RoutingResourceGraph(arch)
        assert a.graph is not b.graph
        a.reset()
        b.reset()
        assert a.graph is not b.graph

    def test_uncommit_restores_on_a_copied_device(self):
        device = RoutingResourceGraph(xc4000(3, 3, 2))
        device.detach_all_pins()
        before = edge_weights(device.graph)
        u, v = device.group_tracks(("V", 1, 1))[0]
        tree = Graph()
        tree.add_edge(u, v, 1.0)
        device.commit(tree)
        assert edge_weights(device.graph) != before
        device.uncommit(tree)
        assert edge_weights(device.graph) == before


class TestTemplateCache:
    def test_cache_is_bounded_and_eviction_rebuilds_correctly(self):
        _cached_template.cache_clear()
        archs = [
            xc4000(2, 2, width) for width in range(1, TEMPLATE_CACHE_SIZE + 4)
        ]
        for arch in archs:
            RoutingResourceGraph(arch)
        info = _cached_template.cache_info()
        assert info.maxsize == TEMPLATE_CACHE_SIZE
        assert info.currsize <= TEMPLATE_CACHE_SIZE
        misses = info.misses
        evicted = RoutingResourceGraph(archs[0])
        assert _cached_template.cache_info().misses == misses + 1
        assert adjacency(evicted.graph) == adjacency(uncached(archs[0]).graph)

    def test_repeat_construction_builds_once(self):
        arch = xc3000(3, 2, 5)
        RoutingResourceGraph(arch)
        misses = _cached_template.cache_info().misses
        for _ in range(3):
            RoutingResourceGraph(arch)
        assert _cached_template.cache_info().misses == misses

    @pytest.mark.parametrize(
        "change",
        [
            {"fs": 6},
            {"fc": 1},
            {"pins_per_block": 4},
            {"segment_weight": 2.0},
            {"switch_weight": 0.3},
            {"pin_weight": 0.25},
        ],
    )
    def test_key_is_the_whole_architecture(self, change):
        base = Architecture(rows=2, cols=3, channel_width=3)
        other = replace(base, **change)
        a, b = RoutingResourceGraph(base), RoutingResourceGraph(other)
        assert adjacency(b.graph) == adjacency(uncached(other).graph)
        assert adjacency(a.graph) != adjacency(b.graph)

    def test_name_only_difference_keeps_the_callers_arch(self):
        base = Architecture(rows=2, cols=2, channel_width=2)
        named = replace(base, name="renamed")
        device = RoutingResourceGraph(named)
        assert device.arch is named
        assert adjacency(device.graph) == adjacency(
            RoutingResourceGraph(base).graph
        )

    def test_integer_weights_are_not_served_float_templates(self):
        floats = Architecture(rows=2, cols=2, channel_width=1)
        ints = replace(floats, segment_weight=1)
        assert floats == ints
        RoutingResourceGraph(floats)
        device = RoutingResourceGraph(ints)
        weights = {
            type(w) for (u, v), w in device._base_weight.items()
            if device.segment_info(u, v) is not None
        }
        assert weights == {int}

    def test_concurrent_first_constructions(self):
        arch = xc3000(3, 3, 4)
        _cached_template.cache_clear()
        barrier = threading.Barrier(8, timeout=30)
        devices = [None] * 8

        def construct(i):
            barrier.wait()
            devices[i] = RoutingResourceGraph(arch)

        threads = [
            threading.Thread(target=construct, args=(i,)) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert _cached_template.cache_info().misses == 1
        reference = adjacency(uncached(arch).graph)
        assert len({id(d.graph) for d in devices}) == 8
        for d in devices:
            assert adjacency(d.graph) == reference
        churn(devices[0])
        for d in devices[1:]:
            assert adjacency(d.graph) == reference

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_child_forked_mid_build_can_construct(self):
        # a fork while another thread holds the template lock (building
        # a template) must not leave the child's lock held
        ctx = multiprocessing.get_context("fork")
        with routing_graph._template_lock:
            child = ctx.Process(target=RoutingResourceGraph,
                                args=(xc4000(2, 2, 2),))
            child.start()
            child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestNoSharedMutableValues:
    def test_pin_taps_and_group_tracks_are_immutable(self):
        arch = xc3000(2, 2, 3)
        device, other = RoutingResourceGraph(arch), RoutingResourceGraph(arch)
        pin = pin_node(0, 0, 0)
        taps = device.pin_taps(pin)
        tracks = device.group_tracks(("H", 0, 0))
        before = (other.pin_taps(pin), other.group_tracks(("H", 0, 0)))
        for value in (taps, tracks):
            assert isinstance(value, tuple)
            assert all(isinstance(item, tuple) for item in value)
            with pytest.raises(AttributeError):
                value.append(value[0])
        info = device.segment_info(*tracks[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            info.track = 99
        assert (other.pin_taps(pin), other.group_tracks(("H", 0, 0))) == (
            before
        )
        assert other.segment_info(*tracks[0]).track == 0

    def test_every_shared_table_holds_tuples(self):
        device = RoutingResourceGraph(xc4000(2, 3, 2))
        assert all(
            isinstance(taps, tuple) for taps in device._pin_edges.values()
        )
        assert all(isinstance(keys, tuple) for keys in device._groups.values())


SPEC = CircuitSpec(
    name="template-tiny",
    family="xc3000",
    cols=4,
    rows=4,
    nets_2_3=8,
    nets_4_10=3,
    nets_over_10=1,
    published={},
)


class TestCheckerIgnoresTheRoutersDevice:
    def test_router_device_tampering_changes_no_verdict(self, monkeypatch):
        circuit = synthesize_circuit(SPEC, seed=3)
        arch = xc3000(circuit.rows, circuit.cols, 6)
        routed_on = []
        init = RoutingResourceGraph.__init__

        def recording_init(self, arch):
            init(self, arch)
            routed_on.append(self)

        monkeypatch.setattr(RoutingResourceGraph, "__init__", recording_init)
        session = RoutingSession(arch, RouterConfig(algorithm="pfa"))
        result = session.route(circuit)
        monkeypatch.undo()
        router_device = routed_on[0]

        r0 = result.routes[0]
        tampered = replace(
            result,
            routes=[replace(r0, wirelength=r0.wirelength + 5.0)]
            + result.routes[1:],
        )

        def verdicts():
            good = verify_result(result, circuit, router_device)
            bad = verify_result(tampered, circuit, router_device)
            return (good.ok, good.codes(), bad.ok, bad.codes())

        before = verdicts()
        assert before[0] and not before[2]
        assert "WIRELENGTH_MISMATCH" in before[3]

        # consume a junction the route left free and reweight a
        # surviving span, on the device the router routed on
        graph = router_device.graph
        spare = next(
            n for n in graph.nodes if isinstance(n, tuple) and n[0] == "J"
        )
        graph.remove_node(spare)
        group = next(
            g for g in router_device.groups()
            if any(
                graph.has_edge(u, v) for u, v in router_device.group_tracks(g)
            )
        )
        for u, v in router_device.group_tracks(group):
            if graph.has_edge(u, v):
                graph.set_weight(u, v, 50.0)
        assert verdicts() == before
