"""The PathFinder graph mechanism: one device snapshot, per-net overlays.

Negotiation freezes the pin-free device once per route and searches
each net on a copy-on-write overlay that attaches just that net's pins
(``RoutingResourceGraph.device_snapshot`` / ``FlatGraph.overlay``).
This suite pins the two facts that make that exact and cheap:

* **overlay = attach + freeze** — for every net of both tiny fixtures,
  and for random pin sets with repeats, the overlay's rows (as node
  objects, in row order) equal those of ``attach_pins`` + ``freeze()``
  on the pin-free graph, so searches break ties identically;
* **counts** — one serial negotiated route makes exactly one real
  freeze and no ``attach_pins`` call, however many nets and
  iterations it reroutes, and rebuilds the whole factor table at most
  once per iteration.  Counts repeat exactly, so they gate here;
  seconds never do.

It also checks the per-pass congestion histogram, which negotiation
derives from the routed trees (it never consumes the graph).
"""

from __future__ import annotations

import random

import pytest

from repro.engine import RoutingSession
from repro.fpga import xc3000, xc4000
from repro.fpga.routing_graph import RoutingResourceGraph
from repro.graph.core import Graph
from repro.router import RouterConfig
from repro.router.negotiation import NegotiationState

#: fixture -> (family, congested width, nets whose own pins share a tap)
FIXTURES = {
    "tiny_xc3000": (xc3000, 3, 3),
    "tiny_xc4000": (xc4000, 4, 4),
}


def object_rows(flat, nodes):
    """``node -> [(neighbor, weight), ...]`` in row order, for ``nodes``."""
    index = flat.index
    rows = flat.rows()
    return {
        n: [(flat.nodes[j], w) for j, w in rows[index[n]]] for n in nodes
    }


def attach_freeze_rows(arch, pins):
    """Reference rows: attach ``pins`` to the pin-free graph, freeze."""
    rrg = RoutingResourceGraph(arch)
    rrg.detach_all_pins()
    rrg.attach_pins(pins)
    graph = rrg.graph
    return object_rows(graph.freeze().flat, list(graph.nodes))


def shares_a_tap(rrg, pins):
    owner = {}
    for pin in dict.fromkeys(pins):
        for end, _ in rrg.pin_taps(pin):
            if owner.setdefault(end, pin) != pin:
                return True
    return False


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_overlay_rows_equal_attach_and_freeze(request, fixture):
    family, width, shared = FIXTURES[fixture]
    _, circuit = request.getfixturevalue(fixture)
    arch = family(circuit.rows, circuit.cols, width)
    rrg = RoutingResourceGraph(arch)
    device = rrg.device_snapshot()
    nets = [placed.to_graph_net() for placed in circuit.nets]
    # the fixtures exercise the order-sensitive case: a net whose own
    # pins share a tap junction, so that junction's row gets several
    assert sum(shares_a_tap(rrg, n.terminals) for n in nets) == shared

    pins = [n for n in device.nodes if n[0] == "P"]
    rng = random.Random(fixture)
    pin_sets = [list(n.terminals) for n in nets] + [
        [rng.choice(pins) for _ in range(rng.randrange(1, 8))]
        for _ in range(20)
    ]
    pin_sets.append(pin_sets[0] + pin_sets[0][::-1])  # every pin twice
    for pin_set in pin_sets:
        want = attach_freeze_rows(arch, pin_set)
        overlay = device.overlay(pin_set)
        assert object_rows(overlay, list(want)) == want
    # the device itself is never patched: no junction row lists a pin
    for i, row in enumerate(device.rows()):
        if device.nodes[i][0] == "J":
            assert all(device.nodes[j][0] == "J" for j, _ in row)


def count_mechanism(monkeypatch, arch, circuit, **cfg_kwargs):
    """Route once; count real freezes, pin attaches, table builds."""
    counts = {"freeze": 0, "attach_pins": 0, "table_builds": 0}
    freeze = Graph.freeze
    attach = RoutingResourceGraph.attach_pins
    build = NegotiationState._build_table

    def counting_freeze(graph):
        view = graph._frozen
        if view is None or view.version != graph.version:
            counts["freeze"] += 1
        return freeze(graph)

    def counting_attach(rrg, *args, **kwargs):
        counts["attach_pins"] += 1
        return attach(rrg, *args, **kwargs)

    def counting_build(state, flat):
        counts["table_builds"] += 1
        return build(state, flat)

    monkeypatch.setattr(Graph, "freeze", counting_freeze)
    monkeypatch.setattr(RoutingResourceGraph, "attach_pins", counting_attach)
    monkeypatch.setattr(NegotiationState, "_build_table", counting_build)
    cfg = RouterConfig(mode="negotiate", **cfg_kwargs)
    with RoutingSession(arch, cfg) as session:
        result = session.route(circuit)
    passes = session.trace.pass_dicts()
    counts["iterations"] = len(passes)
    counts["reroutes"] = sum(p["nets_routed"] for p in passes)
    monkeypatch.undo()
    return counts, result


@pytest.mark.parametrize("timing", [False, True])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_one_freeze_no_attach_table_built_per_iteration(
    request, monkeypatch, fixture, timing
):
    family, width, _ = FIXTURES[fixture]
    _, circuit = request.getfixturevalue(fixture)
    arch = family(circuit.rows, circuit.cols, width)
    counts, result = count_mechanism(
        monkeypatch, arch, circuit, timing=timing
    )
    assert result.complete
    assert counts["iterations"] > 1
    assert counts["reroutes"] > len(circuit.nets)
    assert counts["freeze"] == 1
    assert counts["attach_pins"] == 0
    assert 1 <= counts["table_builds"] <= counts["iterations"]
    again, _ = count_mechanism(monkeypatch, arch, circuit, timing=timing)
    assert again == counts


def test_congested_first_pass_reports_utilization(tiny_xc3000):
    _, circuit = tiny_xc3000
    arch = xc3000(circuit.rows, circuit.cols, 3)
    with RoutingSession(arch, RouterConfig(mode="negotiate")) as session:
        session.route(circuit)
    first = session.trace.pass_dicts()[0]
    assert first["negotiation"]["overuse"] > 0
    hist = first["congestion"]
    assert hist["max"] > 0
    assert sum(hist["counts"]) == hist["spans"]
    assert first["graph_mutations"] == 0
