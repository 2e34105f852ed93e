"""Tests for the self-verification stack (:mod:`repro.validate`).

Covers the three layers of the issue:

* input lint — structured diagnostics with stable codes, strict mode;
* the independent result checker — certifies genuine results for all
  four arborescence algorithms and both Steiner families, and catches
  deliberately corrupted results (tampered bookkeeping, foreign edges,
  shared resources, over-capacity channels, non-shortest arborescence
  paths);
* the engine integration — ``RouterConfig.verify`` modes, the
  quarantine-and-repair loop, and the trace observability.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.engine import RoutingSession
from repro.errors import (
    RoutingError,
    UnroutableError,
    ValidationError,
    VerificationError,
)
from repro.fpga import CircuitSpec, synthesize_circuit, xc3000
from repro.fpga.netlist import PlacedCircuit, PlacedNet
from repro.fpga.routing_graph import RoutingResourceGraph, pin_node
from repro.graph import shortest_path
from repro.graph.core import edge_key
from repro.router import RouterConfig
from repro.router.result import NetRoute, RoutingResult
from repro.validate import (
    CODES,
    Diagnostic,
    ValidationReport,
    merge_reports,
    validate_architecture,
    validate_circuit,
    verify_result,
)
from repro.validate.lint import pin_span

WIDTH = 6

SPEC = CircuitSpec(
    name="val-tiny",
    family="xc3000",
    cols=4,
    rows=4,
    nets_2_3=8,
    nets_4_10=3,
    nets_over_10=1,
    published={},
)


@pytest.fixture(scope="module")
def circuit():
    return synthesize_circuit(SPEC, seed=3)


@pytest.fixture(scope="module")
def arch(circuit):
    return xc3000(circuit.rows, circuit.cols, WIDTH)


def route_with(circuit, arch, **cfg):
    session = RoutingSession(arch, RouterConfig(**cfg))
    return session.route(circuit)


# ----------------------------------------------------------------------
# diagnostics plumbing
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="NOT_A_CODE", severity="error", message="x")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="NET_NO_SINKS", severity="fatal", message="x")

    def test_report_accessors(self):
        report = ValidationReport(subject="thing")
        assert report.ok and report.render() == "thing: ok"
        report.add("NET_NO_SINKS", "no sinks", location="n1")
        report.add("CHANNEL_CAPACITY_TIGHT", "tight", severity="warning")
        assert not report.ok
        assert report.has("NET_NO_SINKS")
        assert report.codes() == [
            "NET_NO_SINKS", "CHANNEL_CAPACITY_TIGHT"
        ]
        assert len(report.errors) == 1 and len(report.warnings) == 1
        assert "NET_NO_SINKS [n1]" in report.render()
        doc = report.to_dict()
        assert doc["ok"] is False and len(doc["diagnostics"]) == 2

    def test_raise_if_errors_strict_promotes_warnings(self):
        report = ValidationReport(subject="thing")
        report.add("CHANNEL_CAPACITY_TIGHT", "tight", severity="warning")
        report.raise_if_errors()  # lenient: warnings pass
        with pytest.raises(ValidationError) as exc:
            report.raise_if_errors(strict=True)
        assert exc.value.report is report

    def test_merge_reports(self):
        a = ValidationReport(subject="a")
        a.add("NET_NO_SINKS", "x")
        b = ValidationReport(subject="b")
        b.add("NET_DUP_NAME", "y")
        merged = merge_reports("both", [a, b])
        assert merged.codes() == ["NET_NO_SINKS", "NET_DUP_NAME"]


# ----------------------------------------------------------------------
# input lint
# ----------------------------------------------------------------------
class TestCircuitLint:
    def test_clean_circuit_ok(self, circuit, arch):
        report = validate_circuit(circuit, arch)
        assert report.ok and not report.errors

    def test_duplicate_net_name(self):
        nets = [
            PlacedNet(name="n", source=(0, 0, 0), sinks=((1, 1, 1),)),
            PlacedNet(name="n", source=(2, 2, 2), sinks=((1, 2, 3),)),
        ]
        c = PlacedCircuit(name="dup", rows=3, cols=3, nets=nets)
        assert validate_circuit(c).has("NET_DUP_NAME")

    def test_placement_out_of_range(self):
        nets = [
            PlacedNet(name="n", source=(0, 0, 0), sinks=((9, 9, 1),)),
        ]
        c = PlacedCircuit(name="oob", rows=3, cols=3, nets=nets)
        report = validate_circuit(c)
        assert report.has("PLACEMENT_OUT_OF_RANGE") and not report.ok

    def test_pin_reused_across_nets(self):
        nets = [
            PlacedNet(name="a", source=(0, 0, 0), sinks=((1, 1, 1),)),
            PlacedNet(name="b", source=(2, 2, 2), sinks=((1, 1, 1),)),
        ]
        c = PlacedCircuit(name="reuse", rows=3, cols=3, nets=nets)
        assert validate_circuit(c).has("PIN_REUSED")

    def test_degenerate_nets_reported_not_raised(self):
        # PlacedNet's own constructor rejects these shapes, so the lint
        # paths are exercised with structural stand-ins: the lint layer
        # must diagnose, not crash, whatever it is handed
        no_sinks = SimpleNamespace(
            name="empty", source=(0, 0, 0), sinks=(),
            pins=((0, 0, 0),),
        )
        dup_terminal = SimpleNamespace(
            name="twice", source=(1, 1, 1), sinks=((1, 1, 1),),
            pins=((1, 1, 1), (1, 1, 1)),
        )
        c = PlacedCircuit(name="weird", rows=3, cols=3, nets=[])
        c.nets = [no_sinks, dup_terminal]
        report = validate_circuit(c)
        assert report.has("NET_NO_SINKS")
        assert report.has("NET_DUP_TERMINAL")

    def test_pin_slot_out_of_range_needs_arch(self, arch):
        nets = [
            PlacedNet(name="n", source=(0, 0, 99), sinks=((1, 1, 1),)),
        ]
        c = PlacedCircuit(name="slot", rows=3, cols=3, nets=nets)
        assert not validate_circuit(c).has("PIN_SLOT_OUT_OF_RANGE")
        assert validate_circuit(c, arch).has("PIN_SLOT_OUT_OF_RANGE")

    def test_array_mismatch(self, arch):
        nets = [
            PlacedNet(name="n", source=(0, 0, 0), sinks=((1, 1, 1),)),
        ]
        c = PlacedCircuit(name="big", rows=40, cols=40, nets=nets)
        assert validate_circuit(c, arch).has("ARRAY_MISMATCH")

    def test_channel_capacity_lower_bound(self):
        # W=2 and three distinct nets tapping one span: the span-demand
        # lower bound must flag it, but only as a *warning* so the
        # minimum-width sweep can still probe infeasible widths
        arch = xc3000(4, 4, 2)
        by_span = {}
        for p in range(arch.pins_per_block):
            for bx, by in ((1, 1), (1, 2), (2, 1), (2, 2)):
                by_span.setdefault(pin_span(arch, bx, by, p), []).append(
                    (bx, by, p)
                )
        span, pins = next(
            (s, refs) for s, refs in by_span.items() if len(refs) >= 3
        )
        far = [(0, 0, 0), (3, 3, 0), (0, 3, 0)]
        nets = [
            PlacedNet(name=f"n{i}", source=far[i], sinks=(pins[i],))
            for i in range(3)
        ]
        c = PlacedCircuit(name="crowded", rows=4, cols=4, nets=nets)
        report = validate_circuit(c, arch)
        assert report.has("CHANNEL_CAPACITY_EXCEEDED")
        assert report.ok  # warnings only — never blocks the sweep

    def test_session_rejects_invalid_circuit(self, arch):
        nets = [
            PlacedNet(name="a", source=(0, 0, 0), sinks=((1, 1, 1),)),
            PlacedNet(name="a", source=(2, 2, 2), sinks=((1, 2, 3),)),
        ]
        c = PlacedCircuit(name="dup", rows=3, cols=3, nets=nets)
        with pytest.raises(ValidationError):
            RoutingSession(arch, RouterConfig()).route(c)


class TestArchitectureLint:
    def test_standard_arch_has_no_errors(self, arch):
        report = validate_architecture(arch)
        assert report.ok
        # Fc < W on this part: informational, not a defect
        assert report.has("ARCH_FC_BELOW_FULL")

    def test_all_emitted_codes_registered(self, circuit, arch):
        for d in (
            validate_circuit(circuit, arch).diagnostics
            + validate_architecture(arch).diagnostics
        ):
            assert d.code in CODES


# ----------------------------------------------------------------------
# independent result checker
# ----------------------------------------------------------------------
class TestCheckerCertifies:
    @pytest.mark.parametrize("algo", ["ikmb", "izel", "pfa", "idom"])
    def test_genuine_results_certify(self, circuit, arch, algo):
        result = route_with(circuit, arch, algorithm=algo)
        report = verify_result(result, circuit, arch)
        assert report.ok, report.render()
        assert not report.warnings, report.render()


class TestCheckerCatches:
    @pytest.fixture(scope="class")
    def result(self, circuit, arch):
        return route_with(circuit, arch, algorithm="ikmb")

    def test_tampered_wirelength(self, result, circuit, arch):
        bad = replace(
            result,
            routes=[replace(result.routes[0],
                            wirelength=result.routes[0].wirelength + 5.0)]
            + result.routes[1:],
        )
        report = verify_result(bad, circuit, arch)
        assert report.has("WIRELENGTH_MISMATCH") and not report.ok

    def test_mutated_edge(self, result, circuit, arch):
        r0 = result.routes[0]
        u, v, w = r0.edges[0]
        bogus = (("J", 99, 99, "E", 0), ("J", 100, 99, "W", 0), w)
        bad = replace(
            result, routes=[replace(r0, edges=[bogus] + r0.edges[1:])]
            + result.routes[1:],
        )
        report = verify_result(bad, circuit, arch)
        assert report.has("TREE_EDGE_NOT_IN_DEVICE")

    def test_shared_resource(self, result, circuit, arch):
        # graft net 0's edges onto net 1: every node of net 0 is now
        # claimed twice
        r0, r1 = result.routes[0], result.routes[1]
        bad = replace(
            result,
            routes=[r0, replace(r1, edges=r1.edges + r0.edges)]
            + result.routes[2:],
        )
        report = verify_result(bad, circuit, arch)
        assert report.has("RESOURCE_SHARED")

    def test_overcapacity_channel(self, result, circuit, arch):
        # invent W+1 parallel track edges on one span inside one route:
        # structurally real device edges cannot all coexist
        span_x, span_y = 1, 1
        extra = [
            (("J", span_x, span_y, "E", t),
             ("J", span_x + 1, span_y, "W", t),
             arch.segment_weight)
            for t in range(arch.channel_width + 1)
        ]
        r0 = result.routes[0]
        bad = replace(
            result, routes=[replace(r0, edges=r0.edges + extra)]
            + result.routes[1:],
        )
        report = verify_result(bad, circuit, arch)
        assert report.has("CHANNEL_OVERCAPACITY")

    def test_missing_and_unknown_nets(self, result, circuit, arch):
        bad = replace(
            result,
            routes=[replace(result.routes[0], name="ghost")]
            + result.routes[1:],
        )
        report = verify_result(bad, circuit, arch)
        assert report.has("RESULT_NET_UNKNOWN")
        assert report.has("RESULT_NET_MISSING")

    def test_duplicate_route(self, result, circuit, arch):
        bad = replace(result, routes=result.routes + [result.routes[0]])
        report = verify_result(bad, circuit, arch)
        assert report.has("RESULT_NET_DUPLICATE")

    def test_static_level_skips_replay(self, result, circuit, arch):
        report = verify_result(result, circuit, arch, level="static")
        assert report.ok
        with pytest.raises(ValueError):
            verify_result(result, circuit, arch, level="bogus")


class TestArborescenceGuarantee:
    def test_detour_path_caught(self):
        """A valid, consistent route that is not shortest must fail.

        The corrupted route is built so every *static* check passes —
        real device edges, correct wirelength and pathlength
        bookkeeping — leaving the commit-order replay as the only
        layer able to catch it.
        """
        net = PlacedNet(name="n0", source=(0, 0, 0), sinks=((2, 2, 1),))
        circuit = PlacedCircuit(name="detour", rows=3, cols=3, nets=[net])
        arch = xc3000(3, 3, WIDTH)
        result = route_with(circuit, arch, algorithm="pfa")
        assert verify_result(result, circuit, arch).ok

        # rebuild the exact graph the net was routed on, then find a
        # strictly longer alternative path by knocking out one edge of
        # the canonical shortest path at a time
        device = RoutingResourceGraph(arch)
        device.detach_all_pins()
        gnet = net.to_graph_net()
        device.attach_pins(gnet.terminals)
        g = device.graph
        source, sink = gnet.source, gnet.sinks[0]
        best_path, best = shortest_path(g, source, sink)
        # the channel lattice has many equal-cost shortest paths;
        # deleting each one found forces the search onto strictly
        # longer routes within a few iterations (every candidate uses
        # only original edges, so it is a real path of the full graph)
        removed = []
        detour = None
        cand_path, cand = best_path, best
        for _ in range(500):
            if cand > best + 1e-9:
                detour = cand_path
                break
            for u, v in zip(cand_path, cand_path[1:]):
                removed.append((u, v, g.weight(u, v)))
                g.remove_edge(u, v)
            cand_path, cand = shortest_path(g, source, sink)
        for u, v, w in removed:
            g.add_edge(u, v, w)
        assert detour is not None, "no strictly longer detour found"

        pristine = RoutingResourceGraph(arch)
        edges = [
            (u, v, pristine.base_weight(u, v))
            for u, v in zip(detour, detour[1:])
        ]
        length = sum(w for _, _, w in edges)
        bad_route = NetRoute(
            name="n0",
            algorithm="pfa",
            source=source,
            sinks=(sink,),
            edges=edges,
            wirelength=length,
            pathlengths={sink: length},
            optimal_pathlengths={sink: length},
        )
        bad = replace(result, routes=[bad_route])

        static = verify_result(bad, circuit, arch, level="static")
        assert static.ok, static.render()  # bookkeeping is consistent
        full = verify_result(bad, circuit, arch, level="full")
        assert {d.code for d in full.errors} == {
            "ARBORESCENCE_NOT_SHORTEST"
        }, full.render()


# ----------------------------------------------------------------------
# uncommit (the repair primitive)
# ----------------------------------------------------------------------
class TestUncommit:
    def test_commit_roundtrip(self, circuit, arch):
        result = route_with(circuit, arch, algorithm="ikmb")
        device = RoutingResourceGraph(arch)
        device.detach_all_pins()
        net = {n.name: n for n in circuit.nets}[result.routes[0].name]
        terminals = net.to_graph_net().terminals
        device.attach_pins(terminals)
        before = {
            edge_key(u, v): w for u, v, w in device.graph.edges()
        }
        route = result.routes[0]
        device.commit(route.tree())
        device.uncommit(route.tree())
        device.attach_pins(terminals)
        after = {
            edge_key(u, v): w for u, v, w in device.graph.edges()
        }
        assert before == after


# ----------------------------------------------------------------------
# engine integration: verify modes, repair, quarantine, trace
# ----------------------------------------------------------------------
def _trace_doc(session):
    buf = io.StringIO()
    session.write_trace(buf)
    return json.loads(buf.getvalue())


class TestVerifyModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(RoutingError):
            RouterConfig(verify="paranoid")

    @pytest.mark.parametrize("mode", ["final", "pass"])
    def test_modes_bit_identical_to_off(self, circuit, arch, mode):
        from repro.io import result_to_dict

        base = route_with(circuit, arch, algorithm="ikmb", verify="off")
        checked = route_with(circuit, arch, algorithm="ikmb", verify=mode)
        assert result_to_dict(base) == result_to_dict(checked)

    def test_pass_mode_records_verify_block(self, circuit, arch):
        session = RoutingSession(
            arch, RouterConfig(algorithm="ikmb", verify="pass")
        )
        session.route(circuit)
        doc = _trace_doc(session)
        assert doc["schema"] == "repro.engine/trace-v4"
        assert doc["config"]["verify"] == "pass"
        block = doc["passes"][-1]["verify"]
        assert block["checked"] == len(circuit.nets)
        assert block["violations"] == 0
        assert doc["totals"]["verify"]["checked"] >= len(circuit.nets)

    def test_off_mode_has_no_verify_block(self, circuit, arch):
        session = RoutingSession(arch, RouterConfig(algorithm="ikmb"))
        session.route(circuit)
        doc = _trace_doc(session)
        assert "verify" not in doc["passes"][-1]
        assert "verify" not in doc["totals"]


class TestQuarantineAndRepair:
    def _tampering_router(self, monkeypatch, should_tamper):
        """Patch the router to corrupt selected nets' bookkeeping."""
        from repro.router.router import FPGARouter

        original = FPGARouter._route_one

        def tampered(self, rrg, placed, congestion, critical, cache):
            route = original(self, rrg, placed, congestion, critical, cache)
            if route is not None and should_tamper(placed.name):
                return replace(route, wirelength=route.wirelength + 5.0)
            return route

        monkeypatch.setattr(FPGARouter, "_route_one", tampered)

    def test_injected_violation_repaired(self, circuit, arch,
                                         monkeypatch):
        target = circuit.nets[0].name
        tampered_once = []

        def should_tamper(name):
            if name == target and not tampered_once:
                tampered_once.append(name)
                return True
            return False

        self._tampering_router(monkeypatch, should_tamper)
        session = RoutingSession(
            arch, RouterConfig(algorithm="ikmb", verify="pass")
        )
        result = session.route(circuit)
        assert not result.failed_nets
        doc = _trace_doc(session)
        kinds = [e["type"] for e in doc["events"]]
        assert "verify_violation" in kinds
        assert "repair" in kinds
        violation = next(
            e for e in doc["events"] if e["type"] == "verify_violation"
        )
        assert violation["net"] == target
        assert "WIRELENGTH_MISMATCH" in violation["codes"]
        repair = next(e for e in doc["events"] if e["type"] == "repair")
        assert repair["outcome"] == "repaired"
        totals = doc["totals"]["verify"]
        assert totals["violations"] == 1
        assert totals["repaired"] == 1
        assert totals["quarantined"] == 0
        # the repaired result still certifies
        assert verify_result(result, circuit, arch).ok

    def test_unrepairable_net_quarantined(self, circuit, arch,
                                          monkeypatch):
        target = circuit.nets[0].name
        self._tampering_router(monkeypatch, lambda name: name == target)
        session = RoutingSession(
            arch, RouterConfig(algorithm="ikmb", verify="pass",
                               max_passes=2)
        )
        with pytest.raises(UnroutableError) as exc:
            session.route(circuit)
        assert target in exc.value.failed_nets
        doc = _trace_doc(session)
        quarantines = [
            e for e in doc["events"]
            if e["type"] == "repair" and e["outcome"] == "quarantined"
        ]
        assert quarantines
        assert doc["totals"]["verify"]["quarantined"] >= 1

    def test_final_mode_raises_on_violation(self, circuit, arch,
                                            monkeypatch):
        # verify="final" has no repair loop: the corrupted result must
        # surface as a VerificationError carrying the report
        target = circuit.nets[0].name
        self._tampering_router(monkeypatch, lambda name: name == target)
        session = RoutingSession(
            arch, RouterConfig(algorithm="ikmb", verify="final")
        )
        with pytest.raises(VerificationError) as exc:
            session.route(circuit)
        assert exc.value.report.has("WIRELENGTH_MISMATCH")
        doc = _trace_doc(session)
        assert doc["outcome"] == "verify_failed"
