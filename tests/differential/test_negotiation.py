"""Differential certification of PathFinder negotiated routing.

Negotiation has no bit-identity oracle: unlike the arborescence modes
there is no independent definition of "the" correct result to replay
against, so this suite certifies every converged result through the
independent checker (``verify_result(level="full")``) plus the
PathFinder-specific invariant the checker's occupancy layer encodes —
**zero overuse**: no junction is claimed by two nets.  On top of that
it pins the things that *are* deterministic:

* the serial schedule is a pure function of (circuit, arch, config) —
  identical across repeats and bit-identical under checkpoint/resume
  interrupted mid-negotiation;
* golden JSON fixtures freeze iteration counts, converged channel
  width, wirelength and critical-path delay for seeded XC3000/XC4000
  circuits (regenerate deliberately with ``--update-goldens``).

The matrix's ``graph_backend`` axis is a removed config field: requests
stored before its removal carry ``"dict"`` or ``"flat"``, and each cell
loads its config through the service's request loader with that key.
Its ``search`` axis spans the two live values and the two retired ones
(``"auto"``, ``"bidir"``) that stored requests still carry, loaded the
same way.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import max_sink_delay
from repro.engine import RoutingSession
from repro.engine.checkpoint import load_checkpoint
from repro.fpga import xc3000, xc4000
from repro.router import RouterConfig, minimum_channel_width
from repro.service import config_from_dict, config_to_dict
from repro.validate import verify_result

from .conftest import result_signature

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: congested enough that negotiation genuinely iterates; the xc4000
#: fixture gets one extra track — its Fs=3 switchboxes make W=3
#: borderline-infeasible and the point here is certification coverage,
#: not routing pressure
NEGO_XC3000_WIDTH = 3
NEGO_XC4000_WIDTH = 4

ENGINES = ("serial", "thread", "process")
#: values of the removed ``graph_backend`` field in stored requests
LEGACY_GRAPH_BACKENDS = ("dict", "flat")
#: ``search`` values of stored requests: the live ones and the retired
#: "bidir" and "auto"
SEARCH_BACKENDS = ("dijkstra", "astar", "bidir", "auto")


def nego_config(graph_backend=None, search=None, **kwargs):
    """A negotiation config; with ``graph_backend`` or ``search``,
    loaded the way a stored request carrying those keys is."""
    kwargs.setdefault("mode", "negotiate")
    config = RouterConfig(**kwargs)
    if graph_backend is None and search is None:
        return config
    doc = config_to_dict(config)
    if graph_backend is not None:
        doc["graph_backend"] = graph_backend
    if search is not None:
        doc["search"] = search
    return config_from_dict(doc)


def route_negotiated(arch, circuit, *, engine="serial", max_workers=None,
                     **cfg_kwargs):
    cfg = nego_config(**cfg_kwargs)
    with RoutingSession(arch, cfg, engine=engine,
                        max_workers=max_workers) as session:
        return session.route(circuit), cfg


def junction_usage(result):
    """junction node -> set of nets whose tree touches it."""
    usage = {}
    for route in result.routes:
        nodes = {route.source}
        for u, v, _ in route.edges:
            nodes.add(u)
            nodes.add(v)
        for n in nodes:
            if isinstance(n, tuple) and len(n) == 5 and n[0] == "J":
                usage.setdefault(n, set()).add(route.name)
    return usage


def assert_certified(result, circuit, arch, cfg):
    """The two negotiation acceptance gates: checker + zero overuse."""
    report = verify_result(result, circuit, arch, cfg, level="full")
    assert report.ok, [d.render() for d in report.errors]
    overused = {
        n: sorted(nets)
        for n, nets in junction_usage(result).items()
        if len(nets) > 1
    }
    assert not overused, f"overused junctions at convergence: {overused}"
    assert result.complete
    assert result.algorithm == "negotiate"
    for route in result.routes:
        assert route.algorithm == "negotiate"


# ----------------------------------------------------------------------
# the execution matrix: every engine x legacy request key x search key
# ----------------------------------------------------------------------
class TestNegotiationMatrix:
    @pytest.mark.parametrize("search", SEARCH_BACKENDS)
    @pytest.mark.parametrize("graph_backend", LEGACY_GRAPH_BACKENDS)
    def test_serial_xc3000(self, tiny_xc3000, graph_backend, search):
        _, circuit = tiny_xc3000
        arch = xc3000(circuit.rows, circuit.cols, NEGO_XC3000_WIDTH)
        result, cfg = route_negotiated(
            arch, circuit, graph_backend=graph_backend, search=search
        )
        assert_certified(result, circuit, arch, cfg)

    @pytest.mark.parametrize("search", SEARCH_BACKENDS)
    @pytest.mark.parametrize("graph_backend", LEGACY_GRAPH_BACKENDS)
    def test_serial_xc4000(self, tiny_xc4000, graph_backend, search):
        _, circuit = tiny_xc4000
        arch = xc4000(circuit.rows, circuit.cols, NEGO_XC4000_WIDTH)
        result, cfg = route_negotiated(
            arch, circuit, graph_backend=graph_backend, search=search
        )
        assert_certified(result, circuit, arch, cfg)

    @pytest.mark.parametrize("search", SEARCH_BACKENDS)
    @pytest.mark.parametrize("graph_backend", LEGACY_GRAPH_BACKENDS)
    @pytest.mark.parametrize("engine", ("thread", "process"))
    def test_parallel_engines(self, mini_xc3000, engine, graph_backend,
                              search):
        """Chunked parallel negotiation converges to certified routings.

        Parallel chunks reroute against frozen cost snapshots, so the
        result may differ from serial — validity, not bit-identity, is
        the parallel contract (the mini fixture keeps the full matrix
        affordable).
        """
        _, circuit = mini_xc3000
        arch = xc3000(circuit.rows, circuit.cols, NEGO_XC3000_WIDTH)
        result, cfg = route_negotiated(
            arch, circuit, engine=engine, max_workers=2,
            graph_backend=graph_backend, search=search,
        )
        assert_certified(result, circuit, arch, cfg)

    def test_timing_driven_converges_and_certifies(self, tiny_xc3000):
        _, circuit = tiny_xc3000
        arch = xc3000(circuit.rows, circuit.cols, NEGO_XC3000_WIDTH)
        result, cfg = route_negotiated(arch, circuit, timing=True)
        assert_certified(result, circuit, arch, cfg)

    def test_dict_and_flat_kernels_bit_identical(self, tiny_xc3000):
        """Requests stored with either legacy kernel value route the
        same."""
        _, circuit = tiny_xc3000
        arch = xc3000(circuit.rows, circuit.cols, NEGO_XC3000_WIDTH)
        a, _ = route_negotiated(arch, circuit, graph_backend="dict")
        b, _ = route_negotiated(arch, circuit, graph_backend="flat")
        assert result_signature(a) == result_signature(b)


# ----------------------------------------------------------------------
# determinism: repeats and checkpoint/resume
# ----------------------------------------------------------------------
class TestNegotiationDeterminism:
    def test_serial_repeats_bit_identical(self, tiny_xc3000):
        _, circuit = tiny_xc3000
        arch = xc3000(circuit.rows, circuit.cols, NEGO_XC3000_WIDTH)
        a, _ = route_negotiated(arch, circuit, timing=True)
        b, _ = route_negotiated(arch, circuit, timing=True)
        assert result_signature(a) == result_signature(b)

    def test_resume_mid_negotiation_bit_identical(
        self, tiny_xc3000, tmp_path, monkeypatch
    ):
        _, circuit = tiny_xc3000
        arch = xc3000(circuit.rows, circuit.cols, NEGO_XC3000_WIDTH)
        cfg = nego_config(timing=True)

        reference = RoutingSession(arch, cfg).route(circuit)
        assert reference.passes_used > 1  # there is a "mid" to resume at

        ck = str(tmp_path / "nego.ck")
        original = RoutingSession._negotiate_route_one

        def interrupted(self, *args, **kwargs):
            if os.path.exists(ck):
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            RoutingSession, "_negotiate_route_one", interrupted
        )
        with pytest.raises(KeyboardInterrupt):
            RoutingSession(arch, cfg).route(circuit, checkpoint=ck)
        monkeypatch.setattr(
            RoutingSession, "_negotiate_route_one", original
        )

        state = load_checkpoint(ck)
        assert state["outcome"] == "in_progress"
        assert state["next_pass"] == 2
        assert state["negotiation"]["trees"]  # iteration 1's routing

        session = RoutingSession(arch, cfg)
        resumed = session.route(circuit, resume=ck)
        assert result_signature(resumed) == result_signature(reference)
        assert session.trace.resumed_from == {"path": ck, "next_pass": 2}
        assert len(session.trace.pass_dicts()) == reference.passes_used

    def test_paper_checkpoint_refused_by_negotiate_run(
        self, tiny_xc3000, tmp_path, monkeypatch
    ):
        """Mode is in the config fingerprint: cross-mode resume fails."""
        from repro.errors import CheckpointError
        from repro.router.router import FPGARouter

        _, circuit = tiny_xc3000
        arch = xc3000(circuit.rows, circuit.cols, NEGO_XC3000_WIDTH)
        ck = str(tmp_path / "paper.ck")
        original = FPGARouter._route_one

        def interrupted(self, *args, **kwargs):
            if os.path.exists(ck):
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FPGARouter, "_route_one", interrupted)
        with pytest.raises((KeyboardInterrupt, Exception)):
            RoutingSession(
                arch, RouterConfig(algorithm="kmb")
            ).route(circuit, checkpoint=ck)
        monkeypatch.setattr(FPGARouter, "_route_one", original)
        if not os.path.exists(ck):
            pytest.skip("paper run finished before checkpointing")
        with pytest.raises(CheckpointError):
            RoutingSession(arch, nego_config()).route(circuit, resume=ck)


# ----------------------------------------------------------------------
# golden fixtures: iterations, width, wirelength, critical-path delay
# ----------------------------------------------------------------------
def critical_path_of(result, circuit):
    by_name = {n.name: n for n in circuit.nets}
    return max(
        max_sink_delay(r.tree(), by_name[r.name].to_graph_net())
        for r in result.routes
    )


NEGO_GOLDEN_CASES = {
    "nego_tiny_xc3000": ("tiny_xc3000", xc3000, NEGO_XC3000_WIDTH,
                         dict()),
    "nego_tiny_xc3000_timing": ("tiny_xc3000", xc3000, NEGO_XC3000_WIDTH,
                                dict(timing=True)),
    "nego_tiny_xc4000": ("tiny_xc4000", xc4000, NEGO_XC4000_WIDTH,
                         dict()),
}


class TestNegotiationGoldens:
    @pytest.mark.parametrize("golden_id", sorted(NEGO_GOLDEN_CASES))
    def test_golden(self, request, update_goldens, golden_id):
        fixture, family, width, cfg_kwargs = NEGO_GOLDEN_CASES[golden_id]
        _, circuit = request.getfixturevalue(fixture)
        arch = family(circuit.rows, circuit.cols, width)
        result, _ = route_negotiated(arch, circuit, **cfg_kwargs)
        min_w, _ = minimum_channel_width(
            circuit, family, nego_config(**cfg_kwargs)
        )
        signature = json.loads(json.dumps({
            "iterations": result.passes_used,
            "channel_width": result.channel_width,
            "minimum_channel_width": min_w,
            "total_wirelength": result.total_wirelength,
            "critical_path_delay": critical_path_of(result, circuit),
        }))
        path = os.path.join(GOLDEN_DIR, f"{golden_id}.json")
        if update_goldens:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(signature, fh, indent=2, sort_keys=True)
                fh.write("\n")
            return
        if not os.path.exists(path):
            pytest.fail(
                f"golden file {path} missing - generate it with "
                f"`pytest {__file__} --update-goldens` and commit it"
            )
        with open(path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        assert signature == golden, (
            f"negotiated routing diverged from {path}; if intentional, "
            f"regenerate with --update-goldens and commit the diff"
        )
