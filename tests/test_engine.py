"""Tests for the routing-engine subsystem (repro.engine).

Covers the acceptance contract of the engine redesign:

* thread/process sessions reproduce serial's minimum channel width and
  total wirelength on synthetic XC3000-class circuits;
* batch partitioning never co-schedules overlapping nets and preserves
  the queue order;
* Dijkstra counters, shared-cache statistics and the JSON trace are
  populated and self-consistent.
"""

from __future__ import annotations

import io
import json

import pytest

import repro
from repro.engine import (
    DEFAULT_BATCH_MARGIN,
    ENGINES,
    RoutingSession,
    TRACE_SCHEMA,
    congestion_histogram,
    create_executor,
    load_trace,
    net_region,
    partition_batches,
    regions_overlap,
)
from repro.errors import NetError, RoutingError
from repro.fpga import (
    PlacedNet,
    RoutingResourceGraph,
    circuit_spec,
    scaled_spec,
    synthesize_circuit,
    xc3000,
)
from repro.graph import (
    DijkstraCounters,
    Graph,
    ShortestPathCache,
    dijkstra,
    get_dijkstra_counters,
    grid_graph,
    set_dijkstra_counters,
)
from repro.router import RouterConfig, minimum_channel_width


@pytest.fixture(scope="module")
def small_circuit():
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    return synthesize_circuit(spec, seed=1)


@pytest.fixture(scope="module")
def wide_circuit():
    """A larger XC3000-class circuit whose array admits real batches."""
    spec = scaled_spec(circuit_spec("busc"), 0.6)
    return synthesize_circuit(spec, seed=1)


def _arch_for(circuit, width):
    return xc3000(circuit.rows, circuit.cols, width)


# ----------------------------------------------------------------------
# batch partitioning
# ----------------------------------------------------------------------
class TestBatching:
    def _net(self, name, x0, y0, x1, y1):
        return PlacedNet(name, (x0, y0, 0), ((x1, y1, 1),))

    def test_region_is_inflated_bbox(self):
        net = self._net("n", 2, 3, 5, 4)
        assert net_region(net, margin=2) == (0, 1, 7, 6)

    def test_regions_overlap_cases(self):
        assert regions_overlap((0, 0, 2, 2), (2, 2, 4, 4))  # corner touch
        assert regions_overlap((0, 0, 5, 5), (1, 1, 2, 2))  # containment
        assert not regions_overlap((0, 0, 2, 2), (3, 0, 5, 2))

    def test_overlapping_nets_never_co_scheduled(self):
        nets = [
            self._net("a", 0, 0, 1, 1),
            self._net("b", 20, 0, 21, 1),     # disjoint from a
            self._net("c", 1, 1, 2, 2),       # overlaps a
            self._net("d", 40, 40, 41, 41),   # disjoint from everything
        ]
        batches = partition_batches(nets, margin=2)
        for batch in batches:
            regions = [net_region(n, 2) for n in batch]
            for i in range(len(regions)):
                for j in range(i + 1, len(regions)):
                    assert not regions_overlap(regions[i], regions[j]), (
                        batch[i].name,
                        batch[j].name,
                    )

    def test_batches_are_contiguous_and_order_preserving(self):
        nets = [
            self._net(f"n{i}", 3 * (i % 5), 3 * (i // 5),
                      3 * (i % 5) + 1, 3 * (i // 5) + 1)
            for i in range(15)
        ]
        batches = partition_batches(nets, margin=1)
        flattened = [n for batch in batches for n in batch]
        assert flattened == nets
        assert all(batch for batch in batches)

    def test_all_overlapping_yields_singletons(self):
        nets = [self._net(f"n{i}", 0, 0, 1, 1) for i in range(4)]
        assert [len(b) for b in partition_batches(nets)] == [1, 1, 1, 1]

    def test_empty_queue(self):
        assert partition_batches([]) == []


# ----------------------------------------------------------------------
# Dijkstra counters
# ----------------------------------------------------------------------
class TestDijkstraCounters:
    def test_record_and_merge(self):
        c = DijkstraCounters()
        c.record(10, 7)
        c.record(5, 3, pruned=4)
        assert c.snapshot() == {
            "calls": 2, "heap_pops": 15, "relaxations": 10, "pruned": 4
        }
        other = DijkstraCounters()
        other.merge(c.snapshot())
        assert other.snapshot() == c.snapshot()
        c.reset()
        assert c.snapshot()["calls"] == 0

    def test_dijkstra_threads_through_installed_counters(self):
        g = grid_graph(5, 5)
        counters = DijkstraCounters()
        previous = set_dijkstra_counters(counters)
        try:
            dijkstra(g, (0, 0))
            assert get_dijkstra_counters() is counters
        finally:
            set_dijkstra_counters(previous)
        snap = counters.snapshot()
        assert snap["calls"] == 1
        assert snap["heap_pops"] >= 25   # every node popped at least once
        assert snap["relaxations"] > 0

    def test_uninstalled_counters_do_not_leak(self):
        previous = set_dijkstra_counters(None)
        try:
            g = grid_graph(3, 3)
            dijkstra(g, (0, 0))  # must not blow up without counters
        finally:
            set_dijkstra_counters(previous)


# ----------------------------------------------------------------------
# shared cache accounting + partial keying
# ----------------------------------------------------------------------
class TestCacheAccounting:
    def test_hits_misses_invalidations(self):
        g = grid_graph(4, 4)
        cache = ShortestPathCache(g)
        cache.sssp((0, 0))
        cache.sssp((0, 0))
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        g.add_edge((0, 0), (3, 3), 0.5)
        cache.sssp((0, 0))
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["misses"] == 2

    def test_limited_run_never_answers_full_query(self):
        g = grid_graph(5, 5)
        cache = ShortestPathCache(g, source_rooted=True)
        # a source-rooted path() miss stores its early-exit run
        assert cache.path((0, 0), (1, 1))[-1] == (1, 1)
        assert cache.stats()["partial_entries"] == 1
        # the limited result must not be mistaken for a full SSSP
        full, _ = cache.sssp((0, 0))
        assert len(full) == 25
        assert cache.stats()["misses"] == 2  # both computed

    def test_full_entry_answers_limited_query(self):
        g = grid_graph(4, 4)
        cache = ShortestPathCache(g, source_rooted=True)
        cache.sssp((0, 0))
        assert cache.path((0, 0), (3, 3))[-1] == (3, 3)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["partial_entries"] == 0

    def test_rebind_drops_entries_and_counts(self):
        g = grid_graph(3, 3)
        cache = ShortestPathCache(g)
        cache.sssp((0, 0))
        cache.rebind(grid_graph(3, 3))
        assert len(cache) == 0
        assert cache.stats()["entries_invalidated"] >= 1
        cache.sssp((0, 0))  # works against the new graph
        assert cache.stats()["misses"] == 2


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class TestExecutors:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_map_preserves_order(self, engine):
        ex = create_executor(engine, max_workers=2)
        try:
            assert ex.map(_square, list(range(8))) == [
                i * i for i in range(8)
            ]
        finally:
            ex.close()

    def test_unknown_engine_rejected(self):
        with pytest.raises(RoutingError):
            create_executor("gpu")
        with pytest.raises(RoutingError):
            RoutingSession(
                xc3000(3, 3, 4), engine="gpu"
            )


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# parallel determinism (the acceptance criterion)
# ----------------------------------------------------------------------
class TestParallelDeterminism:
    @pytest.mark.parametrize("engine", ["thread", "process"])
    def test_same_width_and_wirelength_as_serial(self, engine, small_circuit):
        cfg = RouterConfig(algorithm="kmb")
        w_serial, r_serial = minimum_channel_width(
            small_circuit, xc3000, cfg
        )
        w_par, r_par = minimum_channel_width(
            small_circuit, xc3000, cfg, engine=engine, max_workers=2
        )
        assert w_par == w_serial
        assert r_par.total_wirelength == pytest.approx(
            r_serial.total_wirelength
        )

    def test_thread_engine_speculates_on_wide_array(self, wide_circuit):
        cfg = RouterConfig(algorithm="kmb")
        serial = RoutingSession(_arch_for(wide_circuit, 8), cfg)
        r1 = serial.route(wide_circuit)
        threaded = RoutingSession(
            _arch_for(wide_circuit, 8), cfg, engine="thread", max_workers=4
        )
        r2 = threaded.route(wide_circuit)
        assert r2.total_wirelength == pytest.approx(r1.total_wirelength)
        totals = threaded.trace.totals()
        # the wide array must produce at least one multi-net batch and
        # commit at least one net speculatively
        assert totals["max_batch_size"] > 1
        assert totals["speculative_commits"] > 0
        # conflict fallbacks are allowed, lost work is not
        assert totals["speculative_commits"] + totals[
            "conflict_reroutes"
        ] + totals["serial_routes"] >= len(wide_circuit.nets)


# ----------------------------------------------------------------------
# trace / observability
# ----------------------------------------------------------------------
class TestTrace:
    def test_trace_document(self, small_circuit):
        arch = _arch_for(small_circuit, 7)
        session = RoutingSession(
            arch, RouterConfig(algorithm="kmb"), engine="thread"
        )
        session.route(small_circuit)
        buf = io.StringIO()
        session.write_trace(buf)
        doc = json.loads(buf.getvalue())
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["engine"] == "thread"
        assert doc["outcome"] == "complete"
        assert doc["total_wirelength"] > 0
        assert len(doc["passes"]) == doc["passes_used"]
        p = doc["passes"][0]
        assert sum(p["batch_sizes"]) == len(small_circuit.nets)
        assert p["dijkstra"]["calls"] > 0
        assert p["seconds"] >= 0
        assert p["congestion"]["spans"] > 0
        # nonzero cache-hit statistics (acceptance criterion)
        assert doc["totals"]["cache"]["hits"] > 0
        assert doc["totals"]["dijkstra"]["heap_pops"] > 0

    def test_load_trace_roundtrip_and_schema_check(self, tmp_path, small_circuit):
        arch = _arch_for(small_circuit, 7)
        session = RoutingSession(arch, RouterConfig(algorithm="kmb"))
        session.route(small_circuit)
        path = tmp_path / "trace.json"
        session.write_trace(str(path))
        doc = load_trace(str(path))
        assert doc["circuit"] == small_circuit.name
        bad = tmp_path / "bad.json"
        # a wrong schema, and JSON documents that are not objects
        for text in ('{"schema": "something-else"}', "[]", "null", '"x"'):
            bad.write_text(text)
            with pytest.raises(ValueError):
                load_trace(str(bad))

    def test_unroutable_trace_outcome(self, small_circuit):
        arch = _arch_for(small_circuit, 1)
        session = RoutingSession(arch, RouterConfig(algorithm="kmb"))
        with pytest.raises(repro.UnroutableError):
            session.route(small_circuit)
        assert session.trace.outcome == "unroutable"
        assert session.trace.passes_used >= 1

    def test_write_trace_before_route_rejected(self):
        session = RoutingSession(xc3000(3, 3, 4))
        with pytest.raises(RoutingError):
            session.write_trace(io.StringIO())

    def test_congestion_histogram_shape(self):
        rrg = RoutingResourceGraph(xc3000(3, 3, 4))
        hist = congestion_histogram(rrg)
        assert len(hist["counts"]) == hist["bins"]
        assert sum(hist["counts"]) == hist["spans"]
        assert hist["mean"] == 0.0 and hist["max"] == 0.0

    def test_report_renders_trace(self, tmp_path, small_circuit):
        from repro.analysis.report import render_trace

        arch = _arch_for(small_circuit, 7)
        session = RoutingSession(arch, RouterConfig(algorithm="kmb"))
        session.route(small_circuit)
        path = tmp_path / "trace.json"
        session.write_trace(str(path))
        text = render_trace(load_trace(str(path)))
        assert "engine=serial" in text
        assert "cache h/m" in text


# ----------------------------------------------------------------------
# the repro.route() facade
# ----------------------------------------------------------------------
class TestFacade:
    def test_route_with_architecture(self, small_circuit):
        arch = _arch_for(small_circuit, 7)
        result = repro.route(
            small_circuit, arch=arch,
            config=repro.RouterConfig(algorithm="kmb"),
        )
        assert result.complete
        assert result.channel_width == 7

    def test_route_by_benchmark_name_searches_width(self, tmp_path):
        trace = tmp_path / "t.json"
        result = repro.route(
            "term1", fraction=0.2, seed=1, engine="thread",
            config=repro.RouterConfig(algorithm="kmb"),
            trace=str(trace),
        )
        assert result.complete
        doc = load_trace(str(trace))
        assert doc["channel_width"] == result.channel_width
        assert doc["engine"] == "thread"

    def test_rejects_unknown_input_type(self):
        with pytest.raises(NetError):
            repro.route(42)

    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            RouterConfig("kmb")  # positional construction is an error

    def test_lazy_exports(self):
        assert repro.RoutingSession is RoutingSession
        assert "RoutingSession" in dir(repro)
        with pytest.raises(AttributeError):
            repro.no_such_symbol


# ----------------------------------------------------------------------
# CLI integration of the shared engine option group
# ----------------------------------------------------------------------
class TestEngineCLI:
    def test_route_engine_and_trace(self, capsys, tmp_path):
        from repro.cli import main

        trace = tmp_path / "out.json"
        assert main([
            "route", "term1", "--fraction", "0.15",
            "--algorithm", "kmb", "--engine", "thread",
            "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "engine=thread" in out
        assert load_trace(str(trace))["engine"] == "thread"

    def test_removed_legacy_flags_rejected(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        for flag, value in (("--max-passes", "4"), ("--trace-file", "t.json")):
            with pytest.raises(SystemExit):
                parser.parse_args(["route", "busc", flag, value])

    @pytest.mark.parametrize("text", ["[]", "null", '"x"'])
    def test_report_rejects_non_object_trace(self, capsys, tmp_path, text):
        from repro.cli import main

        trace = tmp_path / "t.json"
        trace.write_text(text)
        assert main(["report", "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --trace {trace}: not an engine trace")
        assert "Traceback" not in err

    def test_report_consumes_trace(self, capsys, tmp_path):
        from repro.analysis.report import render_trace
        from repro.cli import main

        trace = tmp_path / "t.json"
        assert main([
            "route", "term1", "--fraction", "0.15",
            "--algorithm", "kmb", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        text = render_trace(load_trace(str(trace)))
        assert "Minimum" not in text  # sanity: it's the trace section
        assert "pass" in text
