"""Tests for the engine's fault-tolerance layer.

Covers the acceptance contract of the resilience work:

* a killed process worker is retried and the run stays bit-identical
  to the serial reference;
* a twice-broken pool degrades process → thread (→ serial) with the
  degradation recorded in the trace, and the run still completes;
* a session interrupted after pass *k* resumes from its checkpoint to
  the same channel width, total wirelength and per-net routes as an
  uninterrupted run, and the interrupt leaves no orphaned workers;
* deadlines (`pass_timeout_s` / `route_timeout_s` / `max_relaxations`)
  abort cleanly with `EngineTimeoutError` carrying partial stats;
* checkpoints are checksummed, fingerprinted and atomic — corruption
  and incompatibility are explicit `CheckpointError`s, never a
  silently different answer.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle

import pytest

import repro
from repro.cli import main as cli_main
from repro.engine import (
    CHECKPOINT_SCHEMA,
    DEGRADATION_LADDER,
    ExecutorSupervisor,
    FaultInjected,
    FaultPlan,
    RetryPolicy,
    RoutingSession,
    create_executor,
    load_checkpoint,
    load_trace,
    map_with_recovery,
    save_checkpoint,
    sweep_stale_tmp,
)
from repro.errors import (
    CheckpointError,
    EngineError,
    EngineTimeoutError,
    ReproError,
    UnroutableError,
    WorkerCrashError,
)
from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit, xc3000
from repro.router import RouterConfig, minimum_channel_width
from repro.router.router import FPGARouter


@pytest.fixture(scope="module")
def small_circuit():
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    return synthesize_circuit(spec, seed=1)


@pytest.fixture(scope="module")
def wide_circuit():
    """Large enough for multi-net batches (speculative dispatch)."""
    spec = scaled_spec(circuit_spec("busc"), 0.6)
    return synthesize_circuit(spec, seed=1)


def _arch_for(circuit, width):
    return xc3000(circuit.rows, circuit.cols, width)


def _edge_set(route):
    # routing edges are undirected: canonicalize the endpoint order
    return sorted(
        (*sorted((repr(u), repr(v))), w) for u, v, w in route.edges
    )


def _assert_routes_identical(a, b):
    assert len(a.routes) == len(b.routes)
    for ra, rb in zip(a.routes, b.routes):
        assert ra.name == rb.name
        assert ra.wirelength == rb.wirelength
        assert _edge_set(ra) == _edge_set(rb)


KMB = RouterConfig(algorithm="kmb")


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_from_env_unset_is_none(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None

    def test_from_env_parses_fields(self, tmp_path):
        plan = FaultPlan.from_env(
            {
                "REPRO_FAULTS": (
                    f"kill=2,kill_times=3,fail=1,delay=0,"
                    f"delay_seconds=0.5,corrupt_checkpoint=1,"
                    f"dir={tmp_path}"
                )
            }
        )
        assert plan.kill_on_task == 2
        assert plan.kill_times == 3
        assert plan.fail_on_task == 1
        assert plan.delay_on_task == 0
        assert plan.delay_seconds == 0.5
        assert plan.corrupt_checkpoint is True
        assert plan.state_dir == str(tmp_path)

    def test_from_env_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_env({"REPRO_FAULTS": "kill"})
        with pytest.raises(ValueError):
            FaultPlan.from_env({"REPRO_FAULTS": "frobnicate=1"})

    def test_marker_files_bound_firing(self, tmp_path):
        plan = FaultPlan(
            fail_on_task=0, fail_times=2, state_dir=str(tmp_path)
        )
        fired = 0
        for _ in range(5):
            try:
                plan.inject(7)
            except FaultInjected:
                fired += 1
        assert fired == 2
        assert plan.fired("fail") == 2

    def test_kill_downgrades_to_exception_in_process(self, tmp_path):
        plan = FaultPlan(
            kill_on_task=0, kill_times=1, state_dir=str(tmp_path)
        )
        with pytest.raises(FaultInjected):
            plan.inject(0)  # in-process: must not os._exit the test run
        plan.inject(0)  # budget claimed — second call is a no-op

    def test_fault_injected_is_not_a_repro_error(self):
        # the retry layer must treat it as an infrastructure crash
        assert not issubclass(FaultInjected, ReproError)


# ----------------------------------------------------------------------
# retry / supervisor units
# ----------------------------------------------------------------------
class TestRetryAndSupervisor:
    def test_transient_failure_is_retried(self):
        calls = {"n": 0}

        def flaky(item):
            calls["n"] += 1
            # fails the batch fast path, then the first per-item attempt
            if calls["n"] <= 2:
                raise RuntimeError("transient")
            return item * 10

        events = []
        with ExecutorSupervisor("serial") as sup:
            out = map_with_recovery(
                sup, flaky, [1, 2], RetryPolicy(), events.append,
                sleep=lambda s: None,
            )
        assert out == [10, 20]
        kinds = [e["type"] for e in events]
        assert "redispatch" in kinds and "retry" in kinds

    def test_repro_errors_are_never_retried(self):
        calls = {"n": 0}

        def semantic(item):
            calls["n"] += 1
            raise UnroutableError(3, 1, ("x",))

        with ExecutorSupervisor("serial") as sup:
            with pytest.raises(UnroutableError):
                map_with_recovery(
                    sup, semantic, [1], RetryPolicy(), lambda e: None,
                    sleep=lambda s: None,
                )
        assert calls["n"] == 1

    def test_persistent_crash_becomes_worker_crash_error(self):
        def doomed(item):
            raise RuntimeError("hardware on fire")

        with ExecutorSupervisor("serial") as sup:
            with pytest.raises(WorkerCrashError) as info:
                map_with_recovery(
                    sup, doomed, [object()], RetryPolicy(max_attempts=2),
                    lambda e: None, sleep=lambda s: None,
                )
        assert info.value.attempts == 2

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            base_delay_s=0.01, max_delay_s=0.05, jitter=0.5, seed=42
        )
        a = [policy.delay(i, policy.rng()) for i in range(6)]
        b = [policy.delay(i, policy.rng()) for i in range(6)]
        assert a == b  # seeded jitter: re-runs sleep the same schedule
        assert all(d <= 0.05 * 1.5 for d in a)  # saturates + jitter cap

    def test_supervisor_rebuilds_then_walks_the_ladder(self):
        events = []
        sup = ExecutorSupervisor("process", 2, on_event=events.append)
        try:
            sup.handle_breakage(RuntimeError("crash 1"))
            assert sup.current == "process"  # rebuilt, not degraded
            sup.handle_breakage(RuntimeError("crash 2"))
            assert sup.current == "thread"
            sup.handle_breakage(RuntimeError("crash 3"))
            assert sup.current == "serial"
            assert [e["type"] for e in events] == [
                "pool_rebuilt", "degraded", "degraded",
            ]
            assert (events[1]["from"], events[1]["to"]) == (
                "process", "thread",
            )
            assert (events[2]["from"], events[2]["to"]) == (
                "thread", "serial",
            )
        finally:
            sup.close()
        assert DEGRADATION_LADDER == {"process": "thread", "thread": "serial"}

    def test_closed_supervisor_refuses_dispatch(self):
        sup = ExecutorSupervisor("serial")
        sup.close()
        with pytest.raises(EngineError):
            sup.executor


# ----------------------------------------------------------------------
# constructor validation + context managers (satellites)
# ----------------------------------------------------------------------
class TestLifecycle:
    @pytest.mark.parametrize("engine", ["serial", "thread", "process"])
    def test_create_executor_rejects_bad_worker_count(self, engine):
        with pytest.raises(ReproError):
            create_executor(engine, max_workers=0)
        with pytest.raises(ReproError):
            create_executor(engine, max_workers=-3)

    def test_executor_is_a_context_manager(self):
        with create_executor("thread", 2) as ex:
            assert ex.map(len, ["ab", "c"]) == [2, 1]
        with create_executor("serial") as ex:
            assert ex.map(len, []) == []

    def test_session_is_a_context_manager(self, small_circuit):
        with RoutingSession(
            _arch_for(small_circuit, 3), KMB, engine="thread"
        ) as session:
            result = session.route(small_circuit)
        assert result.complete
        session.close()  # idempotent

    def test_session_rejects_bad_worker_count(self, small_circuit):
        session = RoutingSession(
            _arch_for(small_circuit, 3), KMB, engine="thread", max_workers=0
        )
        with pytest.raises(ReproError):
            session.route(small_circuit)


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_hierarchy(self):
        for cls in (EngineError, WorkerCrashError, EngineTimeoutError,
                    CheckpointError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, EngineError)

    def test_worker_crash_error_pickles(self):
        err = WorkerCrashError("net7", 3, RuntimeError("boom"))
        back = pickle.loads(pickle.dumps(err))
        assert back.net == "net7"
        assert back.attempts == 3
        assert "boom" in str(back.cause)

    def test_engine_timeout_error_pickles(self):
        err = EngineTimeoutError(
            "too slow", kind="net", budget=1.5, elapsed=2.0,
            partial={"pass": 3},
        )
        back = pickle.loads(pickle.dumps(err))
        assert back.kind == "net"
        assert back.budget == 1.5
        assert back.partial == {"pass": 3}


# ----------------------------------------------------------------------
# fault injection end-to-end (the acceptance criteria)
# ----------------------------------------------------------------------
class TestFaultInjectionEndToEnd:
    def test_killed_process_worker_is_bit_identical_to_serial(
        self, wide_circuit, tmp_path
    ):
        reference = RoutingSession(_arch_for(wide_circuit, 8), KMB).route(
            wide_circuit
        )
        plan = FaultPlan(
            kill_on_task=0, kill_times=1, state_dir=str(tmp_path)
        )
        session = RoutingSession(
            _arch_for(wide_circuit, 8), KMB,
            engine="process", max_workers=2, faults=plan,
        )
        result = session.route(wide_circuit)
        assert plan.fired("kill") == 1  # the worker really died
        assert result.total_wirelength == pytest.approx(
            reference.total_wirelength
        )
        _assert_routes_identical(reference, result)
        kinds = [e["type"] for e in session.trace.events]
        assert "pool_rebuilt" in kinds
        assert session.trace.totals()["retries"] >= 1

    def test_twice_broken_pool_degrades_and_completes(
        self, wide_circuit, tmp_path
    ):
        reference = RoutingSession(_arch_for(wide_circuit, 8), KMB).route(
            wide_circuit
        )
        plan = FaultPlan(
            kill_on_task=0, kill_times=2, state_dir=str(tmp_path)
        )
        # one worker: the two kills are sequential, so the pool breaks
        # twice (two workers could both die inside a single dispatch)
        session = RoutingSession(
            _arch_for(wide_circuit, 8), KMB,
            engine="process", max_workers=1, faults=plan,
        )
        result = session.route(wide_circuit)
        assert plan.fired("kill") == 2
        assert result.total_wirelength == pytest.approx(
            reference.total_wirelength
        )
        kinds = [e["type"] for e in session.trace.events]
        assert "pool_rebuilt" in kinds
        assert "degraded" in kinds
        degraded = next(
            e for e in session.trace.events if e["type"] == "degraded"
        )
        assert (degraded["from"], degraded["to"]) == ("process", "thread")
        assert session.trace.engine_final == "thread"
        doc = session.trace.to_dict()
        assert doc["engine"] == "process"
        assert doc["engine_final"] == "thread"

    def test_injected_task_failure_is_retried_in_thread_engine(
        self, wide_circuit, tmp_path
    ):
        reference = RoutingSession(_arch_for(wide_circuit, 8), KMB).route(
            wide_circuit
        )
        plan = FaultPlan(
            fail_on_task=0, fail_times=1, state_dir=str(tmp_path)
        )
        session = RoutingSession(
            _arch_for(wide_circuit, 8), KMB,
            engine="thread", max_workers=2, faults=plan,
        )
        result = session.route(wide_circuit)
        assert plan.fired("fail") == 1
        assert result.total_wirelength == pytest.approx(
            reference.total_wirelength
        )
        assert session.trace.engine_final == "thread"  # no degradation

    def test_kill_during_flat_materialize_is_bit_identical(
        self, wide_circuit, tmp_path
    ):
        # CSR shipping has its own window: the worker dies while the
        # task's graph exists only as shipped flat arrays, before the
        # thaw-side pin attachment
        reference = RoutingSession(_arch_for(wide_circuit, 8), KMB).route(
            wide_circuit
        )
        plan = FaultPlan(kill_on_materialize=0, state_dir=str(tmp_path))
        session = RoutingSession(
            _arch_for(wide_circuit, 8), KMB,
            engine="process", max_workers=2, faults=plan,
        )
        result = session.route(wide_circuit)
        assert plan.fired("kill-mat") == 1  # it really died mid-thaw
        assert result.total_wirelength == pytest.approx(
            reference.total_wirelength
        )
        _assert_routes_identical(reference, result)
        kinds = [e["type"] for e in session.trace.events]
        assert "pool_rebuilt" in kinds
        assert session.trace.totals()["retries"] >= 1


# ----------------------------------------------------------------------
# deadlines and budgets
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_config_validates_budgets(self):
        with pytest.raises(ReproError):
            RouterConfig(pass_timeout_s=0)
        with pytest.raises(ReproError):
            RouterConfig(route_timeout_s=-1)
        with pytest.raises(ReproError):
            RouterConfig(max_relaxations=0)

    def test_pass_timeout_aborts_with_partial_stats(self, small_circuit):
        cfg = RouterConfig(algorithm="kmb", pass_timeout_s=1e-9)
        session = RoutingSession(_arch_for(small_circuit, 3), cfg)
        with pytest.raises(EngineTimeoutError) as info:
            session.route(small_circuit)
        assert info.value.kind == "pass"
        assert info.value.partial["pass"] == 1
        assert info.value.partial["circuit"] == small_circuit.name
        assert session.trace.outcome == "timeout"
        assert any(
            e["type"] == "timeout" for e in session.trace.events
        )

    def test_relaxation_budget_is_deterministic(self, small_circuit):
        cfg = RouterConfig(algorithm="kmb", max_relaxations=1)
        session = RoutingSession(_arch_for(small_circuit, 3), cfg)
        with pytest.raises(EngineTimeoutError) as info:
            session.route(small_circuit)
        assert info.value.kind == "relaxations"

    def test_net_deadline_fires_inside_dijkstra(self, small_circuit):
        cfg = RouterConfig(algorithm="kmb", route_timeout_s=1e-12)
        session = RoutingSession(_arch_for(small_circuit, 3), cfg)
        with pytest.raises(EngineTimeoutError) as info:
            session.route(small_circuit)
        assert info.value.kind == "net"

    def test_unbudgeted_config_still_routes(self, small_circuit):
        result = RoutingSession(_arch_for(small_circuit, 3), KMB).route(
            small_circuit
        )
        assert result.complete


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def _interrupt_after_first_checkpoint(self, monkeypatch, ck):
        """Arrange KeyboardInterrupt on the first net after a checkpoint
        exists — i.e. at the start of pass 2."""
        original = FPGARouter._route_one

        def interrupted(self, *args, **kwargs):
            if os.path.exists(ck):
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FPGARouter, "_route_one", interrupted)
        return original

    def test_interrupted_session_resumes_bit_identically(
        self, small_circuit, tmp_path, monkeypatch
    ):
        # term1@0.22 at W=3 takes two passes, so pass 1 checkpoints
        reference = RoutingSession(_arch_for(small_circuit, 3), KMB).route(
            small_circuit
        )
        assert reference.passes_used > 1

        ck = str(tmp_path / "session.ck")
        original = self._interrupt_after_first_checkpoint(monkeypatch, ck)
        session = RoutingSession(_arch_for(small_circuit, 3), KMB)
        with pytest.raises(KeyboardInterrupt):
            session.route(small_circuit, checkpoint=ck)
        monkeypatch.setattr(FPGARouter, "_route_one", original)

        assert os.path.exists(ck)  # the interrupt left a resume point
        state = load_checkpoint(ck)
        assert state["outcome"] == "in_progress"
        assert state["next_pass"] == 2

        resumed_session = RoutingSession(_arch_for(small_circuit, 3), KMB)
        resumed = resumed_session.route(small_circuit, resume=ck)
        assert resumed.passes_used == reference.passes_used
        assert resumed.total_wirelength == pytest.approx(
            reference.total_wirelength
        )
        _assert_routes_identical(reference, resumed)
        trace = resumed_session.trace
        assert trace.resumed_from == {"path": ck, "next_pass": 2}
        # the resumed trace covers the whole logical run
        assert len(trace.pass_dicts()) == reference.passes_used

    def test_interrupt_leaves_no_orphaned_workers(
        self, small_circuit, tmp_path, monkeypatch
    ):
        ck = str(tmp_path / "orphan.ck")
        self._interrupt_after_first_checkpoint(monkeypatch, ck)
        session = RoutingSession(
            _arch_for(small_circuit, 3), KMB,
            engine="process", max_workers=2,
        )
        with pytest.raises(KeyboardInterrupt):
            session.route(small_circuit, checkpoint=ck)
        # route()'s finally closed the supervisor: the pool is gone
        assert session._supervisor is None
        assert multiprocessing.active_children() == []
        assert os.path.exists(ck)

    def test_checkpoint_removed_on_success(self, small_circuit, tmp_path):
        ck = str(tmp_path / "done.ck")
        result = RoutingSession(_arch_for(small_circuit, 3), KMB).route(
            small_circuit, checkpoint=ck
        )
        assert result.complete
        assert not os.path.exists(ck)

    def test_unroutable_checkpoint_skips_width_in_sweep(
        self, small_circuit, tmp_path
    ):
        cfg = RouterConfig(algorithm="kmb", max_passes=2)
        w_ref, r_ref = minimum_channel_width(
            small_circuit, xc3000, cfg, w_start=1
        )
        ck = str(tmp_path / "sweep.ck")
        session = RoutingSession(_arch_for(small_circuit, 1), cfg)
        with pytest.raises(UnroutableError) as info:
            session.route(small_circuit, checkpoint=ck)
        assert info.value.failed_nets  # names, not a bare count
        assert load_checkpoint(ck)["outcome"] == "unroutable"

        w, result = minimum_channel_width(
            small_circuit, xc3000, cfg, w_start=1,
            checkpoint=ck, resume=ck,
        )
        assert w == w_ref
        assert result.total_wirelength == pytest.approx(
            r_ref.total_wirelength
        )
        assert not os.path.exists(ck)  # success cleans up the sweep file

    def test_sweep_resume_missing_file_is_fine(
        self, small_circuit, tmp_path
    ):
        w, result = minimum_channel_width(
            small_circuit, xc3000, KMB,
            resume=str(tmp_path / "never-written.ck"),
        )
        assert result.complete

    def test_resume_requires_existing_file(self, small_circuit, tmp_path):
        session = RoutingSession(_arch_for(small_circuit, 3), KMB)
        with pytest.raises(CheckpointError):
            session.route(
                small_circuit, resume=str(tmp_path / "missing.ck")
            )

    def test_stale_tmp_orphans_are_swept(self, tmp_path):
        # a crash between staging <path>.tmp.<pid> and os.replace()
        # leaves the staging file behind; save and load both sweep it
        path = str(tmp_path / "swept.ck")
        orphan = f"{path}.tmp.12345"
        with open(orphan, "w") as fh:
            fh.write("dead writer's half-written checkpoint")
        save_checkpoint(path, {"outcome": "in_progress"})
        assert not os.path.exists(orphan)
        assert load_checkpoint(path)["outcome"] == "in_progress"

        with open(orphan, "w") as fh:
            fh.write("another orphan, left after the save")
        assert load_checkpoint(path)["outcome"] == "in_progress"
        assert not os.path.exists(orphan)
        # the checkpoint itself survives the sweep
        assert os.path.exists(path)

    def test_sweep_stale_tmp_counts_only_orphans(self, tmp_path):
        path = str(tmp_path / "count.ck")
        save_checkpoint(path, {"outcome": "in_progress"})
        for pid in (111, 222):
            with open(f"{path}.tmp.{pid}", "w") as fh:
                fh.write("orphan")
        (tmp_path / "unrelated.txt").write_text("kept")
        assert sweep_stale_tmp(path) == 2
        assert sweep_stale_tmp(path) == 0
        assert (tmp_path / "unrelated.txt").exists()
        assert os.path.exists(path)

    def test_corrupt_checkpoint_is_refused(self, tmp_path):
        path = str(tmp_path / "corrupt.ck")
        plan = FaultPlan(corrupt_checkpoint=True, state_dir=str(tmp_path))
        save_checkpoint(path, {"outcome": "in_progress"}, faults=plan)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "broken.ck"
        path.write_text('{"schema": "repro.engine/checkpoint-v1", "sta')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_wrong_schema_is_refused(self, tmp_path):
        path = tmp_path / "alien.ck"
        path.write_text(json.dumps({"schema": "other", "state": {}}))
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(str(path))
        assert CHECKPOINT_SCHEMA == "repro.engine/checkpoint-v1"

    def test_mismatched_config_is_refused(
        self, small_circuit, tmp_path, monkeypatch
    ):
        ck = str(tmp_path / "fingerprint.ck")
        self._interrupt_after_first_checkpoint(monkeypatch, ck)
        session = RoutingSession(_arch_for(small_circuit, 3), KMB)
        with pytest.raises(KeyboardInterrupt):
            session.route(small_circuit, checkpoint=ck)

        other = RoutingSession(
            _arch_for(small_circuit, 3), RouterConfig(algorithm="ikmb")
        )
        with pytest.raises(CheckpointError, match="config"):
            other.route(small_circuit, resume=ck)


# ----------------------------------------------------------------------
# facade + CLI surface
# ----------------------------------------------------------------------
class TestSurface:
    def test_facade_exports_engine_errors(self):
        for name in ("EngineError", "WorkerCrashError",
                     "EngineTimeoutError", "CheckpointError"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_facade_route_accepts_checkpoint_kwargs(
        self, small_circuit, tmp_path
    ):
        result = repro.route(
            small_circuit, arch=_arch_for(small_circuit, 3), config=KMB,
            checkpoint=str(tmp_path / "facade.ck"),
        )
        assert result.complete

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_pre_v4_trace_documents_rejected(self, tmp_path, version):
        path = tmp_path / "old-trace.json"
        schema = f"repro.engine/trace-v{version}"
        path.write_text(json.dumps({"schema": schema}))
        with pytest.raises(ValueError, match=schema):
            load_trace(str(path))

    def test_cli_unroutable_exits_3_with_net_names(
        self, monkeypatch, capsys
    ):
        def explode(*args, **kwargs):
            raise UnroutableError(4, 20, ("net_a", "net_b"))

        monkeypatch.setattr(
            "repro.cli.minimum_channel_width", explode
        )
        code = cli_main(["route", "term1", "--fraction", "0.22"])
        err = capsys.readouterr().err
        assert code == 3
        assert "net_a" in err and "net_b" in err

    def test_cli_timeout_exits_3_with_partial_progress(
        self, monkeypatch, capsys
    ):
        def explode(*args, **kwargs):
            raise EngineTimeoutError(
                "pass 2 exceeded its 1.0s budget", kind="pass",
                partial={"pass": 2, "nets_routed": 17},
            )

        monkeypatch.setattr(
            "repro.cli.minimum_channel_width", explode
        )
        code = cli_main(["route", "term1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "nets_routed=17" in err

    def test_cli_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            cli_main(["route", "--engine", "warp"])
        assert info.value.code == 2

    def test_cli_checkpoint_roundtrip(self, tmp_path, capsys):
        ck = str(tmp_path / "cli.ck")
        code = cli_main(
            ["route", "term1", "--fraction", "0.22",
             "--algorithm", "kmb", "--checkpoint", ck]
        )
        assert code == 0
        assert not os.path.exists(ck)  # success removes the checkpoint
        assert "complete routing" in capsys.readouterr().out
