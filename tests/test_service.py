"""Crash-recovery tests for the routing job service.

The acceptance contract is *kill-anywhere*: for every fault point in
the journal/store write protocol, killing the service there and
restarting must leave every job either still queued or in a verified
terminal state, resumed jobs must produce results bit-identical to an
uninterrupted run, and identical resubmissions must be served from the
result store without routing again.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main as cli_main
from repro.engine import RetryPolicy, RoutingSession
from repro.engine.faults import FaultPlan, SimulatedCrash
from repro.errors import (
    AdmissionError,
    JobError,
    JournalError,
    ServiceError,
    ValidationError,
)
from repro.fpga import (
    CircuitSpec,
    circuit_spec,
    scaled_spec,
    synthesize_circuit,
    xc3000,
)
from repro.fpga.netlist import PlacedCircuit, PlacedNet
from repro.io import result_to_dict
from repro.router import RouterConfig
from repro.service import (
    AdmissionPolicy,
    JOURNAL_SCHEMA,
    Journal,
    JobStore,
    RoutingService,
    TERMINAL_STATES,
    config_from_dict,
    config_to_dict,
    read_journal,
    request_fingerprint,
)
from repro.validate import verify_result

KMB = RouterConfig(algorithm="kmb")

#: the differential harness's tiny XC3000 circuit: at W=3 it negotiates
#: for several passes, and A* and plain Dijkstra route it to different
#: trees (wirelength 62.6 against 63.5)
NEGOTIATE_SPEC = CircuitSpec(
    name="diff-tiny3k",
    family="xc3000",
    cols=4,
    rows=4,
    nets_2_3=8,
    nets_4_10=3,
    nets_over_10=1,
    published={},
)

#: every named crash point in the durable write path
FAULT_POINTS = (
    "journal.append.pre",
    "journal.append.torn",
    "journal.append.post",
    "state.write.pre",
    "state.write.post",
    "result.write.pre",
    "result.write.post",
)


@pytest.fixture(scope="module")
def small_circuit():
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    return synthesize_circuit(spec, seed=1)


@pytest.fixture(scope="module")
def reference(small_circuit, tmp_path_factory):
    """The uninterrupted service answer every crash run must match."""
    root = tmp_path_factory.mktemp("reference-store")
    service = RoutingService(str(root))
    record = service.submit(small_circuit, config=KMB, width=3)
    assert service.run_until_idle() == 1
    return service.result(record.job_id)


def _edge_set(route):
    return sorted(
        (*sorted((repr(u), repr(v))), w) for u, v, w in route.edges
    )


def _assert_routes_identical(a, b):
    assert a.channel_width == b.channel_width
    assert a.total_wirelength == pytest.approx(b.total_wirelength)
    assert len(a.routes) == len(b.routes)
    for ra, rb in zip(a.routes, b.routes):
        assert ra.name == rb.name
        assert _edge_set(ra) == _edge_set(rb)


# ----------------------------------------------------------------------
# the write-ahead journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        assert journal.next_seq == 1
        journal.append({"type": "submitted", "job": "job-000001"})
        journal.append({"type": "transition", "job": "job-000001",
                        "to": "running"})
        events, durable = read_journal(path)
        assert [e["type"] for e in events] == ["submitted", "transition"]
        assert durable == os.path.getsize(path)
        reopened = Journal(path)
        assert reopened.replayed == events
        assert reopened.next_seq == 3

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"type": "submitted", "job": "job-000001"})
        good_size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b'{"schema": "repro.service/journal-v1", "seq"')
        reopened = Journal(path)
        assert len(reopened.replayed) == 1
        assert os.path.getsize(path) == good_size
        # and the next append starts a clean line
        reopened.append({"type": "transition", "job": "job-000001",
                         "to": "done"})
        events, _ = read_journal(path)
        assert len(events) == 2

    def test_unterminated_final_record_is_dropped(self, tmp_path):
        # even a *parseable* unterminated tail is a crash tail: its
        # append never returned, so it gets lost-event semantics
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"type": "submitted", "job": "job-000001"})
        with open(path, "rb") as fh:
            line = fh.readline()
        with open(path, "ab") as fh:
            fh.write(line.rstrip(b"\n").replace(b'"seq":1', b'"seq":2'))
        events, durable = read_journal(path)
        assert len(events) == 1
        assert durable < os.path.getsize(path)

    def test_garbled_final_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"type": "submitted", "job": "job-000001"})
        with open(path, "ab") as fh:
            fh.write(b"NOT JSON AT ALL\n")
        assert len(Journal(path).replayed) == 1

    def test_midfile_damage_is_an_error(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"type": "submitted", "job": "job-000001"})
        journal.append({"type": "transition", "job": "job-000001",
                        "to": "running"})
        with open(path, "rb") as fh:
            lines = fh.readlines()
        lines[0] = b"garbage\n"
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(JournalError):
            read_journal(path)

    def test_checksum_and_seq_are_verified(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path)
        journal.append({"type": "submitted", "job": "job-000001"})
        with open(path) as fh:
            record = json.loads(fh.read())
        # tamper with the event but keep the old checksum
        record["event"]["job"] = "job-000009"
        tampered = json.dumps(record) + "\n"
        with open(path, "w") as fh:
            fh.write(tampered)
            fh.write(tampered)  # two copies: damage is now mid-file
        with pytest.raises(JournalError, match="checksum"):
            read_journal(path)

    def test_missing_file_is_empty(self, tmp_path):
        events, durable = read_journal(str(tmp_path / "absent.jsonl"))
        assert events == [] and durable == 0


# ----------------------------------------------------------------------
# the job store
# ----------------------------------------------------------------------
class TestJobStore:
    def _store(self, tmp_path, **kw):
        return JobStore(str(tmp_path / "store"), **kw)

    def test_create_claim_finish_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        record = store.create_job(
            {"x": 1}, fingerprint="abc", tenant="t1"
        )
        assert record.job_id == "job-000001"
        assert record.state == "queued"
        store.claim(record.job_id, "w0")
        store.write_result(record.job_id, {"format": "repro-result"})
        done = store.finish_done(
            record.job_id, channel_width=3, passes_used=2,
            total_wirelength=10.0, verified=True,
        )
        assert done.state == "done" and done.verified
        # snapshot mirrors the record
        snapshot = store.load_snapshot(record.job_id)
        assert snapshot == done.to_dict()
        # the journal is authoritative on reopen
        reopened = self._store(tmp_path)
        assert reopened.get(record.job_id).to_dict() == done.to_dict()

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(JobError):
            self._store(tmp_path).get("job-999999")

    def test_job_ids_skip_orphan_directories(self, tmp_path):
        store = self._store(tmp_path)
        os.makedirs(store.job_dir("job-000041"))
        assert store.next_job_id() == "job-000042"

    def test_corrupt_snapshot_is_rebuilt_from_journal(self, tmp_path):
        store = self._store(tmp_path)
        record = store.create_job({}, fingerprint="f", tenant="t")
        with open(store.state_path(record.job_id), "w") as fh:
            fh.write("{} definitely not the snapshot")
        assert store.load_snapshot(record.job_id) is None
        reopened = self._store(tmp_path)
        summary = reopened.reconcile()
        assert record.job_id in summary["snapshot_rebuilt"]
        assert reopened.load_snapshot(record.job_id) is not None

    def test_corrupt_job_state_fault_cannot_change_a_job(self, tmp_path):
        plan = FaultPlan(
            corrupt_job_state=True, state_dir=str(tmp_path / "faults")
        )
        store = self._store(tmp_path, faults=plan)
        record = store.create_job({}, fingerprint="f", tenant="t")
        assert plan.fired("corrupt-state") == 1
        assert store.load_snapshot(record.job_id) is None  # garbled
        reopened = self._store(tmp_path)
        summary = reopened.reconcile()
        assert record.job_id in summary["snapshot_rebuilt"]
        healed = reopened.get(record.job_id)
        assert healed.state == "queued"
        assert reopened.load_snapshot(record.job_id) == healed.to_dict()


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_depth_limit(self, small_circuit, tmp_path):
        service = RoutingService(
            str(tmp_path), policy=AdmissionPolicy(max_queue_depth=1)
        )
        service.submit(small_circuit, config=KMB, width=3)
        with pytest.raises(AdmissionError) as info:
            service.submit(small_circuit, config=KMB, width=4)
        assert info.value.code == "QUEUE_FULL"

    def test_tenant_limit(self, small_circuit, tmp_path):
        service = RoutingService(
            str(tmp_path),
            policy=AdmissionPolicy(
                max_queue_depth=10, max_jobs_per_tenant=1
            ),
        )
        service.submit(small_circuit, config=KMB, width=3, tenant="a")
        # a different tenant still fits
        service.submit(small_circuit, config=KMB, width=4, tenant="b")
        with pytest.raises(AdmissionError) as info:
            service.submit(small_circuit, config=KMB, width=5, tenant="a")
        assert info.value.code == "TENANT_LIMIT"

    def test_finished_jobs_free_their_slot(self, small_circuit, tmp_path):
        service = RoutingService(
            str(tmp_path), policy=AdmissionPolicy(max_queue_depth=1)
        )
        service.submit(small_circuit, config=KMB, width=3)
        service.run_until_idle()
        service.submit(small_circuit, config=KMB, width=4)  # admitted

    def test_invalid_circuit_fails_fast(self, tmp_path):
        # duplicate net names: the lint rejects this at submit, before
        # anything is journaled
        bad = PlacedCircuit(
            name="bad", rows=4, cols=4,
            nets=[
                PlacedNet("n", (0, 0, 0), ((1, 1, 0),)),
                PlacedNet("n", (2, 2, 0), ((3, 3, 0),)),
            ],
        )
        service = RoutingService(str(tmp_path))
        with pytest.raises(ValidationError):
            service.submit(bad, config=KMB, width=3)
        assert service.jobs() == []

    def test_unknown_family_is_a_job_error(self, small_circuit, tmp_path):
        with pytest.raises(JobError):
            RoutingService(str(tmp_path)).submit(
                small_circuit, family="xc9000"
            )


# ----------------------------------------------------------------------
# stores written before RouterConfig.graph_backend was removed
# ----------------------------------------------------------------------
class TestLegacyStore:
    """Every ``request.json`` an older version wrote carries the
    removed ``graph_backend`` field and a ``search`` value that may be
    retired (``config_to_dict`` serializes every config field); such a
    store must keep serving after an upgrade."""

    def _legacy_store(self, root, circuit):
        """Two finished jobs and one queued job, each request carrying
        one of ``graph_backend``'s three old values and one of the
        retired ``search`` values."""
        service = RoutingService(str(root))
        done_kmb = service.submit(circuit, config=KMB, width=3)
        done_ikmb = service.submit(
            circuit, config=RouterConfig(algorithm="ikmb"), width=3
        )
        assert service.run_until_idle() == 2
        queued = service.submit(circuit, config=KMB, width=4)
        for record, value, search in (
            (done_kmb, "auto", "auto"),
            (done_ikmb, "dict", "bidir"),
            (queued, "flat", "bidir"),
        ):
            path = service.store.request_path(record.job_id)
            with open(path, encoding="utf-8") as fh:
                request = json.load(fh)
            request["config"]["graph_backend"] = value
            request["config"]["search"] = search
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(request, fh)
        return done_kmb.job_id, done_ikmb.job_id, queued.job_id

    def test_recovered_store_runs_queued_legacy_job(
        self, small_circuit, tmp_path, reference
    ):
        kmb_id, ikmb_id, queued_id = self._legacy_store(
            tmp_path / "legacy", small_circuit
        )
        service = RoutingService(str(tmp_path / "legacy"), recover=True)
        assert service.status(queued_id)["state"] == "queued"
        assert service.run_until_idle() == 1
        status = service.status(queued_id)
        assert status["state"] == "done" and status["verified"] is True
        result = service.result(queued_id)
        arch = xc3000(small_circuit.rows, small_circuit.cols, 4)
        report = verify_result(
            result, small_circuit, arch, KMB, level="full"
        )
        assert report.ok, [d.render() for d in report.errors]
        # the same request submitted fresh gives the same answer
        fresh = RoutingService(str(tmp_path / "fresh"))
        record = fresh.submit(small_circuit, config=KMB, width=4)
        assert fresh.run_until_idle() == 1
        assert result_to_dict(result) == result_to_dict(
            fresh.result(record.job_id)
        )
        # the finished legacy jobs still serve, and still dedupe
        _assert_routes_identical(service.result(kmb_id), reference)
        assert service.status(ikmb_id)["state"] == "done"
        again = service.submit(small_circuit, config=KMB, width=3)
        assert again.state == "done" and again.deduped_from == kmb_id

    def test_unknown_config_key_still_fails(self):
        with pytest.raises(TypeError):
            config_from_dict(dict(config_to_dict(KMB), graph_core="csr"))


# ----------------------------------------------------------------------
# lifecycle: run, fail, cancel
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_submit_route_verify_done(
        self, small_circuit, tmp_path, reference
    ):
        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, width=3)
        assert service.run_until_idle() == 1
        status = service.status(record.job_id)
        assert status["state"] == "done"
        assert status["verified"] is True
        assert status["attempts"] == 1
        _assert_routes_identical(service.result(record.job_id), reference)
        # progress was streamed into the per-job log as it happened
        log = service.store.log_path(record.job_id)
        events = [json.loads(l) for l in open(log)]
        assert any(e.get("type") == "pass" for e in events)

    def test_unroutable_job_fails_with_cause(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        record = service.submit(
            small_circuit,
            config=RouterConfig(algorithm="kmb", max_passes=1),
            width=1,
        )
        service.run_until_idle()
        status = service.status(record.job_id)
        assert status["state"] == "failed"
        assert "Unroutable" in status["error"]
        with pytest.raises(JobError):
            service.result(record.job_id)

    def test_deadline_maps_onto_pass_budget(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        record = service.submit(
            small_circuit, config=KMB, width=3, deadline_s=1e-9
        )
        service.run_until_idle()
        status = service.status(record.job_id)
        assert status["state"] == "failed"
        assert "Timeout" in status["error"]

    def test_cancel_queued_is_immediate(self, small_circuit, tmp_path):
        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, width=3)
        cancelled = service.cancel(record.job_id)
        assert cancelled.state == "cancelled"
        assert service.run_until_idle() == 0

    def test_cancel_claimed_job_is_honoured_at_run(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, width=3)
        claimed = service.supervisor.claim_next("w0")
        assert claimed.job_id == record.job_id
        service.cancel(record.job_id)  # running: cooperative
        assert service.status(record.job_id)["state"] == "running"
        service.supervisor.run_job(claimed, "w0")
        assert service.status(record.job_id)["state"] == "cancelled"

    def test_cancel_terminal_job_is_an_error(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, width=3)
        service.run_until_idle()
        with pytest.raises(JobError):
            service.cancel(record.job_id)


# ----------------------------------------------------------------------
# sweep jobs, the worker pool, and infrastructure retry
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_sweep_job_finds_minimum_width(
        self, small_circuit, tmp_path, reference
    ):
        # no width given: the job runs the paper's minimum-channel-width
        # sweep and lands on the same answer as the fixed-width run
        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, w_max=6)
        service.run_until_idle()
        status = service.status(record.job_id)
        assert status["state"] == "done"
        assert status["channel_width"] == reference.channel_width
        _assert_routes_identical(service.result(record.job_id), reference)

    def test_serve_pool_drains_queue_when_idle(
        self, small_circuit, tmp_path, reference
    ):
        service = RoutingService(str(tmp_path))
        for width in (3, 4, 5):
            service.submit(small_circuit, config=KMB, width=width)
        processed = service.serve(
            workers=2, exit_when_idle=True,
            install_signal_handlers=False,
        )
        assert processed == 3
        for record in service.jobs():
            assert record["state"] == "done"
            assert record["verified"] is True

    def test_drain_stops_claiming(self, small_circuit, tmp_path):
        service = RoutingService(str(tmp_path))
        service.submit(small_circuit, config=KMB, width=3)
        service.supervisor.request_drain()
        assert service.supervisor.claim_next("w0") is None
        assert service.run_until_idle() == 0

    def test_infrastructure_crash_is_retried_and_journaled(
        self, small_circuit, tmp_path, monkeypatch
    ):
        service = RoutingService(
            str(tmp_path),
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=0.0, max_delay_s=0.0
            ),
        )
        record = service.submit(small_circuit, config=KMB, width=3)
        original = type(service.supervisor)._attempt
        crashes = []

        def flaky(self, rec, worker):
            if not crashes:
                crashes.append(1)
                raise OSError("transient: disk fell over")
            return original(self, rec, worker)

        monkeypatch.setattr(type(service.supervisor), "_attempt", flaky)
        service.run_until_idle()
        status = service.status(record.job_id)
        assert status["state"] == "done"
        assert status["attempts"] == 2  # the retry was journaled
        assert any(r.startswith("retry:") for r in status["requeues"])

    def test_retry_exhaustion_fails_the_job(
        self, small_circuit, tmp_path, monkeypatch
    ):
        service = RoutingService(
            str(tmp_path),
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, max_delay_s=0.0
            ),
        )
        record = service.submit(small_circuit, config=KMB, width=3)

        def always_down(self, rec, worker):
            raise OSError("the disk is gone for good")

        monkeypatch.setattr(
            type(service.supervisor), "_attempt", always_down
        )
        service.run_until_idle()
        status = service.status(record.job_id)
        assert status["state"] == "failed"
        assert "crashed 2 time(s)" in status["error"]


# ----------------------------------------------------------------------
# idempotent result dedupe
# ----------------------------------------------------------------------
class TestDedupe:
    def test_identical_resubmit_served_from_cache(
        self, small_circuit, tmp_path, reference
    ):
        service = RoutingService(str(tmp_path))
        first = service.submit(small_circuit, config=KMB, width=3)
        service.run_until_idle()
        again = service.submit(small_circuit, config=KMB, width=3)
        # immediately done, no queue, no routing
        assert again.state == "done"
        assert again.deduped_from == first.job_id
        assert again.attempts == 0
        assert not os.path.exists(service.store.log_path(again.job_id))
        _assert_routes_identical(service.result(again.job_id), reference)

    def test_different_config_is_not_deduped(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        service.submit(small_circuit, config=KMB, width=3)
        service.run_until_idle()
        other = service.submit(
            small_circuit,
            config=RouterConfig(algorithm="ikmb"),
            width=3,
        )
        assert other.state == "queued"

    def test_fingerprint_ignores_execution_knobs(self, small_circuit):
        base = request_fingerprint(
            small_circuit, KMB, family="xc3000", width=3, w_max=40
        )
        astar = request_fingerprint(
            small_circuit,
            RouterConfig(algorithm="kmb", search="astar"),
            family="xc3000", width=3, w_max=40,
        )
        assert base == astar  # backends are bit-identical by contract
        other_width = request_fingerprint(
            small_circuit, KMB, family="xc3000", width=4, w_max=40
        )
        assert base != other_width

    def test_paper_mode_fingerprint_is_unchanged(self, small_circuit):
        # recorded before negotiate-mode requests bound `search`: stores
        # written then keep deduping paper-mode resubmissions
        assert request_fingerprint(
            small_circuit, KMB, family="xc3000", width=3, w_max=40
        ) == "a6d7a3ccd9fc257cb72d1b97a891221b6a024ee396a7b078b14ddb8894d486bc"

    def test_search_binds_negotiate_mode_dedupe(self, tmp_path):
        circuit = synthesize_circuit(NEGOTIATE_SPEC, seed=3)
        arch = xc3000(circuit.rows, circuit.cols, 3)
        astar = RouterConfig(mode="negotiate", search="astar")
        dijkstra = RouterConfig(mode="negotiate", search="dijkstra")
        direct = {
            cfg.search: RoutingSession(arch, cfg).route(circuit)
            for cfg in (astar, dijkstra)
        }
        # the two searches negotiate different trees, so one shared
        # answer would be wrong for one of them
        assert [_edge_set(r) for r in direct["astar"].routes] != [
            _edge_set(r) for r in direct["dijkstra"].routes
        ]
        service = RoutingService(str(tmp_path))
        first = service.submit(circuit, config=astar, width=3)
        assert service.run_until_idle() == 1
        other = service.submit(circuit, config=dijkstra, width=3)
        assert other.state == "queued" and other.deduped_from is None
        assert service.run_until_idle() == 1
        assert service.status(other.job_id)["state"] == "done"
        _assert_routes_identical(
            service.result(other.job_id), direct["dijkstra"]
        )
        _assert_routes_identical(
            service.result(first.job_id), direct["astar"]
        )
        again = service.submit(circuit, config=astar, width=3)
        assert again.state == "done" and again.deduped_from == first.job_id

    def test_queued_duplicate_adopts_result_at_claim(
        self, small_circuit, tmp_path, reference
    ):
        # both jobs enter the queue before either runs; the second is
        # served from the first one's verified result at claim time
        service = RoutingService(str(tmp_path))
        a = service.submit(small_circuit, config=KMB, width=3)
        b = service.submit(small_circuit, config=KMB, width=3)
        assert b.state == "queued"  # nothing cached yet
        service.run_until_idle()
        status = service.status(b.job_id)
        assert status["state"] == "done"
        assert status["deduped_from"] == a.job_id
        assert not os.path.exists(service.store.log_path(b.job_id))


# ----------------------------------------------------------------------
# the kill-anywhere crash matrix
# ----------------------------------------------------------------------
class TestCrashMatrix:
    @pytest.mark.parametrize("point", FAULT_POINTS)
    def test_kill_and_restart_reaches_verified_terminal(
        self, small_circuit, tmp_path, reference, point
    ):
        root = str(tmp_path / "store")
        record = RoutingService(root).submit(
            small_circuit, config=KMB, width=3
        )
        plan = FaultPlan(kill_at=point, state_dir=str(tmp_path / "f"))
        crashing = RoutingService(root, faults=plan)
        with pytest.raises(SimulatedCrash):
            crashing.run_until_idle()
        assert plan.fired(f"at-{point}") == 1
        # "restart": a fresh process would see exactly this disk state
        revived = RoutingService(root)
        revived.run_until_idle()
        status = revived.status(record.job_id)
        assert status["state"] in TERMINAL_STATES
        assert status["state"] == "done"
        assert status["verified"] is True
        _assert_routes_identical(revived.result(record.job_id), reference)
        # journal replay stays idempotent: reopening changes nothing
        again = RoutingService(root)
        assert not any(again.recovered.values())
        assert again.status(record.job_id) == status

    def test_kill_mid_route_resumes_from_checkpoint(
        self, small_circuit, tmp_path, reference
    ):
        root = str(tmp_path / "store")
        service = RoutingService(root)
        record = service.submit(small_circuit, config=KMB, width=3)
        claimed = service.supervisor.claim_next("w0")
        # arm the crash only now: the next journal append is the
        # running -> checkpointed transition, i.e. mid-negotiation
        # with a checkpoint already on disk
        plan = FaultPlan(
            kill_at="journal.append.post", state_dir=str(tmp_path / "f")
        )
        service.store.faults = plan
        service.store.journal.faults = plan
        with pytest.raises(SimulatedCrash):
            service.supervisor.run_job(claimed, "w0")
        assert os.path.exists(service.store.checkpoint_path(record.job_id))

        revived = RoutingService(root)
        assert record.job_id in revived.recovered["requeued"]
        revived.run_until_idle()
        status = revived.status(record.job_id)
        assert status["state"] == "done"
        assert status["resumes"] >= 1  # it picked up the checkpoint
        _assert_routes_identical(revived.result(record.job_id), reference)
        # the checkpoint was consumed by the successful finish
        assert not os.path.exists(
            revived.store.checkpoint_path(record.job_id)
        )

    def test_crash_between_result_write_and_done_adopts_result(
        self, small_circuit, tmp_path, reference
    ):
        # the result.write.post crash leaves result.json on disk with
        # the job still journaled running; recovery must adopt the
        # (re-verified) result instead of routing again
        root = str(tmp_path / "store")
        record = RoutingService(root).submit(
            small_circuit, config=KMB, width=3
        )
        plan = FaultPlan(
            kill_at="result.write.post", state_dir=str(tmp_path / "f")
        )
        with pytest.raises(SimulatedCrash):
            RoutingService(root, faults=plan).run_until_idle()
        revived = RoutingService(root)
        revived.run_until_idle()
        status = revived.status(record.job_id)
        assert status["state"] == "done" and status["verified"]
        _assert_routes_identical(revived.result(record.job_id), reference)

    def test_done_job_with_lost_result_is_rerouted(
        self, small_circuit, tmp_path, reference
    ):
        root = str(tmp_path / "store")
        service = RoutingService(root)
        record = service.submit(small_circuit, config=KMB, width=3)
        service.run_until_idle()
        os.unlink(service.store.result_path(record.job_id))
        revived = RoutingService(root)
        assert record.job_id in revived.recovered["result_lost"]
        revived.run_until_idle()
        assert revived.status(record.job_id)["state"] == "done"
        _assert_routes_identical(revived.result(record.job_id), reference)

    def test_orphan_request_directory_is_adopted(
        self, small_circuit, tmp_path, reference
    ):
        # a crash between the request.json write and the journal append
        # leaves a job directory the journal never heard of
        root = str(tmp_path / "store")
        service = RoutingService(root)
        record = service.submit(small_circuit, config=KMB, width=3)
        orphan = "job-000007"
        os.makedirs(service.store.job_dir(orphan))
        with open(service.store.request_path(record.job_id)) as fh:
            request = fh.read()
        with open(service.store.request_path(orphan), "w") as fh:
            fh.write(request)
        revived = RoutingService(root)
        assert orphan in revived.recovered["adopted"]
        revived.run_until_idle()
        assert revived.status(orphan)["state"] == "done"
        _assert_routes_identical(revived.result(orphan), reference)

    def test_stale_running_job_is_taken_over(
        self, small_circuit, tmp_path, reference
    ):
        root = str(tmp_path / "store")
        service = RoutingService(root)
        record = service.submit(small_circuit, config=KMB, width=3)
        service.supervisor.claim_next("w0")
        # a heartbeat from a process that no longer exists is stale
        # regardless of age
        with open(
            service.store.heartbeat_path(record.job_id), "w"
        ) as fh:
            json.dump(
                {"worker": "w0", "pid": 2 ** 22 + 12345,
                 "at": time.time()},
                fh,
            )
        assert service.supervisor.reclaim_stale() == 1
        assert service.status(record.job_id)["state"] == "queued"
        service.run_until_idle()
        assert service.status(record.job_id)["state"] == "done"
        _assert_routes_identical(service.result(record.job_id), reference)

    def test_missing_heartbeat_counts_as_stale(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, width=3)
        service.supervisor.claim_next("w0")
        os.unlink(service.store.heartbeat_path(record.job_id))
        assert service.supervisor.reclaim_stale() == 1

    def test_corrupt_checkpoint_never_wedges_a_job(
        self, small_circuit, tmp_path, reference
    ):
        root = str(tmp_path / "store")
        service = RoutingService(root)
        record = service.submit(small_circuit, config=KMB, width=3)
        with open(
            service.store.checkpoint_path(record.job_id), "w"
        ) as fh:
            fh.write("not a checkpoint")
        # recovery requires nothing; the claim path drops the damaged
        # file and routes from scratch
        service.run_until_idle()
        assert service.status(record.job_id)["state"] == "done"
        _assert_routes_identical(service.result(record.job_id), reference)


# ----------------------------------------------------------------------
# CLI + a real hard-kill (os._exit) smoke
# ----------------------------------------------------------------------
class TestCLI:
    def _submit(self, root, capsys):
        code = cli_main(
            ["jobs", "submit", "term1", "--root", root,
             "--algorithm", "kmb", "--fraction", "0.22", "--width", "3",
             "--family", "xc3000"]
        )
        assert code == 0
        return capsys.readouterr().out.split(":")[0].strip()

    def test_submit_serve_status_result(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        job = self._submit(root, capsys)
        assert cli_main(
            ["jobs", "serve", "--root", root, "--exit-when-idle"]
        ) == 0
        capsys.readouterr()
        assert cli_main(["jobs", "status", job, "--root", root]) == 0
        out = capsys.readouterr().out
        assert "state=done" in out and "verified=True" in out
        saved = str(tmp_path / "result.json")
        assert cli_main(
            ["jobs", "result", job, "--root", root, "--save", saved]
        ) == 0
        assert os.path.exists(saved)

    def test_cancel_and_status_all(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        job = self._submit(root, capsys)
        assert cli_main(["jobs", "cancel", job, "--root", root]) == 0
        out = capsys.readouterr().out
        assert "state=cancelled" in out
        assert cli_main(["jobs", "status", "--root", root]) == 0
        assert "cancelled" in capsys.readouterr().out

    def test_result_of_unfinished_job_exits_nonzero(
        self, tmp_path, capsys
    ):
        root = str(tmp_path / "store")
        job = self._submit(root, capsys)
        assert cli_main(["jobs", "result", job, "--root", root]) == 1

    def test_hard_kill_serve_recovers_in_subprocess(self, tmp_path):
        """The CI smoke contract, in miniature: SIGKILL-equivalent
        death mid-append, restart, every job reaches a verified
        terminal state."""
        root = str(tmp_path / "store")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + os.environ.get("PYTHONPATH", "").split(os.pathsep)
            ),
        )

        def run(*argv, faults=None):
            run_env = dict(env)
            run_env.pop("REPRO_FAULTS", None)
            if faults:
                run_env["REPRO_FAULTS"] = faults
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                env=run_env, capture_output=True, text=True,
                timeout=300,
            )

        for algo in ("kmb", "ikmb"):
            proc = run(
                "jobs", "submit", "term1", "--root", root,
                "--algorithm", algo, "--fraction", "0.22",
                "--width", "3", "--family", "xc3000",
            )
            assert proc.returncode == 0, proc.stderr
        crash = run(
            "jobs", "serve", "--root", root, "--exit-when-idle",
            faults=(
                f"kill_at=journal.append.post,kill_at_times=1,"
                f"dir={tmp_path / 'faults'}"
            ),
        )
        assert crash.returncode == 70, (crash.stdout, crash.stderr)
        revive = run("jobs", "serve", "--root", root, "--exit-when-idle")
        assert revive.returncode == 0, (revive.stdout, revive.stderr)
        status = run("jobs", "status", "--root", root)
        assert status.returncode == 0
        lines = [l for l in status.stdout.splitlines() if l.strip()]
        assert len(lines) == 2
        for line in lines:
            assert "state=done" in line and "verified=True" in line


# ----------------------------------------------------------------------
# multi-process safety: journal locking, read-only and no-recover opens
# ----------------------------------------------------------------------
class TestMultiProcess:
    def test_interleaved_appends_keep_the_chain_dense(self, tmp_path):
        # two Journal instances model two processes sharing one store:
        # each append resyncs under the flock, so concurrent writers
        # can never double-allocate a sequence number
        path = str(tmp_path / "j.jsonl")
        a = Journal(path)
        b = Journal(path)
        a.append({"type": "submitted", "job": "job-000001"})
        b.append({"type": "submitted", "job": "job-000002"})
        a.append({"type": "transition", "job": "job-000001",
                  "to": "running"})
        b.append({"type": "transition", "job": "job-000002",
                  "to": "running"})
        # read_journal raises JournalError on any seq gap or repeat
        events, durable = read_journal(path)
        assert len(events) == 4
        assert durable == os.path.getsize(path)
        # a's own appends resynced over b's; only b's last is unseen
        assert a.next_seq == 4
        assert a.refresh() == 1
        assert a.next_seq == b.next_seq == 5

    def test_refresh_folds_foreign_submissions(self, tmp_path):
        root = str(tmp_path / "store")
        a = JobStore(root)
        b = JobStore(root)
        ra = a.create_job({}, fingerprint="fa", tenant="t")
        assert b.refresh() == 1
        assert b.get(ra.job_id).state == "queued"
        rb = b.create_job({}, fingerprint="fb", tenant="t")
        assert rb.job_id != ra.job_id  # id allocation saw the foreign job
        a.refresh()
        assert a.get(rb.job_id).state == "queued"

    def test_readonly_open_never_writes(self, small_circuit, tmp_path):
        root = str(tmp_path / "store")
        service = RoutingService(root)
        record = service.submit(small_circuit, config=KMB, width=3)
        service.supervisor.claim_next("w0")  # live server owns the job
        ro = RoutingService(root, readonly=True)
        # inspection sees the claim but must not requeue it
        assert ro.status(record.job_id)["state"] == "running"
        assert ro.recovered == {}
        with pytest.raises(ServiceError):
            ro.store.commit(
                {"type": "cancel_requested", "job": record.job_id}
            )
        with pytest.raises(ServiceError):
            ro.store.reconcile()
        assert service.status(record.job_id)["state"] == "running"

    def test_no_recover_open_leaves_running_jobs_alone(
        self, small_circuit, tmp_path
    ):
        root = str(tmp_path / "store")
        service = RoutingService(root)
        record = service.submit(small_circuit, config=KMB, width=3)
        service.supervisor.claim_next("w0")
        client = RoutingService(root, recover=False)
        assert client.recovered == {}
        assert client.status(record.job_id)["state"] == "running"
        # submitting through the second opener is safe and visible to
        # the first at its next poll
        dup = client.submit(small_circuit, config=KMB, width=4)
        assert service.status(dup.job_id)["state"] == "queued"

    def test_server_sees_cross_process_submit_and_cancel(
        self, small_circuit, tmp_path
    ):
        root = str(tmp_path / "store")
        server = RoutingService(root)
        client = RoutingService(root, recover=False)
        record = client.submit(small_circuit, config=KMB, width=3)
        client.cancel(record.job_id)
        # the server folds both foreign events at its next claim poll
        assert server.run_until_idle() == 0
        assert server.status(record.job_id)["state"] == "cancelled"


# ----------------------------------------------------------------------
# worker robustness: job-scoped failures never kill the pool
# ----------------------------------------------------------------------
class TestWorkerRobustness:
    def test_unreadable_request_fails_the_job_not_the_worker(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, width=3)
        with open(
            service.store.request_path(record.job_id), "w"
        ) as fh:
            fh.write("not json {")
        assert service.run_until_idle() == 1  # no exception escapes
        status = service.status(record.job_id)
        assert status["state"] == "failed"
        assert "ServiceError" in status["error"]

    def test_poison_job_does_not_stall_the_queue(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        bad = service.submit(small_circuit, config=KMB, width=3)
        good = service.submit(small_circuit, config=KMB, width=4)
        with open(service.store.request_path(bad.job_id), "w") as fh:
            fh.write("garbage")
        processed = service.serve(
            workers=1, exit_when_idle=True,
            install_signal_handlers=False,
        )
        assert processed == 2
        assert service.status(bad.job_id)["state"] == "failed"
        assert service.status(good.job_id)["state"] == "done"

    def test_escaped_exception_does_not_kill_worker_thread(
        self, small_circuit, tmp_path, monkeypatch
    ):
        # even an error run_job cannot handle (a damaged store raising
        # JournalError mid-finish) must not take down the worker thread
        # and with it the whole pool
        service = RoutingService(str(tmp_path))
        a = service.submit(small_circuit, config=KMB, width=3)
        b = service.submit(small_circuit, config=KMB, width=4)
        original = type(service.supervisor).run_job
        blown = []

        def explosive(self, record, worker):
            if record.job_id == a.job_id and not blown:
                blown.append(1)
                raise JournalError("store damaged mid-finish")
            return original(self, record, worker)

        monkeypatch.setattr(
            type(service.supervisor), "run_job", explosive
        )
        processed = service.serve(
            workers=1, exit_when_idle=True,
            install_signal_handlers=False,
        )
        assert processed == 2  # the thread survived job a's explosion
        assert service.status(b.job_id)["state"] == "done"


# ----------------------------------------------------------------------
# ownership fencing and timer heartbeats
# ----------------------------------------------------------------------
class TestFencing:
    def test_superseded_completion_is_discarded(
        self, small_circuit, tmp_path, reference
    ):
        from repro.fpga.architecture import xc3000

        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, width=3)
        stale_claim = service.supervisor.claim_next("w0")
        token = stale_claim.attempts
        # stale takeover: the job is requeued and claimed by w1
        service.store.requeue(record.job_id, "stale_takeover")
        service.supervisor.claim_next("w1")
        # the original worker limps back with a finished (verified!)
        # result — it must be discarded, not journaled over w1's claim
        out = service.supervisor._finish(
            stale_claim, small_circuit, KMB, xc3000, reference, None,
            token,
        )
        assert out.state == "running" and out.attempts == 2
        assert service.status(record.job_id)["state"] == "running"
        assert not os.path.exists(
            service.store.result_path(record.job_id)
        )
        # the live claim still finishes normally
        service.supervisor.run_job(
            service.store.get(record.job_id), "w1"
        )
        status = service.status(record.job_id)
        assert status["state"] == "done" and status["attempts"] == 2

    def test_superseded_failure_is_discarded(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        record = service.submit(small_circuit, config=KMB, width=3)
        stale_claim = service.supervisor.claim_next("w0")
        token = stale_claim.attempts
        service.store.requeue(record.job_id, "stale_takeover")
        service.supervisor.claim_next("w1")
        out = service.supervisor._fail_fenced(
            record.job_id, token, "late crash report"
        )
        assert out.state == "running"  # w1's claim, not "failed"
        assert service.status(record.job_id)["state"] == "running"

    def test_heartbeat_pump_keeps_long_route_fresh(
        self, small_circuit, tmp_path
    ):
        # a single routing pass longer than stale_after_s used to look
        # abandoned (heartbeats only came from trace events) and get
        # taken over mid-route
        service = RoutingService(str(tmp_path), stale_after_s=0.4)
        record = service.submit(small_circuit, config=KMB, width=3)
        service.supervisor.claim_next("w0")
        with service.supervisor._heartbeat_pump(
            record.job_id, "w0", interval=0.05
        ):
            time.sleep(0.6)  # no trace events in this window
            assert not service.store.stale(record.job_id, 0.4)
            assert service.supervisor.reclaim_stale() == 0
        time.sleep(0.6)  # pump stopped: silence is stale again
        assert service.store.stale(record.job_id, 0.4)


# ----------------------------------------------------------------------
# job ids past six digits
# ----------------------------------------------------------------------
class TestJobIdWidth:
    def test_job_ids_widen_past_six_digits(self, tmp_path):
        store = JobStore(str(tmp_path / "store"))
        os.makedirs(store.job_dir("job-999999"))
        assert store.next_job_id() == "job-1000000"
        # the wider id must round-trip through the scan instead of
        # being re-minted (which silently overwrote the existing job)
        os.makedirs(store.job_dir("job-1000000"))
        assert store.next_job_id() == "job-1000001"


# ----------------------------------------------------------------------
# submit-time dedupe re-verification
# ----------------------------------------------------------------------
class TestSubmitDedupeVerification:
    def test_damaged_donor_result_falls_back_to_queue(
        self, small_circuit, tmp_path, reference
    ):
        service = RoutingService(str(tmp_path))
        first = service.submit(small_circuit, config=KMB, width=3)
        service.run_until_idle()
        with open(
            service.store.result_path(first.job_id), "w"
        ) as fh:
            fh.write("{ damaged")
        again = service.submit(small_circuit, config=KMB, width=3)
        assert again.state == "queued"  # no error, no bogus adoption
        service.run_until_idle()
        assert service.status(again.job_id)["state"] == "done"
        _assert_routes_identical(service.result(again.job_id), reference)

    def test_tampered_donor_result_is_reverified_at_submit(
        self, small_circuit, tmp_path
    ):
        service = RoutingService(str(tmp_path))
        first = service.submit(small_circuit, config=KMB, width=3)
        service.run_until_idle()
        path = service.store.result_path(first.job_id)
        with open(path) as fh:
            doc = json.load(fh)
        # parses fine, but the checker recomputes wirelength from the
        # node structure and catches the lie
        doc["routes"][0]["wirelength"] = 0.5
        with open(path, "w") as fh:
            json.dump(doc, fh)
        again = service.submit(small_circuit, config=KMB, width=3)
        assert again.state == "queued"
