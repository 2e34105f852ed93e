"""Tests for the service's HTTP front end, client, and its new
scheduling/eviction machinery.

Four contracts under test:

* **wire fidelity** — everything the filesystem service offers works
  identically over a socket: typed errors round-trip, results verify,
  dedupe serves cached answers, and the client never touches the
  store's directory;
* **streaming** — SSE progress events have dense ids, resume exactly
  with ``Last-Event-ID``, and end with one terminal ``state`` event;
* **scheduling** — per-tenant priorities order claims (higher first),
  and the ordering survives a restart because the priority rides in
  the journaled submission;
* **bounded results** — the LRU eviction sweep keeps the result cache
  under its caps, pins donors of active jobs, journals before it
  unlinks, and never turns an evicted result into a requeue.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    AdmissionError,
    FormatError,
    JobError,
    JobFailedError,
    ServiceError,
    UnknownJobError,
)
from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit
from repro.io import result_to_dict
from repro.router import RouterConfig
from repro.service import (
    AdmissionPolicy,
    BackgroundServer,
    EvictionPolicy,
    JobStore,
    RoutingService,
    ServiceClient,
    TransportError,
    read_journal,
    request_fingerprint,
)
from repro.service.client import exception_from_document

KMB = RouterConfig(algorithm="kmb")


@pytest.fixture(scope="module")
def small_circuit():
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    return synthesize_circuit(spec, seed=1)


@pytest.fixture(scope="module")
def other_circuit():
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    return synthesize_circuit(spec, seed=2)


@pytest.fixture(scope="module")
def reference(small_circuit, tmp_path_factory):
    """The filesystem-service answer the HTTP path must match."""
    root = tmp_path_factory.mktemp("http-reference")
    service = RoutingService(str(root))
    record = service.submit(small_circuit, config=KMB, width=3)
    assert service.run_until_idle() == 1
    return service.result(record.job_id)


class _Server:
    """A served RoutingService + client, with an on-demand worker."""

    def __init__(self, root, **service_kwargs):
        self.service = RoutingService(str(root), **service_kwargs)
        self.background = BackgroundServer(self.service)
        host, port = self.background.start()
        self.url = f"http://{host}:{port}"
        self.client = ServiceClient(self.url, backoff_s=0.05)

    def drain(self) -> int:
        return self.service.run_until_idle()

    def close(self) -> None:
        self.background.stop()


@pytest.fixture
def server(tmp_path):
    srv = _Server(tmp_path / "store")
    yield srv
    srv.close()


# ----------------------------------------------------------------------
# wire fidelity: endpoints, typed errors, dedupe — zero client fs access
# ----------------------------------------------------------------------
class TestWire:
    def test_healthz_and_version(self, server):
        doc = server.client.healthz()
        assert doc["ok"] is True
        assert doc["api_version"] == 1
        assert doc["store"] == server.service.store.root

    def test_submit_route_result_roundtrip(
        self, server, small_circuit, reference
    ):
        record = server.client.submit(
            small_circuit, config=KMB, width=3, tenant="acme"
        )
        assert record["state"] == "queued"
        assert record["tenant"] == "acme"
        assert server.drain() == 1
        final = server.client.wait(record["job_id"], timeout_s=60)
        assert final["state"] == "done" and final["verified"] is True
        result = server.client.result(record["job_id"])
        # the wire adds nothing and loses nothing: bit-identical to the
        # filesystem service's answer for the same request
        assert result_to_dict(result) == result_to_dict(reference)

    def test_submit_accepts_plain_dicts(self, server, small_circuit):
        from repro.io import circuit_to_dict
        from repro.service import config_to_dict

        record = server.client.submit(
            circuit_to_dict(small_circuit),
            config=config_to_dict(KMB),
            width=3,
        )
        assert record["state"] == "queued"

    def test_config_with_legacy_graph_backend_is_accepted(
        self, server, small_circuit, reference
    ):
        # clients of older versions post every RouterConfig field,
        # including the removed ``graph_backend``
        from repro.io import circuit_to_dict
        from repro.service import config_to_dict

        config = dict(config_to_dict(KMB), graph_backend="dict")
        record = server.client.submit(
            circuit_to_dict(small_circuit), config=config, width=3
        )
        assert record["state"] == "queued"
        assert server.drain() == 1
        final = server.client.wait(record["job_id"], timeout_s=60)
        assert final["state"] == "done" and final["verified"] is True
        result = server.client.result(record["job_id"])
        assert result_to_dict(result) == result_to_dict(reference)

    def test_dedupe_over_the_wire(self, server, small_circuit):
        first = server.client.submit(small_circuit, config=KMB, width=3)
        assert server.drain() == 1
        again = server.client.submit(small_circuit, config=KMB, width=3)
        assert again["state"] == "done"
        assert again["deduped_from"] == first["job_id"]
        assert server.client.metrics()["dedupe_hits"] == 1

    def test_cancel_queued_job(self, server, small_circuit):
        record = server.client.submit(small_circuit, config=KMB, width=3)
        cancelled = server.client.cancel(record["job_id"])
        assert cancelled["state"] == "cancelled"

    def test_jobs_listing_matches_store(self, server, small_circuit):
        server.client.submit(small_circuit, config=KMB, width=3)
        listed = server.client.jobs()
        assert [r["job_id"] for r in listed] == [
            r.job_id for r in server.service.store.records()
        ]

    def test_unknown_job_is_a_typed_404(self, server):
        with pytest.raises(UnknownJobError):
            server.client.status("job-999999")
        with pytest.raises(UnknownJobError):
            server.client.result("job-999999")
        with pytest.raises(UnknownJobError):
            server.client.cancel("job-999999")

    def test_admission_error_round_trips_with_code(
        self, server, small_circuit, other_circuit, tmp_path
    ):
        capped = _Server(
            tmp_path / "capped",
            policy=AdmissionPolicy(max_jobs_per_tenant=1),
        )
        try:
            capped.client.submit(small_circuit, config=KMB, width=3)
            with pytest.raises(AdmissionError) as info:
                capped.client.submit(other_circuit, config=KMB, width=3)
            assert info.value.code == "TENANT_LIMIT"
        finally:
            capped.close()

    def test_failed_job_result_carries_the_failure_record(
        self, server, small_circuit
    ):
        # width 1 is hopeless for this circuit: the job fails terminally
        record = server.client.submit(
            small_circuit, config=KMB, width=1
        )
        server.drain()
        final = server.client.wait(record["job_id"], timeout_s=60)
        assert final["state"] == "failed"
        with pytest.raises(JobFailedError) as info:
            server.client.result(record["job_id"])
        assert info.value.job_id == record["job_id"]
        assert "UnroutableError" in (info.value.failure or "")
        assert info.value.record["state"] == "failed"
        assert info.value.record["attempts"] >= 1

    def test_malformed_bodies_are_400s(self, server):
        conn = http.client.HTTPConnection(
            server.client.host, server.client.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/v1/jobs", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 400
            assert doc["error"]["type"] == "FormatError"
        finally:
            conn.close()
        with pytest.raises(FormatError):
            server.client._request("POST", "/v1/jobs", {"nets": []})

    def test_unknown_paths_and_methods(self, server):
        for method, path, expected in (
            ("GET", "/v1/nope", 404),
            ("GET", "/other", 404),
            ("PUT", "/v1/jobs", 405),
        ):
            conn = http.client.HTTPConnection(
                server.client.host, server.client.port, timeout=10
            )
            try:
                conn.request(method, path)
                assert conn.getresponse().status == expected
            finally:
                conn.close()

    def test_metrics_shape(self, server, small_circuit):
        record = server.client.submit(
            small_circuit, config=KMB, width=3, tenant="acme"
        )
        doc = server.client.metrics()
        assert doc["jobs_total"] == 1
        assert doc["queue_depth"] == 1
        assert doc["states"] == {"queued": 1}
        assert doc["tenants"]["acme"] == {"active": 1, "total": 1}
        assert doc["journal"]["size_bytes"] > 0
        assert doc["results"] == {
            "count": 0, "bytes": 0, "evicted_total": 0,
        }
        server.drain()
        server.client.wait(record["job_id"], timeout_s=60)
        doc = server.client.metrics()
        assert doc["states"] == {"done": 1}
        assert doc["results"]["count"] == 1
        assert doc["results"]["bytes"] > 0

    def test_client_retries_transient_failures(self, server):
        # a dead port refuses: the client must give up with a typed
        # transport error after its bounded retries, not an OSError
        client = ServiceClient(
            "http://127.0.0.1:1", retries=1, backoff_s=0.01
        )
        with pytest.raises(TransportError):
            client.healthz()

    def test_exception_reconstruction_degrades_safely(self):
        exc = exception_from_document({"error": {"type": "KeyError",
                                                 "message": "x"}}, 500)
        assert isinstance(exc, ServiceError)
        exc = exception_from_document({"not": "an error"}, 500)
        assert isinstance(exc, ServiceError)
        exc = exception_from_document(
            {"error": {"type": "AdmissionError", "message": "full",
                       "code": "QUEUE_FULL"}}, 429,
        )
        assert isinstance(exc, AdmissionError)
        assert exc.code == "QUEUE_FULL"


# ----------------------------------------------------------------------
# SSE progress streaming: dense ids, exact resume, terminal close
# ----------------------------------------------------------------------
class TestEvents:
    def _route_with_stream(self, server, circuit, **kwargs):
        record = server.client.submit(circuit, config=KMB, **kwargs)
        worker = threading.Thread(target=server.drain, daemon=True)
        worker.start()
        events = list(server.client.events(record["job_id"]))
        worker.join(timeout=60)
        return record, events

    def test_stream_is_dense_and_terminal(self, server, small_circuit):
        record, events = self._route_with_stream(
            server, small_circuit, width=3
        )
        kinds = [e for e, _, _ in events]
        assert kinds[-1] == "state"
        traces = [(d, i) for e, d, i in events if e == "trace"]
        assert traces, "a routed job must stream trace events"
        # ids are the 1-based log line numbers: dense, no gaps
        assert [i for _, i in traces] == list(
            range(1, len(traces) + 1)
        )
        # each line is one live engine event (pass summary, checkpoint,
        # heartbeat, ...) — typed JSON, not raw text
        for doc, _ in traces:
            assert isinstance(doc, dict) and "type" in doc
        assert any(d["type"] == "pass" for d, _ in traces)
        final = events[-1][1]
        assert final["state"] == "done"
        assert final["job_id"] == record["job_id"]

    def test_resume_with_last_event_id(self, server, small_circuit):
        record, events = self._route_with_stream(
            server, small_circuit, width=3
        )
        traces = [(d, i) for e, d, i in events if e == "trace"]
        cut = len(traces) // 2
        assert cut >= 1
        resumed = list(
            server.client.events(record["job_id"], last_event_id=cut)
        )
        resumed_traces = [(d, i) for e, d, i in resumed if e == "trace"]
        # exactly the tail: no replays, no gaps, same payloads
        assert [i for _, i in resumed_traces] == [
            i for _, i in traces[cut:]
        ]
        assert [d for d, _ in resumed_traces] == [
            d for d, _ in traces[cut:]
        ]
        assert resumed[-1][0] == "state"

    def test_resume_via_query_parameter(self, server, small_circuit):
        record, events = self._route_with_stream(
            server, small_circuit, width=3
        )
        total = max(i for _, _, i in events)
        conn = http.client.HTTPConnection(
            server.client.host, server.client.port, timeout=10
        )
        try:
            conn.request(
                "GET",
                f"/v1/jobs/{record['job_id']}/events"
                f"?last_event_id={total}",
            )
            body = conn.getresponse().read().decode()
        finally:
            conn.close()
        # everything already seen: only the terminal state event left
        assert "event: trace" not in body
        assert "event: state" in body

    def test_stream_for_unknown_job_is_404(self, server):
        with pytest.raises(UnknownJobError):
            next(iter(server.client.events("job-424242")))

    def test_stream_of_finished_job_replays_full_log(
        self, server, small_circuit
    ):
        record = server.client.submit(small_circuit, config=KMB, width=3)
        server.drain()
        server.client.wait(record["job_id"], timeout_s=60)
        events = list(server.client.events(record["job_id"]))
        assert [e for e, _, _ in events][-1] == "state"
        assert any(e == "trace" for e, _, _ in events)


# ----------------------------------------------------------------------
# scheduling: priorities order claims and survive restart
# ----------------------------------------------------------------------
class TestPriorities:
    def test_policy_priority_resolution(self):
        policy = AdmissionPolicy(
            tenant_priorities={"gold": 10, "free": -5}
        )
        assert policy.priority_for("gold") == 10
        assert policy.priority_for("free") == -5
        assert policy.priority_for("other") == 0
        assert policy.priority_for("free", 99) == 99  # explicit wins

    def test_tenant_priorities_must_be_integers(self):
        with pytest.raises(ServiceError):
            AdmissionPolicy(tenant_priorities={"t": "high"})
        with pytest.raises(ServiceError):
            AdmissionPolicy(tenant_priorities={"t": True})

    def _submit_three(self, service, circuit):
        """free, default, gold — submitted in *reverse* priority."""
        jobs = {}
        for seed, tenant in ((3, "free"), (4, "default"), (5, "gold")):
            spec = scaled_spec(circuit_spec("term1"), 0.22)
            distinct = synthesize_circuit(spec, seed=seed)
            jobs[tenant] = service.submit(
                distinct, config=KMB, width=3, tenant=tenant
            ).job_id
        return jobs

    def test_claims_follow_priority_not_submission_order(
        self, tmp_path, small_circuit
    ):
        service = RoutingService(
            str(tmp_path / "store"),
            policy=AdmissionPolicy(
                tenant_priorities={"gold": 10, "free": -5}
            ),
        )
        jobs = self._submit_three(service, small_circuit)
        order = []
        while True:
            claimed = service.supervisor.claim_next("w0")
            if claimed is None:
                break
            order.append(claimed.job_id)
            service.store.finish_failed(claimed.job_id, "drained")
        assert order == [jobs["gold"], jobs["default"], jobs["free"]]

    def test_priority_ordering_survives_restart(
        self, tmp_path, small_circuit
    ):
        root = str(tmp_path / "store")
        service = RoutingService(
            root,
            policy=AdmissionPolicy(
                tenant_priorities={"gold": 10, "free": -5}
            ),
        )
        jobs = self._submit_three(service, small_circuit)
        # a fresh open (journal replay, default policy) still claims by
        # the *journaled* priorities — scheduling is durable state, not
        # server configuration
        reopened = RoutingService(root)
        assert [r.priority for r in reopened.store.records()] == [
            -5, 0, 10,
        ]
        claimed = reopened.supervisor.claim_next("w0")
        assert claimed is not None and claimed.job_id == jobs["gold"]

    def test_explicit_priority_rides_the_submission(
        self, server, small_circuit
    ):
        record = server.client.submit(
            small_circuit, config=KMB, width=3, priority=42
        )
        assert record["priority"] == 42
        assert server.client.status(record["job_id"])["priority"] == 42


# ----------------------------------------------------------------------
# bounded result cache: LRU eviction, pinning, crash safety
# ----------------------------------------------------------------------
class TestEviction:
    def _route_two(self, service, small_circuit, other_circuit):
        a = service.submit(small_circuit, config=KMB, width=3)
        b = service.submit(other_circuit, config=KMB, width=3)
        assert service.run_until_idle() == 2
        return a.job_id, b.job_id

    def test_count_cap_evicts_least_recently_served(
        self, tmp_path, small_circuit, other_circuit
    ):
        service = RoutingService(
            str(tmp_path / "store"),
            eviction=EvictionPolicy(max_results=1),
        )
        job_a, job_b = self._route_two(
            service, small_circuit, other_circuit
        )
        # the post-completion sweep already ran: one result survived
        evicted = [
            r.job_id for r in service.store.records() if r.result_evicted
        ]
        assert evicted == [job_a]
        assert not os.path.exists(service.store.result_path(job_a))
        assert os.path.exists(service.store.result_path(job_b))
        with pytest.raises(JobError, match="evicted"):
            service.result(job_a)
        assert service.result(job_b) is not None
        assert service.metrics()["results"] == {
            "count": 1,
            "bytes": os.path.getsize(service.store.result_path(job_b)),
            "evicted_total": 1,
        }

    def test_byte_cap_and_serving_refreshes_recency(
        self, tmp_path, small_circuit, other_circuit
    ):
        service = RoutingService(str(tmp_path / "store"))
        job_a, job_b = self._route_two(
            service, small_circuit, other_circuit
        )
        # a dedupe hit *serves* job_a's result, refreshing its recency;
        # the adopting job also gets its own result file
        served = service.submit(small_circuit, config=KMB, width=3)
        assert served.deduped_from == job_a
        # a one-byte cap evicts everything, but in LRU order: job_b
        # (finished second, never served again) goes before job_a,
        # whose recency the dedupe hit just refreshed
        service.eviction = EvictionPolicy(max_result_bytes=1)
        evicted = service.evict_results()
        assert set(evicted) == {job_a, job_b, served.job_id}
        assert evicted.index(job_b) < evicted.index(job_a)

    def test_eviction_never_requeues_on_restart(
        self, tmp_path, small_circuit, other_circuit
    ):
        root = str(tmp_path / "store")
        service = RoutingService(
            root, eviction=EvictionPolicy(max_results=1)
        )
        job_a, _ = self._route_two(service, small_circuit, other_circuit)
        reopened = RoutingService(root)  # full recovery scan
        record = reopened.store.get(job_a)
        assert record.state == "done" and record.result_evicted
        assert reopened.recovered.get("result_lost", []) == []
        assert reopened.recovered.get("requeued", []) == []

    def test_reconcile_completes_interrupted_eviction(
        self, tmp_path, small_circuit
    ):
        root = str(tmp_path / "store")
        service = RoutingService(root)
        record = service.submit(small_circuit, config=KMB, width=3)
        assert service.run_until_idle() == 1
        # a crash after the journal append but before the unlink: the
        # intent is durable, the file is still there
        service.store.journal.append(
            {"type": "result_evicted", "job": record.job_id}
        )
        assert os.path.exists(service.store.result_path(record.job_id))
        reopened = RoutingService(root)
        assert record.job_id in reopened.recovered["eviction_completed"]
        assert not os.path.exists(
            reopened.store.result_path(record.job_id)
        )
        assert reopened.store.get(record.job_id).state == "done"

    def test_active_jobs_pin_their_donor(self, tmp_path, small_circuit):
        service = RoutingService(str(tmp_path / "store"))
        done = service.submit(small_circuit, config=KMB, width=3)
        assert service.run_until_idle() == 1
        # a queued job sharing the fingerprint (store-level enqueue
        # models a submit that raced the donor's completion): eviction
        # must skip the donor or the waiter re-routes for nothing
        fingerprint = service.store.get(done.job_id).fingerprint
        pinned_waiter = service.store.create_job(
            {"tenant": "t"}, fingerprint=fingerprint, tenant="t"
        )
        policy = EvictionPolicy(max_result_bytes=1)
        assert policy.sweep(service.store) == []
        assert os.path.exists(service.store.result_path(done.job_id))
        # once the waiter is gone the pin lifts
        service.store.transition(pinned_waiter.job_id, "cancelled")
        assert policy.sweep(service.store) == [done.job_id]

    def test_evicted_fingerprint_routes_again(
        self, tmp_path, small_circuit
    ):
        service = RoutingService(
            str(tmp_path / "store"),
            eviction=EvictionPolicy(max_results=1),
        )
        record = service.submit(small_circuit, config=KMB, width=3)
        assert service.run_until_idle() == 1
        service.store.evict_result(record.job_id)
        again = service.submit(small_circuit, config=KMB, width=3)
        assert again.state == "queued"  # no donor file: no adoption
        assert service.run_until_idle() == 1
        assert service.result(again.job_id) is not None

    def test_policy_validation(self):
        with pytest.raises(ServiceError):
            EvictionPolicy(max_results=0)
        with pytest.raises(ServiceError):
            EvictionPolicy(max_result_bytes=-1)
        assert EvictionPolicy().bounded is False


# ----------------------------------------------------------------------
# multi-process: the submit storm and the SIGKILL'd HTTP server
# ----------------------------------------------------------------------
_STORM_SCRIPT = """
import json, sys
from repro.errors import AdmissionError
from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit
from repro.router import RouterConfig
from repro.service import AdmissionPolicy, RoutingService

root, worker, attempts, cap = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)
service = RoutingService(
    root, recover=False,
    policy=AdmissionPolicy(max_jobs_per_tenant=cap, max_queue_depth=1000),
)
tenant = f"tenant-{worker % 2}"
accepted, refused = [], 0
for attempt in range(attempts):
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    circuit = synthesize_circuit(spec, seed=1000 + worker * 100 + attempt)
    try:
        record = service.submit(
            circuit, config=RouterConfig(algorithm="kmb"), width=3,
            tenant=tenant,
        )
        accepted.append(record.job_id)
    except AdmissionError:
        refused += 1
print(json.dumps(
    {"tenant": tenant, "accepted": accepted, "refused": refused}
))
"""


def _src_env():
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        ),
    )


class TestMultiProcessStorm:
    def test_concurrent_submitters_keep_the_store_consistent(
        self, tmp_path
    ):
        """Four submitter processes, two tenants, a cap of five: the
        journal chain stays dense, no accepted job is lost, and no
        tenant exceeds its cap even with check/append races."""
        root = str(tmp_path / "store")
        RoutingService(root)  # pre-create so workers race only on jobs
        workers, attempts, cap = 4, 4, 5
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _STORM_SCRIPT,
                 root, str(i), str(attempts), str(cap)],
                env=_src_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            for i in range(workers)
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            reports.append(json.loads(out))

        # dense journal: read_journal raises on any gap or repeat
        events, _ = read_journal(os.path.join(root, "journal.jsonl"))
        accepted = [j for r in reports for j in r["accepted"]]
        assert len(set(accepted)) == len(accepted), "duplicate job ids"

        store = JobStore(root)
        # no lost jobs: every acked submission is a queued record
        for job_id in accepted:
            assert store.get(job_id).state == "queued"
        assert len(store.records()) == len(accepted)

        # per-tenant caps held under contention (the flock spans the
        # admission check and the enqueue append)
        per_tenant = {}
        for record in store.records():
            per_tenant[record.tenant] = per_tenant.get(record.tenant, 0) + 1
        assert per_tenant, "storm accepted nothing"
        for tenant, count in per_tenant.items():
            assert count <= cap, f"{tenant} over cap: {count} > {cap}"
        # both tenants were driven over their cap: refusals must exist
        assert sum(r["refused"] for r in reports) == (
            workers * attempts - len(accepted)
        )
        assert sum(r["refused"] for r in reports) > 0


class TestServerKill:
    def test_sigkill_mid_stream_then_restart_finishes_the_job(
        self, tmp_path
    ):
        """The CI smoke contract: a SIGKILL'd HTTP server loses no
        durable state — after restart the interrupted job finishes,
        checker-verified, and the SSE stream resumes by id."""
        root = str(tmp_path / "store")
        env = _src_env()

        def start_server(faults=None):
            run_env = dict(env)
            run_env.pop("REPRO_FAULTS", None)
            if faults:
                run_env["REPRO_FAULTS"] = faults
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "jobs", "serve",
                 "--root", root, "--http", "127.0.0.1:0"],
                env=run_env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
            )
            for line in proc.stdout:
                if line.startswith("http: listening on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    return proc, f"http://{host}:{int(port)}"
            raise AssertionError(
                f"server died before binding: {proc.stdout.read()}"
            )

        # fault: hard-exit (os._exit(70)) at the first result write —
        # mid-job, after trace events have streamed
        proc, url = start_server(
            faults=f"kill_at=result.write.pre,kill_at_times=1,"
                   f"dir={tmp_path / 'faults'}"
        )
        try:
            client = ServiceClient(url, retries=2, backoff_s=0.05)
            record = client.submit(
                json.loads(_TINY_CIRCUIT),
                config={"algorithm": "kmb"},
                width=3, family="xc3000",
            )
            # stream until the server dies under us (clean EOF or a
            # reset, depending on kernel timing — both are "dropped")
            seen = 0
            terminal = False
            try:
                for event, doc, event_id in client.events(
                    record["job_id"], reconnect=False
                ):
                    seen = max(seen, event_id)
                    terminal = terminal or event == "state"
            except (TransportError, OSError):
                pass
            assert not terminal, "job finished despite the kill fault"
            assert proc.wait(timeout=120) == 70  # the hard-exit code
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        proc, url = start_server()
        try:
            client = ServiceClient(url, retries=3, backoff_s=0.1)
            final = client.wait(record["job_id"], timeout_s=120)
            assert final["state"] == "done"
            assert final["verified"] is True
            result = client.result(record["job_id"])
            assert result.channel_width == 3
            # the resumed stream starts exactly after the pre-kill tail
            events = list(
                client.events(record["job_id"], last_event_id=seen)
            )
            ids = [i for e, _, i in events if e == "trace"]
            assert ids == list(range(seen + 1, seen + 1 + len(ids)))
            assert events[-1][0] == "state"
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _make_tiny_circuit_json():
    from repro.io import circuit_to_dict

    spec = scaled_spec(circuit_spec("term1"), 0.22)
    doc = circuit_to_dict(synthesize_circuit(spec, seed=1))
    return json.dumps(doc)


_TINY_CIRCUIT = _make_tiny_circuit_json()
