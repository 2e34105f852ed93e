"""Commit wake-ups: idle workers and SSE tails wake on commits.

An idle worker waits on a condition that submits, requeues and drains
notify; an SSE tail waits on an event that a journal commit for its job
sets.  ``poll_s`` / ``sse_poll_s`` only bound how late a change made by
another process is seen, so every test here sets them to 30 s and still
expects an answer within 10 s.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
import time
from collections import Counter

import pytest

from repro.fpga import circuit_spec, scaled_spec, synthesize_circuit
from repro.router import RouterConfig
from repro.service import (
    AdmissionPolicy,
    BackgroundServer,
    JobStore,
    RoutingService,
    ServiceClient,
    read_journal,
)
from repro.service.store import TERMINAL_STATES

KMB = RouterConfig(algorithm="kmb")

#: far longer than any test may take: only a wake-up can answer in time
LONG_POLL_S = 30.0
#: how long a woken waiter may take (a small route included)
ANSWER_S = 10.0


@pytest.fixture(scope="module")
def small_circuit():
    spec = scaled_spec(circuit_spec("term1"), 0.22)
    return synthesize_circuit(spec, seed=1)


class _Pool:
    """``RoutingService.serve`` on a background thread."""

    def __init__(self, service, workers=1):
        self.service = service
        self.thread = threading.Thread(
            target=service.serve,
            kwargs={"workers": workers, "poll_s": LONG_POLL_S,
                    "install_signal_handlers": False},
            daemon=True,
        )
        self.thread.start()
        # let the workers make their first (empty) scan and go idle
        time.sleep(0.5)

    def stop(self):
        self.service.supervisor.request_drain()
        self.thread.join(timeout=ANSWER_S)
        return not self.thread.is_alive()


def _wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_idle_worker_claims_a_submit_at_once(tmp_path, small_circuit):
    service = RoutingService(str(tmp_path / "store"))
    pool = _Pool(service)
    try:
        record = service.submit(small_circuit, config=KMB, width=3)
        assert _wait_until(
            lambda: service.status(record.job_id)["state"] != "queued",
            ANSWER_S,
        )
    finally:
        assert pool.stop()


def test_request_drain_stops_idle_workers(tmp_path):
    service = RoutingService(str(tmp_path / "store"))
    pool = _Pool(service, workers=2)
    start = time.monotonic()
    assert pool.stop()
    assert time.monotonic() - start < ANSWER_S


def test_sse_streams_end_on_the_terminal_commit(tmp_path, small_circuit):
    # two front ends on one service: the store keeps a list of commit
    # listeners, so both streams are woken
    service = RoutingService(str(tmp_path / "store"))
    fronts = [BackgroundServer(service, sse_poll_s=LONG_POLL_S)
              for _ in range(2)]
    urls = ["http://%s:%d" % front.start() for front in fronts]
    pool = _Pool(service)
    try:
        record = ServiceClient(urls[0]).submit(
            small_circuit, config=KMB, width=3
        )
        finals = {}

        def watch(url):
            client = ServiceClient(url, timeout_s=2 * LONG_POLL_S)
            for event, data, _ in client.events(
                record["job_id"], heartbeats=False
            ):
                if event == "state":
                    finals[url] = data

        watchers = [threading.Thread(target=watch, args=(url,), daemon=True)
                    for url in urls]
        for watcher in watchers:
            watcher.start()
        for watcher in watchers:
            watcher.join(timeout=ANSWER_S)
        assert not any(w.is_alive() for w in watchers)
        assert set(finals) == set(urls)
        assert all(f["state"] in TERMINAL_STATES for f in finals.values())
        assert finals[urls[0]]["state"] == "done"
    finally:
        assert pool.stop()
        for front in fronts:
            front.stop()
    # stopping a front end takes its listener out of the store
    assert service.store._commit_listeners == ()


def test_concurrent_submits_are_each_claimed_once(tmp_path, small_circuit):
    service = RoutingService(
        str(tmp_path / "store"),
        policy=AdmissionPolicy(
            max_queue_depth=10_000, max_jobs_per_tenant=10_000,
            validate=False,
        ),
    )
    submitters = (os.cpu_count() or 1) + 2
    per_submitter = 6
    total = submitters * per_submitter
    claimed = []
    claimed_lock = threading.Lock()
    stop = threading.Event()

    def work(name):
        while not stop.is_set():
            record = service.supervisor.claim_next(name, wait=LONG_POLL_S)
            if record is not None:
                with claimed_lock:
                    claimed.append(record.job_id)

    def submit(index):
        for _ in range(per_submitter):
            service.submit(
                small_circuit, config=KMB, width=3, tenant=f"t{index}"
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    workers = [threading.Thread(target=work, args=(f"w{i}",), daemon=True)
               for i in range(3)]
    feeders = [threading.Thread(target=submit, args=(i,), daemon=True)
               for i in range(submitters)]
    try:
        for thread in workers + feeders:
            thread.start()
        for feeder in feeders:
            feeder.join(timeout=60)
        assert not any(f.is_alive() for f in feeders)
        # a lost notify would leave the last jobs for the 30 s timeout
        assert _wait_until(lambda: len(claimed) >= total, ANSWER_S)
    finally:
        stop.set()
        service.supervisor.request_drain()
        for worker in workers:
            worker.join(timeout=ANSWER_S)
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(claimed) == len(set(claimed)) == total
    events, _ = read_journal(service.store.journal.path)
    claims = Counter(
        e["job"] for e in events
        if e["type"] == "transition" and e["to"] == "running"
    )
    assert len(claims) == total and set(claims.values()) == {1}


def test_a_broken_listener_never_fails_a_commit(tmp_path):
    store = JobStore(str(tmp_path / "store"))
    seen = []

    def broken(job_id):
        raise RuntimeError("listener bug")

    closed = asyncio.new_event_loop()
    closed.close()

    def on_closed_loop(job_id):
        closed.call_soon_threadsafe(seen.append, job_id)

    for listener in (broken, on_closed_loop, seen.append):
        store.add_commit_listener(listener)
    record = store.create_job({}, fingerprint="fp", tenant="acme")
    assert record.state == "queued"
    assert seen == [record.job_id]
    events, _ = read_journal(store.journal.path)
    assert events[-1]["job"] == record.job_id

    store.remove_commit_listener(seen.append)
    store.transition(record.job_id, "cancelled")
    assert seen == [record.job_id]
    assert store.get(record.job_id).state == "cancelled"
