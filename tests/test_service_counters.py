"""The job store's fold counters against a full scan.

``RoutingService.metrics()`` and admission read counters that the
journal fold keeps, instead of scanning every job record.  Three
contracts under test:

* **oracle** — after random sequences of submits, claims, completions,
  dedupe adoptions, failures, cancels, evictions, ``result_lost``
  recovery, duplicate re-application of journal events and events
  folded from a second store on the same root, the counters equal the
  scanning ``metrics()`` body kept here as the reference;
* **cost** — ``metrics()`` and admission make the same number of
  ``open``/``stat`` calls on a 10-job and a 500-job store, and the
  eviction sweep reads each dedupe index entry once per call;
* **order** — job ids wider than six digits sort by number, in the
  job list and in the claim queue.
"""

from __future__ import annotations

import builtins
import json
import os
import random
from collections import Counter

import pytest

from repro.service import (
    AdmissionPolicy,
    EvictionPolicy,
    RoutingService,
    read_journal,
)
from repro.service.store import ACTIVE_STATES

TENANTS = ("acme", "beta", "gamma")
FINGERPRINTS = ("fp-a", "fp-b", "fp-c")


def scanning_metrics(service):
    """The scanning ``RoutingService.metrics()`` body (the oracle).

    Refolds every record and stats every result on each call; the
    service now reads the same numbers from its fold's counters.
    """
    store = service.store
    records = store.records()
    usage = store.result_usage()
    try:
        journal_bytes = os.path.getsize(store.journal.path)
    except OSError:
        journal_bytes = 0
    states = {}
    tenants = {}
    dedupe_hits = 0
    evicted = 0
    for record in records:
        states[record.state] = states.get(record.state, 0) + 1
        row = tenants.setdefault(record.tenant, {"active": 0, "total": 0})
        row["total"] += 1
        if record.state in ACTIVE_STATES:
            row["active"] += 1
        if record.deduped_from is not None:
            dedupe_hits += 1
        if record.result_evicted:
            evicted += 1
    return {
        "jobs_total": len(records),
        "queue_depth": sum(states.get(s, 0) for s in ACTIVE_STATES),
        "states": states,
        "tenants": tenants,
        "dedupe_hits": dedupe_hits,
        "journal": {
            "size_bytes": journal_bytes,
            "next_seq": store.journal.next_seq,
        },
        "results": {
            "count": len(usage),
            "bytes": sum(e["bytes"] for e in usage),
            "evicted_total": evicted,
        },
    }


def scanning_active(store, tenant=None):
    return sum(
        1
        for r in store.jobs.values()
        if r.state in ACTIVE_STATES and (tenant is None or r.tenant == tenant)
    )


def _submit(store, tenant, fingerprint, priority=0):
    request = {"tenant": tenant, "fingerprint": fingerprint,
               "priority": priority}
    return store.create_job(
        request, fingerprint=fingerprint, tenant=tenant, priority=priority
    )


def _finish(store, job_id, doc, deduped_from=None):
    store.write_result(job_id, doc)
    return store.finish_done(
        job_id, channel_width=3, passes_used=1, total_wirelength=1.0,
        verified=True, deduped_from=deduped_from,
    )


class _History:
    """Random service traffic over several stores on one root."""

    def __init__(self, root, seed):
        self.root = root
        self.rng = random.Random(seed)
        self.services = [
            RoutingService(root),
            RoutingService(root, recover=False),
        ]
        #: operations that changed something, by name
        self.applied = Counter()

    def _pick(self, store, want):
        store.refresh()
        ids = [r.job_id for r in store.records() if want(r)]
        return self.rng.choice(ids) if ids else None

    def step(self):
        rng = self.rng
        service = rng.choice(self.services)
        store = service.store
        op = rng.choice((
            "submit", "submit", "claim", "claim", "checkpoint",
            "complete", "complete", "adopt", "fail", "cancel", "evict",
            "lose", "replay", "refresh",
        ))
        applied = True
        if op == "submit":
            _submit(store, rng.choice(TENANTS), rng.choice(FINGERPRINTS),
                    rng.randint(0, 2))
        elif op == "claim":
            applied = service.supervisor.claim_next(f"w{rng.randint(0, 1)}")
        elif op == "checkpoint":
            job = applied = self._pick(store, lambda r: r.state == "running")
            if job:
                store.transition(job, "checkpointed")
        elif op == "complete":
            job = applied = self._pick(
                store, lambda r: r.state in ("running", "checkpointed")
            )
            if job:
                _finish(store, job, {"pad": "x" * rng.randint(1, 300)})
        elif op == "adopt":
            applied = False
            job = self._pick(store, lambda r: r.state == "queued")
            if job:
                donor = store.lookup_result(store.get(job).fingerprint)
                if donor is not None and donor != job:
                    with open(store.result_path(donor)) as fh:
                        doc = json.load(fh)
                    applied = _finish(store, job, doc, deduped_from=donor)
        elif op == "fail":
            job = applied = self._pick(
                store, lambda r: r.state in ("running", "checkpointed")
            )
            if job:
                store.finish_failed(job, "unroutable")
        elif op == "cancel":
            job = applied = self._pick(store, lambda r: not r.terminal)
            if job:
                service.cancel(job)
        elif op == "evict":
            job = applied = self._pick(
                store, lambda r: r.state == "done" and not r.result_evicted
            )
            if job:
                store.evict_result(job)
        elif op == "lose":
            job = applied = self._pick(
                store, lambda r: r.state == "done" and not r.result_evicted
            )
            if job:
                # deleted behind the service's back: counted until the
                # next recovering open requeues the job
                os.unlink(store.result_path(job))
                reopened = RoutingService(self.root)
                assert job in reopened.recovered["result_lost"]
                self.services.append(reopened)
                if len(self.services) > 3:
                    self.services.pop(0)
        elif op == "replay":
            # a crash after the fsync: recovery folds the event again
            store.refresh()
            events, _ = read_journal(store.journal.path)
            if events:
                store._apply(events[-1])
        else:
            store.refresh()
        if applied:
            self.applied[op] += 1

    def check(self):
        for service in self.services:
            store = service.store
            got = service.metrics()
            assert got == scanning_metrics(service)
            for tenant in (None, *TENANTS):
                assert store.active_count(tenant) == scanning_active(
                    store, tenant
                )
            assert sorted(r.job_id for r in store.queued()) == [
                r.job_id for r in store.records() if r.state == "queued"
            ]


@pytest.mark.parametrize("seed", range(10))
def test_counters_equal_the_scanning_oracle(tmp_path, seed):
    history = _History(str(tmp_path / "store"), seed)
    for _ in range(70):
        history.step()
        history.check()


def test_oracle_sequences_cover_every_operation(tmp_path):
    # the walks above are only as good as the folds they reach
    applied = Counter()
    for seed in range(10):
        history = _History(str(tmp_path / f"store-{seed}"), seed)
        for _ in range(70):
            history.step()
        applied.update(history.applied)
    assert set(applied) == {
        "submit", "claim", "checkpoint", "complete", "adopt", "fail",
        "cancel", "evict", "lose", "replay", "refresh",
    }, applied


# ----------------------------------------------------------------------
# cost: no per-record work on the request path
# ----------------------------------------------------------------------
class _IOCount:
    """Counts ``open`` and ``os.stat`` calls (``getsize``/``exists``)."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.paths = []
        real_open, real_stat = builtins.open, os.stat

        def counting_open(file, *args, **kwargs):
            self.calls["open"] += 1
            self.paths.append(str(file))
            return real_open(file, *args, **kwargs)

        def counting_stat(path, *args, **kwargs):
            self.calls["stat"] += 1
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "stat", counting_stat)

    def reset(self):
        self.calls.clear()
        self.paths.clear()


def _done_store(root, jobs):
    service = RoutingService(root)
    store = service.store
    for i in range(jobs):
        record = _submit(store, TENANTS[i % 3], FINGERPRINTS[i % 3])
        store.claim(record.job_id, "w0")
        _finish(store, record.job_id, {"pad": "x" * (10 + i % 7)})
    _submit(store, "acme", "fp-queued")  # one active job
    return root


def _request_path_calls(service, counter):
    policy = AdmissionPolicy(validate=False)
    counter.reset()
    service.metrics()
    policy.admit(service.store, None, None, "acme")
    service.pressure()
    return dict(counter.calls)


def test_metrics_and_admission_cost_is_flat_in_history(
    tmp_path, monkeypatch
):
    small = _done_store(str(tmp_path / "small"), 10)
    large = _done_store(str(tmp_path / "large"), 500)
    counter = _IOCount(monkeypatch)
    costs = {}
    for name, root in (("small", small), ("large", large)):
        # the serving open: recovery's result check sizes every result,
        # so even the first metrics() call does no per-job work
        service = RoutingService(root)
        costs[name] = _request_path_calls(service, counter)
        job_files = [p for p in counter.paths if os.sep + "jobs" + os.sep in p]
        assert not job_files, job_files
        assert service.metrics()["results"]["count"] > 0
    assert costs["small"] == costs["large"]
    assert costs["large"]["stat"] <= 4


def test_non_recovering_open_sizes_each_result_once(tmp_path, monkeypatch):
    root = _done_store(str(tmp_path / "store"), 40)
    service = RoutingService(root, recover=False)
    counter = _IOCount(monkeypatch)
    first = _request_path_calls(service, counter)
    second = _request_path_calls(service, counter)
    assert first["stat"] >= 40  # one stat per result, once
    assert second["stat"] <= 4
    assert service.metrics() == scanning_metrics(service)


# ----------------------------------------------------------------------
# the eviction sweep reads each index entry once
# ----------------------------------------------------------------------
def reference_result_usage(store):
    """The sweep's input as computed before (one index read per job)."""
    usage = []
    for record in store.records():
        if record.state != "done" or record.result_evicted:
            continue
        try:
            size = os.path.getsize(store.result_path(record.job_id))
        except OSError:
            continue
        used = record.finished_at or record.submitted_at or 0.0
        try:
            with open(store.index_path(record.fingerprint)) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = None
        if isinstance(doc, dict) and doc.get("job") == record.job_id:
            for key in ("served_at", "at"):
                if isinstance(doc.get(key), (int, float)):
                    used = max(used, doc[key])
                    break
        usage.append({"job": record.job_id, "fingerprint": record.fingerprint,
                      "bytes": size, "last_used": used})
    return usage


def test_sweep_reads_each_index_entry_once(tmp_path, monkeypatch):
    root = _done_store(str(tmp_path / "store"), 30)
    service = RoutingService(root)
    store = service.store
    # dedupe hits stamp served_at on the donors' index entries
    store.lookup_result("fp-b")
    expected = reference_result_usage(store)
    counter = _IOCount(monkeypatch)
    usage = store.result_usage()
    index_reads = [p for p in counter.paths if "results" + os.sep in p]
    distinct = {r.fingerprint for r in store.records() if r.state == "done"}
    assert len(index_reads) == len(distinct) == 3
    assert usage == expected
    # the sweep evicts exactly what the old LRU order picked
    order = [e["job"] for e in sorted(
        expected, key=lambda e: (e["last_used"], e["job"])
    )]
    evicted = EvictionPolicy(max_results=20).sweep(store)
    assert evicted == order[:10]


# ----------------------------------------------------------------------
# job ids wider than six digits
# ----------------------------------------------------------------------
def test_wide_job_ids_keep_submission_order(tmp_path):
    service = RoutingService(str(tmp_path / "store"))
    store = service.store
    os.makedirs(store.job_dir("job-999998"))  # the next id is job-999999
    older = _submit(store, "acme", "fp-a")
    newer = _submit(store, "acme", "fp-b")
    assert (older.job_id, newer.job_id) == ("job-999999", "job-1000000")
    assert [r["job_id"] for r in service.jobs()] == [
        "job-999999", "job-1000000"
    ]
    claimed = service.supervisor.claim_next("w0")
    assert claimed.job_id == "job-999999"
