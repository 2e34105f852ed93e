"""The routing job service facade.

:class:`RoutingService` composes the durable pieces into the API the
CLI (``repro jobs``) and the tests drive:

* :meth:`submit` — admission control, then dedupe lookup, then a
  durable enqueue; returns the :class:`~repro.service.store.JobRecord`;
* :meth:`status` / :meth:`result` / :meth:`cancel` — job inspection
  and cooperative cancellation;
* :meth:`run_until_idle` — the synchronous worker loop;
* :meth:`serve` — the daemon: worker threads, periodic stale-job
  takeover, graceful SIGTERM drain.

Opening a service (by default) *is* crash recovery: the store replays
the journal, truncates any torn tail, adopts orphaned job directories,
and re-queues every job a previous incarnation was interrupted in — the
recovery summary is kept on :attr:`RoutingService.recovered`.  Recovery
assumes no other live incarnation owns the store; to inspect or submit
against a store a running server owns, open with ``readonly=True``
(status/result — never writes) or ``recover=False`` (submit/cancel —
appends under the journal's inter-process lock without requeueing the
server's in-flight work).

Idempotent dedupe
-----------------
A request's identity is the sha256 of its canonical JSON: the placed
circuit (:func:`repro.io.circuit_to_dict`), the schedule-relevant
config fields (:func:`repro.engine.checkpoint.config_fingerprint` — the
same identity checkpoints bind to), the architecture family, and the
requested width (or sweep bound).  A negotiate-mode request also binds
its ``search`` value, because A* and plain Dijkstra can negotiate
different trees; paper mode never reads it, so paper-mode identities
leave it out.  The execution engine is excluded, although a parallel
engine can negotiate a request differently from the serial one: a
request that names no engine runs on whichever engine the server uses
at claim time, so there is no single value to bind at submit
(``docs/service.md``).  Submitting a fingerprint whose verified result
already exists returns a new job that is immediately ``done`` with
``deduped_from`` pointing at the job that actually routed — no routing
work is repeated.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

from ..engine.checkpoint import config_fingerprint
from ..engine.faults import FaultPlan
from ..engine.retry import RetryPolicy
from ..errors import JobError, JobFailedError, ReproError
from ..fpga.netlist import PlacedCircuit
from ..io import circuit_to_dict, load_result, result_to_dict
from ..router.config import RouterConfig
from ..router.result import RoutingResult
from ..validate import verify_result
from .admission import AdmissionPolicy
from .eviction import EvictionPolicy
from .store import JobRecord, JobStore, TERMINAL_STATES
from .supervisor import _FAMILIES, DEFAULT_STALE_AFTER_S, JobSupervisor

#: request document format marker
REQUEST_FORMAT = "repro-job"
REQUEST_VERSION = 1


def config_to_dict(config: RouterConfig) -> Dict[str, Any]:
    """JSON-safe serialization of every :class:`RouterConfig` field."""
    from dataclasses import fields

    doc: Dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        doc[f.name] = value
    return doc


def request_fingerprint(
    circuit: PlacedCircuit,
    config: RouterConfig,
    *,
    family: str,
    width: Optional[int],
    w_max: int,
) -> str:
    """The dedupe identity of one routing request.

    Built from the inputs that determine the routed *result*: the
    circuit, the schedule-relevant config fields, the architecture
    family, the width question being asked and, under
    ``mode="negotiate"``, the negotiated search.  Paper-mode identities
    carry no ``search`` key, so they equal those of stores written
    before negotiate-mode requests bound it.  The engine is excluded
    (see the module docstring).
    """
    doc = {
        "circuit": circuit_to_dict(circuit),
        "config": config_fingerprint(config),
        "family": family,
        "width": width,
        "w_max": w_max if width is None else None,
    }
    if config.mode == "negotiate":
        doc["search"] = config.search
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class RoutingService:
    """One durable routing-job service rooted at a directory.

    Thread-safe: every store mutation happens under one lock shared
    with the supervisor.  Opening the service performs crash recovery;
    the journal makes that safe to do any number of times.
    """

    def __init__(
        self,
        root: str,
        *,
        policy: Optional[AdmissionPolicy] = None,
        engine: str = "serial",
        retry_policy: Optional[RetryPolicy] = None,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        faults: Optional[FaultPlan] = None,
        recover: bool = True,
        readonly: bool = False,
        eviction: Optional[EvictionPolicy] = None,
    ):
        """Open (and, by default, crash-recover) the store at ``root``.

        ``recover=False`` opens without running the reconciliation scan
        — the right mode for submitting or cancelling against a store a
        *live* server owns, where requeueing its in-flight jobs would
        cause duplicate execution.  ``readonly=True`` additionally
        refuses every journal write (status/result inspection); it
        implies ``recover=False``.
        """
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.lock = threading.RLock()
        self.readonly = readonly
        self.store = JobStore(root, faults=self.faults, readonly=readonly)
        self.policy = policy or AdmissionPolicy()
        self.eviction = eviction
        #: what recovery did when this instance opened the store
        if recover and not readonly:
            self.recovered = self.store.reconcile()
        else:
            self.recovered = {}
        self.supervisor = JobSupervisor(
            self.store,
            lock=self.lock,
            engine=engine,
            retry_policy=retry_policy,
            stale_after_s=stale_after_s,
            faults=self.faults,
            eviction=eviction,
        )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        circuit: PlacedCircuit,
        *,
        config: Optional[RouterConfig] = None,
        family: str = "xc3000",
        width: Optional[int] = None,
        w_max: int = 40,
        engine: Optional[str] = None,
        tenant: str = "default",
        priority: Optional[int] = None,
        deadline_s: Optional[float] = None,
        net_deadline_s: Optional[float] = None,
    ) -> JobRecord:
        """Admit, dedupe and durably enqueue one routing request.

        ``width=None`` asks for the minimum-channel-width sweep up to
        ``w_max``; a fixed ``width`` routes at exactly that width.
        ``priority`` overrides the tenant's configured claim priority
        (higher runs first; the effective value is journaled with the
        submission).  ``deadline_s`` / ``net_deadline_s`` become the job's
        ``pass_timeout_s`` / ``route_timeout_s`` budgets unless the
        config already sets them.  Raises
        :class:`~repro.errors.AdmissionError` on backpressure and
        :class:`~repro.errors.ValidationError` on a circuit the lint
        rejects.
        """
        if family not in _FAMILIES:
            raise JobError(
                f"unknown architecture family {family!r}; "
                f"expected one of {sorted(_FAMILIES)}"
            )
        config = config or RouterConfig()
        arch = None
        if width is not None:
            arch = _FAMILIES[family](circuit.rows, circuit.cols, width)
        with self.lock:
            # admission *check* and enqueue *append* must be one atomic
            # step across processes, or two submitters racing on the
            # last queue/tenant slot would both pass the check and both
            # enqueue; the journal's reentrant flock spans check+append
            with self.store.journal.lock():
                # fold in anything another process journaled (a live
                # server finishing jobs frees queue slots; its results
                # feed dedupe)
                self.store.refresh()
                self.policy.admit(self.store, circuit, arch, tenant)
                effective_priority = self.policy.priority_for(
                    tenant, priority
                )
                fingerprint = request_fingerprint(
                    circuit, config, family=family, width=width,
                    w_max=w_max,
                )
                request = {
                    "format": REQUEST_FORMAT,
                    "version": REQUEST_VERSION,
                    "tenant": tenant,
                    "priority": effective_priority,
                    "fingerprint": fingerprint,
                    "family": family,
                    "width": width,
                    "w_max": w_max,
                    "engine": engine,
                    "deadline_s": deadline_s,
                    "net_deadline_s": net_deadline_s,
                    "config": config_to_dict(config),
                    "circuit": circuit_to_dict(circuit),
                }
                record = self.store.create_job(
                    request,
                    fingerprint=fingerprint,
                    tenant=tenant,
                    priority=effective_priority,
                )
            source = self.store.lookup_result(fingerprint)
            if source is not None:
                # an identical request already routed: adopt its result
                # right now, skipping the queue — but only after it
                # re-verifies, exactly like claim-time adoption
                adopted = self._adopt_at_submit(
                    record, source, circuit, config, family
                )
                if adopted is not None:
                    return adopted
            self.supervisor.notify_work()
            return record

    def _adopt_at_submit(
        self,
        record: JobRecord,
        source: str,
        circuit: PlacedCircuit,
        config: RouterConfig,
        family: str,
    ) -> Optional[JobRecord]:
        """Serve a donor job's cached result to a fresh submission.

        The donor's ``result.json`` is re-verified (``level="full"``)
        before adoption; a damaged, unparseable or no-longer-correct
        artifact returns ``None`` and the new job stays queued for a
        real route instead of surfacing an error after it was already
        journaled.
        """
        try:
            result = load_result(self.store.result_path(source))
            arch = _FAMILIES[family](
                circuit.rows, circuit.cols, result.channel_width
            )
            report = verify_result(
                result, circuit, arch, config, level="full"
            )
        except Exception:
            # damaged artifact: fall back to the normal enqueue
            return None
        if not report.ok:
            return None
        self.store.write_result(record.job_id, result_to_dict(result))
        return self.store.finish_done(
            record.job_id,
            channel_width=result.channel_width,
            passes_used=result.passes_used,
            total_wirelength=result.total_wirelength,
            verified=True,
            deduped_from=source,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def status(self, job_id: str) -> Dict[str, Any]:
        """One job's journal-derived record as a plain dict."""
        with self.lock:
            self.store.refresh()
            return self.store.get(job_id).to_dict()

    def jobs(self) -> List[Dict[str, Any]]:
        """All job records, in submission order."""
        with self.lock:
            self.store.refresh()
            return [r.to_dict() for r in self.store.records()]

    def result(self, job_id: str) -> RoutingResult:
        """The verified routing result of a ``done`` job.

        A terminally *failed* job raises
        :class:`~repro.errors.JobFailedError` carrying the full
        failure record (cause, attempts, requeue history) — the job's
        outcome, structured, not a missing-file artifact.  An evicted
        result raises a :class:`~repro.errors.JobError` naming the
        eviction (resubmitting the identical request re-routes it).
        """
        with self.lock:
            self.store.refresh()
            record = self.store.get(job_id)
        if record.state == "failed":
            raise JobFailedError(
                f"job {job_id} failed: {record.error or 'unknown cause'}",
                job_id=job_id,
                record=record.to_dict(),
            )
        if record.state != "done":
            raise JobError(
                f"job {job_id} is {record.state!r}, not done"
                + (f" ({record.error})" if record.error else ""),
                job_id=job_id,
            )
        if record.result_evicted:
            raise JobError(
                f"job {job_id} is done but its result was evicted from "
                f"the result store; resubmit the request to re-route",
                job_id=job_id,
            )
        return load_result(self.store.result_path(job_id))

    def metrics(self) -> Dict[str, Any]:
        """Operational counters (stable keys), O(1) in the job history.

        Served by ``GET /v1/metrics``.  The job counts are kept by the
        store's journal fold (replay, own commits and other processes'
        events alike), so they survive restart without a rescan; the
        journal size is one ``stat``.  A result file deleted behind
        the service's back stays counted until the next recovering
        open requeues its job as ``result_lost``.
        """
        with self.lock:
            self.store.refresh()
            doc = self.store.counters()
            try:
                journal_bytes = os.path.getsize(self.store.journal.path)
            except OSError:
                journal_bytes = 0
            doc["journal"] = {
                "size_bytes": journal_bytes,
                "next_seq": self.store.journal.next_seq,
            }
        return doc

    def pressure(self) -> Dict[str, Any]:
        """A cheap load snapshot for overload assessment (stable keys).

        Unlike :meth:`metrics` this does *not* refresh from the
        journal — it is called on the hot submit path by the HTTP
        front end's load shedder, so it reads the in-memory store
        (kept current by this process's own submits and workers) and
        measures peer-process traffic as journal lag instead: bytes
        appended by other writers that this node has not folded yet.
        """
        supervisor = self.supervisor
        with self.lock:
            depth = self.store.active_count()
            lag = self.store.journal.lag_bytes()
        return {
            "queue_depth": depth,
            "max_queue_depth": self.policy.max_queue_depth,
            "workers_busy": supervisor.workers_busy,
            "workers_total": supervisor.workers_total,
            "journal_lag_bytes": lag,
        }

    def evict_results(self) -> List[str]:
        """Run one eviction sweep now; returns evicted job ids."""
        if self.eviction is None:
            return []
        with self.lock:
            self.store.refresh()
            return self.eviction.sweep(self.store)

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: immediate while queued, cooperative after.

        A queued job goes straight to ``cancelled``; a running job gets
        ``cancel_requested`` journaled — if it finishes first the
        completion wins, otherwise the next claim (or crash recovery)
        honours the cancellation.  Cancelling a terminal job is an
        error.
        """
        with self.lock:
            self.store.refresh()
            record = self.store.get(job_id)
            if record.state in TERMINAL_STATES:
                raise JobError(
                    f"job {job_id} is already {record.state}",
                    job_id=job_id,
                )
            if record.state == "queued":
                self.store.commit(
                    {"type": "cancel_requested", "job": job_id}
                )
                return self.store.transition(job_id, "cancelled")
            return self.store.commit(
                {"type": "cancel_requested", "job": job_id}
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_until_idle(self, *, max_jobs: Optional[int] = None) -> int:
        """Synchronously process queued jobs; returns how many ran."""
        return self.supervisor.run_until_idle(max_jobs=max_jobs)

    def serve(
        self,
        *,
        workers: int = 1,
        poll_s: float = 0.1,
        exit_when_idle: bool = False,
        install_signal_handlers: bool = True,
    ) -> int:
        """Run the worker pool until drained (SIGTERM) or idle.

        ``exit_when_idle`` stops once the queue is empty and every
        worker is between jobs (the CI smoke mode); otherwise the pool
        runs until :meth:`~JobSupervisor.request_drain` — which SIGTERM
        and SIGINT trigger when ``install_signal_handlers`` is set —
        lets in-flight jobs finish.  Returns jobs processed.

        An idle worker sleeps until a submit through this service, a
        requeue or a drain wakes it; ``poll_s`` only bounds how late it
        sees a submit or cancel made by another process.
        """
        supervisor = self.supervisor
        processed = [0]
        busy = [0]
        counter_lock = threading.Lock()
        supervisor.workers_total = max(1, workers)
        supervisor.workers_busy = 0

        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                signal.signal(
                    sig, lambda *_: supervisor.request_drain()
                )

        def loop(name: str) -> None:
            while not supervisor.draining:
                record = supervisor.claim_next(
                    name, wait=None if exit_when_idle else poll_s
                )
                if record is None:
                    if exit_when_idle:
                        return
                    continue
                with counter_lock:
                    busy[0] += 1
                    supervisor.workers_busy = busy[0]
                try:
                    supervisor.run_job(record, name)
                except Exception:
                    # run_job journals failures itself; anything that
                    # still escapes (e.g. a JournalError while the
                    # store is damaged) must not kill the worker thread
                    # and with it the whole pool
                    traceback.print_exc(file=sys.stderr)
                    time.sleep(poll_s)
                finally:
                    with counter_lock:
                        busy[0] -= 1
                        supervisor.workers_busy = busy[0]
                        processed[0] += 1

        threads = [
            threading.Thread(
                target=loop, args=(f"worker-{i}",), daemon=True
            )
            for i in range(max(1, workers))
        ]
        for t in threads:
            t.start()
        try:
            next_takeover = time.monotonic() + self.supervisor.stale_after_s
            while any(t.is_alive() for t in threads):
                for t in threads:
                    t.join(timeout=poll_s)
                if time.monotonic() >= next_takeover:
                    supervisor.reclaim_stale()
                    next_takeover = (
                        time.monotonic() + self.supervisor.stale_after_s
                    )
        except KeyboardInterrupt:  # pragma: no cover - interactive
            supervisor.request_drain()
            for t in threads:
                t.join()
        finally:
            supervisor.workers_total = 0
            supervisor.workers_busy = 0
        return processed[0]
