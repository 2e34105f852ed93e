"""The job supervisor: workers that drive routing sessions to terminal
states no matter what dies underneath them.

One :class:`JobSupervisor` owns the claim/run/finish loop around a
:class:`~repro.service.store.JobStore`:

* **claiming** is priority-then-FIFO over the durable queue: a higher
  journaled ``priority`` (see
  :meth:`~repro.service.admission.AdmissionPolicy.priority_for`) is
  claimed first, ties break on the monotonic job id.  Claims happen
  under one lock and are journaled before any work starts — two
  workers can never both own a job, and the ordering survives restart
  because the priority rides in the ``submitted`` journal event;
* **running** reuses the engine exactly as the CLI does:
  :class:`~repro.engine.RoutingSession` for fixed-width requests,
  :func:`~repro.router.channel_width.minimum_channel_width` for sweep
  requests, always with the job's ``checkpoint.json`` as the engine
  checkpoint — so a crashed job resumes *bit-identically* from its
  last committed pass instead of starting over;
* **deadlines** map the request's budgets onto
  ``RouterConfig.pass_timeout_s`` / ``route_timeout_s``; exceeding one
  is a semantic outcome (the job fails with the timeout recorded), not
  a crash;
* **retry** wraps infrastructure failures (anything that is not a
  :class:`~repro.errors.ReproError`) in the engine's seeded-backoff
  :class:`~repro.engine.retry.RetryPolicy` — each attempt is journaled
  as a requeue + reclaim, so the attempt history survives crashes too;
* **heartbeats** are stamped by a timer thread for as long as an
  attempt is routing (so a single pass longer than the staleness
  threshold never makes a healthy job look abandoned), plus from the
  engine's live trace stream; :meth:`reclaim_stale` re-queues running
  jobs whose owner is dead or silent (stale-job takeover after a
  SIGKILL);
* **fencing**: every claim carries the journaled ``attempts`` count as
  its token; terminal transitions are applied only if the job's live
  ``attempts`` still matches, so a superseded worker (its job taken
  over while it was wedged) has its late completion discarded instead
  of stomping the new owner's state;
* **drain** (:meth:`request_drain`, wired to SIGTERM by ``serve``)
  lets in-flight jobs finish and stops claiming new ones.

Every trace event the engine emits is appended to the job's
``log.jsonl`` as it happens, so ``repro jobs status`` can show live
progress for a job the service is still routing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Optional

from ..engine import RoutingSession
from ..engine.checkpoint import load_checkpoint
from ..engine.retry import RetryPolicy
from ..errors import (
    CheckpointError,
    EngineTimeoutError,
    JournalError,
    ReproError,
    RoutingError,
    ValidationError,
)
from ..fpga.architecture import xc3000, xc4000
from ..io import circuit_from_dict, load_result, result_to_dict
from ..router.channel_width import minimum_channel_width
from ..router.config import RouterConfig
from ..validate import verify_result
from .store import JobRecord, JobStore, job_order

#: how long a running job may go without a heartbeat before takeover
DEFAULT_STALE_AFTER_S = 30.0

_FAMILIES = {"xc3000": xc3000, "xc4000": xc4000}

#: the values of ``graph_backend``, a removed field that selected a
#: search substrate and never changed a result; stored requests and
#: older clients still carry it
_LEGACY_GRAPH_BACKENDS = ("dict", "flat", "auto")

#: retired values of ``search``, mapped to the one that routes the same:
#: negotiation went goal-directed under "auto" and ran the plain kernel
#: under "bidir", and paper mode never depended on the value
_LEGACY_SEARCH = {"auto": "astar", "bidir": "dijkstra"}


def config_from_dict(doc: Dict[str, Any]) -> RouterConfig:
    """Rebuild a :class:`RouterConfig` from its request serialization.

    A legacy ``graph_backend`` key is dropped and a retired ``search``
    value is mapped to its equivalent; any other unknown key or value
    is rejected by the constructor.
    """
    kwargs = dict(doc)
    if kwargs.get("graph_backend") in _LEGACY_GRAPH_BACKENDS:
        del kwargs["graph_backend"]
    search = kwargs.get("search")
    if isinstance(search, str):
        kwargs["search"] = _LEGACY_SEARCH.get(search, search)
    nets = kwargs.get("critical_nets")
    if nets is not None:
        kwargs["critical_nets"] = frozenset(nets)
    return RouterConfig(**kwargs)


class JobSupervisor:
    """Claims queued jobs and drives each to a verified terminal state."""

    def __init__(
        self,
        store: JobStore,
        *,
        lock: Optional[threading.RLock] = None,
        engine: str = "serial",
        retry_policy: Optional[RetryPolicy] = None,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
        faults=None,
        eviction=None,
    ):
        self.store = store
        self.lock = lock or threading.RLock()
        self.engine = engine
        self.retry_policy = retry_policy or RetryPolicy()
        self.stale_after_s = stale_after_s
        self.faults = faults
        #: optional :class:`~repro.service.eviction.EvictionPolicy`;
        #: when set, a sweep runs after every job completion so the
        #: result store converges to its caps while serving
        self.eviction = eviction
        self._drain = threading.Event()
        #: idle workers wait here; submits, requeues and drain notify
        self._work = threading.Condition(self.lock)
        #: worker-pool gauges published by :meth:`RoutingService.serve`
        #: and read (without locking — plain int loads) by the HTTP
        #: front end's overload assessment
        self.workers_total = 0
        self.workers_busy = 0

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def request_drain(self) -> None:
        """Stop claiming new jobs; in-flight jobs run to completion."""
        self._drain.set()
        self.notify_work()

    def notify_work(self) -> None:
        """Wake every worker waiting in :meth:`claim_next`."""
        with self.lock:
            self._work.notify_all()

    # ------------------------------------------------------------------
    # claiming
    # ------------------------------------------------------------------
    def claim_next(
        self, worker: str, wait: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Journal a claim on the best runnable job, if any.

        "Best" is highest journaled priority first, oldest job id
        within a priority level — so a full queue never starves a
        high-priority tenant behind earlier bulk submissions.

        With ``wait`` (seconds), an empty scan waits until
        :meth:`notify_work` (a submit, a requeue, a drain) or the
        timeout, then scans once more.  The scan and the wait happen in
        one hold of the lock, so no notify is lost between them; the
        timeout bounds how late a submit or cancel made by another
        process, seen only through ``refresh``, is picked up.
        """
        with self.lock:
            record = self._claim_scan(worker)
            if record is None and wait and not self.draining:
                self._work.wait(wait)
                record = self._claim_scan(worker)
            return record

    def _claim_scan(self, worker: str) -> Optional[JobRecord]:
        if self.draining:
            return None
        # see submissions/cancellations from other processes
        self.store.refresh()
        runnable = sorted(
            self.store.queued(),
            key=lambda r: (-r.priority, job_order(r.job_id)),
        )
        for record in runnable:
            if record.cancel_requested:
                self.store.transition(record.job_id, "cancelled")
                continue
            return self.store.claim(record.job_id, worker)
        return None

    def reclaim_stale(self) -> int:
        """Re-queue running jobs whose owner is dead or silent.

        Heartbeats carry the claimant's pid; a job whose pid is gone is
        taken over immediately, one whose heartbeat is older than
        ``stale_after_s`` is presumed wedged.  Returns how many jobs
        were re-queued.
        """
        taken = 0
        with self.lock:
            self.store.refresh()
            for record in self.store.records():
                if record.state not in ("running", "checkpointed"):
                    continue
                if self.store.stale(record.job_id, self.stale_after_s):
                    self.store.requeue(record.job_id, "stale_takeover")
                    taken += 1
            if taken:
                self._work.notify_all()
        return taken

    def run_until_idle(
        self, *, worker: str = "worker-0", max_jobs: Optional[int] = None
    ) -> int:
        """Synchronously drain the queue; returns jobs processed.

        This is the single-threaded service loop the tests (and
        ``repro jobs serve --exit-when-idle``) drive; ``serve`` wraps
        it in worker threads for the long-running daemon case.
        """
        done = 0
        while max_jobs is None or done < max_jobs:
            record = self.claim_next(worker)
            if record is None:
                break
            self.run_job(record, worker)
            done += 1
        return done

    # ------------------------------------------------------------------
    # running one job
    # ------------------------------------------------------------------
    def _superseded(
        self, job_id: str, token: Optional[int]
    ) -> Optional[JobRecord]:
        """The live record iff this worker's claim is no longer current.

        ``token`` is the journaled ``attempts`` count the worker saw at
        claim time.  If the job has since been requeued (stale
        takeover), reclaimed (``attempts`` moved on), or reached a
        terminal state, the caller's completion is stale and must be
        discarded.  Returns ``None`` while the claim is still live.
        Call under :attr:`lock`.
        """
        if token is None:
            return None
        current = self.store.jobs.get(job_id)
        if current is None:
            return None
        if (
            current.terminal
            or current.attempts != token
            or current.state not in ("running", "checkpointed")
        ):
            return current
        return None

    def _fail_fenced(
        self, job_id: str, token: Optional[int], error: str
    ) -> JobRecord:
        """``finish_failed`` unless a newer claim owns the job."""
        with self.lock:
            stale = self._superseded(job_id, token)
            if stale is not None:
                return stale
            return self.store.finish_failed(job_id, error)

    def run_job(self, record: JobRecord, worker: str) -> JobRecord:
        """Drive one claimed job to a terminal state.

        Infrastructure failures retry with seeded backoff (each attempt
        journaled); semantic failures — unroutable, timeout, failed
        verification, an unreadable request, a damaged artifact mid-
        route — terminate the job as ``failed`` with the cause
        recorded.  Only :class:`~repro.errors.JournalError` escapes (a
        broken journal means no transition can be recorded at all), and
        :class:`~repro.engine.faults.SimulatedCrash` is a
        ``BaseException`` and deliberately escapes: it *is* the crash
        the harness asked for.
        """
        job_id = record.job_id
        rng = self.retry_policy.rng()
        token = record.attempts
        for attempt in range(self.retry_policy.max_attempts):
            try:
                out = self._attempt(record, worker)
                self._sweep_results()
                return out
            except JournalError:
                # the store itself is damaged: there is no safe way to
                # journal a failure, so this must surface loudly
                raise
            except ReproError as exc:
                # a deterministic, job-scoped failure (unreadable
                # request.json, damaged checkpoint, ...): fail the job
                # instead of letting it kill the worker loop
                return self._fail_fenced(
                    job_id, token, f"{type(exc).__name__}: {exc}"
                )
            except Exception as exc:  # infrastructure crash: retry
                if attempt + 1 >= self.retry_policy.max_attempts:
                    return self._fail_fenced(
                        job_id,
                        token,
                        f"crashed {attempt + 1} time(s); last: "
                        f"{exc!r}",
                    )
                time.sleep(self.retry_policy.delay(attempt, rng))
                with self.lock:
                    if self._superseded(job_id, token) is not None:
                        # taken over while we backed off — the new
                        # owner runs it now
                        return self.store.get(job_id)
                    self.store.requeue(job_id, f"retry:{exc!r}"[:120])
                    record = self.store.claim(job_id, worker)
                    token = record.attempts
        raise AssertionError("unreachable")  # pragma: no cover

    def _attempt(self, record: JobRecord, worker: str) -> JobRecord:
        store = self.store
        job_id = record.job_id
        # the fencing token: this claim's journaled attempt count.  The
        # record object is live (shared with the store), so the value
        # must be captured now, before any takeover could bump it.
        token = record.attempts
        if record.cancel_requested:
            with self.lock:
                stale = self._superseded(job_id, token)
                if stale is not None:
                    return stale
                return store.transition(job_id, "cancelled")

        request = store.load_request(job_id)
        circuit = circuit_from_dict(
            request["circuit"], source=store.request_path(job_id)
        )
        config = self._job_config(request)
        family = _FAMILIES[request.get("family", "xc3000")]
        engine = request.get("engine") or self.engine

        adopted = self._adopt_existing_result(
            record, circuit, config, family, token
        )
        if adopted is not None:
            return adopted

        checkpoint = store.checkpoint_path(job_id)
        resume = checkpoint if os.path.exists(checkpoint) else None
        if resume is not None:
            try:
                load_checkpoint(resume)
            except CheckpointError:
                # a damaged checkpoint must never wedge the job —
                # drop it and route this attempt from scratch
                os.unlink(resume)
                resume = None
        if resume is not None:
            # journal the resume so the job's history shows it picked
            # up from a checkpoint rather than starting over
            with self.lock:
                record = store.transition(
                    job_id, "running", resumes=record.resumes + 1
                )
        listener = self._listener(job_id, worker, token)
        width = request.get("width")
        trace = None
        try:
            with self._heartbeat_pump(job_id, worker):
                if width is not None:
                    arch = family(circuit.rows, circuit.cols, width)
                    session = RoutingSession(
                        arch,
                        config,
                        engine=engine,
                        faults=self.faults,
                        on_trace_event=listener,
                    )
                    with session:
                        result = session.route(
                            circuit, checkpoint=checkpoint, resume=resume
                        )
                    trace = session.trace
                else:
                    width_found, result = minimum_channel_width(
                        circuit,
                        family,
                        config,
                        w_max=request.get("w_max", 40),
                        engine=engine,
                        checkpoint=checkpoint,
                        # a missing resume file just means "start fresh"
                        resume=checkpoint,
                        on_trace_event=listener,
                    )
        except (RoutingError, EngineTimeoutError, ValidationError) as exc:
            return self._fail_fenced(
                job_id, token, f"{type(exc).__name__}: {exc}"
            )

        return self._finish(
            record, circuit, config, family, result, trace, token
        )

    def _job_config(self, request: Dict[str, Any]) -> RouterConfig:
        """The request's config with its deadline budgets applied."""
        config = config_from_dict(request.get("config") or {})
        overrides: Dict[str, Any] = {}
        deadline = request.get("deadline_s")
        if deadline is not None and config.pass_timeout_s is None:
            overrides["pass_timeout_s"] = float(deadline)
        net_deadline = request.get("net_deadline_s")
        if net_deadline is not None and config.route_timeout_s is None:
            overrides["route_timeout_s"] = float(net_deadline)
        return replace(config, **overrides) if overrides else config

    def _adopt_existing_result(
        self, record: JobRecord, circuit, config, family,
        token: Optional[int] = None,
    ) -> Optional[JobRecord]:
        """Serve a result that already exists instead of re-routing.

        Two sources: this job's own ``result.json`` (a crash landed
        between the result write and the ``done`` transition), or the
        dedupe index (an identical request finished while this one sat
        queued).  Either way the result is re-verified before the job
        adopts it — a cached result is served only if it is *still*
        provably correct.
        """
        store = self.store
        job_id = record.job_id
        own = store.result_path(job_id)
        source_job = None
        if os.path.exists(own):
            path = own
        else:
            source_job = store.lookup_result(record.fingerprint)
            if source_job is None or source_job == job_id:
                return None
            path = store.result_path(source_job)
        try:
            result = load_result(path)
        except ReproError:
            # damaged artifact: ignore it and route for real
            return None
        arch = family(circuit.rows, circuit.cols, result.channel_width)
        report = verify_result(result, circuit, arch, config, level="full")
        if not report.ok:
            return None
        if source_job is not None:
            store.write_result(job_id, result_to_dict(result))
        with self.lock:
            stale = self._superseded(job_id, token)
            if stale is not None:
                return stale
            return store.finish_done(
                job_id,
                channel_width=result.channel_width,
                passes_used=result.passes_used,
                total_wirelength=result.total_wirelength,
                verified=True,
                deduped_from=source_job,
            )

    def _finish(
        self, record: JobRecord, circuit, config, family, result, trace,
        token: Optional[int] = None,
    ) -> JobRecord:
        """Verify, persist and journal a freshly routed result."""
        store = self.store
        job_id = record.job_id
        arch = family(circuit.rows, circuit.cols, result.channel_width)
        report = verify_result(result, circuit, arch, config, level="full")
        if not report.ok:
            return self._fail_fenced(
                job_id,
                token,
                f"result failed verification: "
                f"{report.errors[0].render()}",
            )
        with self.lock:
            stale = self._superseded(job_id, token)
            if stale is not None:
                # a takeover claimed this job while we routed: the new
                # owner's outcome wins, our completion is discarded
                return stale
            store.write_result(job_id, result_to_dict(result))
            if trace is not None:
                try:
                    trace.write(store.trace_path(job_id))
                except OSError:  # pragma: no cover - best effort
                    pass
            return store.finish_done(
                job_id,
                channel_width=result.channel_width,
                passes_used=result.passes_used,
                total_wirelength=result.total_wirelength,
                verified=True,
            )

    def _sweep_results(self) -> None:
        """Run the configured eviction sweep after a completion."""
        if self.eviction is None:
            return
        with self.lock:
            self.eviction.sweep(self.store)

    # ------------------------------------------------------------------
    # live progress
    # ------------------------------------------------------------------
    @contextmanager
    def _heartbeat_pump(self, job_id: str, worker: str,
                        interval: Optional[float] = None):
        """Stamp liveness on a timer for as long as the body runs.

        Trace events only fire at pass/checkpoint boundaries, so a
        single routing pass longer than ``stale_after_s`` would
        otherwise make a perfectly healthy in-process job look stale
        and get taken over mid-route.  The pump is independent of
        engine progress: while the worker thread is inside the body,
        the heartbeat stays fresh.
        """
        if interval is None:
            interval = max(0.05, min(1.0, self.stale_after_s / 4.0))
        stop = threading.Event()

        def pump() -> None:
            while not stop.wait(interval):
                self.store.heartbeat(job_id, worker)

        thread = threading.Thread(
            target=pump, name=f"heartbeat-{job_id}", daemon=True
        )
        self.store.heartbeat(job_id, worker)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=interval + 1.0)

    def _listener(self, job_id: str, worker: str,
                  token: Optional[int] = None):
        """Trace-event sink: stream to log.jsonl, heartbeat, journal
        the running -> checkpointed transition on the first checkpoint."""
        store = self.store
        log_path = store.log_path(job_id)

        def on_event(event: Dict[str, Any]) -> None:
            try:
                with open(log_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(event) + "\n")
            except OSError:  # pragma: no cover - log is best effort
                pass
            store.heartbeat(job_id, worker)
            if event.get("type") == "checkpoint":
                with self.lock:
                    current = store.jobs.get(job_id)
                    if (
                        current is not None
                        and current.state == "running"
                        and (token is None or current.attempts == token)
                    ):
                        store.transition(job_id, "checkpointed")

        return on_event
