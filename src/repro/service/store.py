"""Durable job store: journal-backed job records + per-job directories.

Layout under one store root::

    root/
      journal.jsonl          # the write-ahead journal (source of truth)
      jobs/<job_id>/
        request.json         # the submitted request (circuit + config)
        state.json           # checksummed convenience snapshot
        checkpoint.json      # engine checkpoint while running
        result.json          # the routing result once done
        trace.json           # the engine trace of the finishing run
        log.jsonl            # streamed trace-v4 progress events
        heartbeat.json       # worker liveness stamp (not journaled)
      results/<fp>.json      # fingerprint -> job_id dedupe index

Every state transition is journaled *first* (append + fsync), then
applied in memory, then mirrored into ``state.json``.  The snapshot is
a convenience for humans and external pollers; recovery always rebuilds
records from the journal, so a corrupt or stale snapshot can never
change what a job *is* — the ``corrupt_job_state`` fault proves it.

Job lifecycle::

    queued -> running <-> checkpointed -> done | failed | cancelled
       ^         |
       +---------+   (requeue: crash recovery, stale takeover, retry)

``checkpointed`` is ``running`` with at least one engine checkpoint on
disk — a crash there resumes from the checkpoint (bit-identical to an
uninterrupted run, the PR-2 guarantee) instead of starting over.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import JobError, ServiceError, UnknownJobError
from .journal import Journal

#: every job state
JOB_STATES = (
    "queued", "running", "checkpointed", "done", "failed", "cancelled",
)

#: states a job never leaves
TERMINAL_STATES = ("done", "failed", "cancelled")

#: states that occupy a worker or the queue (admission counts these)
ACTIVE_STATES = ("queued", "running", "checkpointed")

#: job state snapshot schema identifier
STATE_SCHEMA = "repro.service/job-state-v1"

# six digits is zero-padding, not a ceiling: job-1000000 and wider ids
# must keep round-tripping through the directory scan
_JOB_ID_RE = re.compile(r"^job-(\d{6,})$")


def job_order(job_id: str) -> Tuple[int, int, str]:
    """Submission-order sort key: the numeric part of a job id.

    A string sort would put ``job-1000000`` before ``job-999999``.  Ids
    outside the ``job-NNNNNN`` pattern sort after every minted id.
    """
    m = _JOB_ID_RE.match(job_id)
    return (0, int(m.group(1)), job_id) if m else (1, 0, job_id)


def _now() -> float:
    return time.time()


def _event_job(event: Dict[str, Any]) -> str:
    job_id = event.get("job")
    if not isinstance(job_id, str):
        raise ServiceError(f"journal event without a job id: {event}")
    return job_id


def _live_result(record: "JobRecord") -> bool:
    """Does the job hold a result.json the counters include?"""
    return record.state == "done" and not record.result_evicted


def _mark(members: set, job_id: str, sign: int) -> None:
    if sign > 0:
        members.add(job_id)
    else:
        members.discard(job_id)


def _atomic_write_json(path: str, doc: Dict[str, Any]) -> int:
    """Write ``doc`` as JSON via the temp-file + rename protocol.

    Returns the byte size of the written file.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    data = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return len(data)
    except OSError as exc:
        raise ServiceError(f"cannot write {path!r}: {exc}") from exc
    finally:
        if os.path.exists(tmp):  # pragma: no cover - replace() failed
            try:
                os.unlink(tmp)
            except OSError:
                pass


@dataclass
class JobRecord:
    """Everything the service knows about one job (journal-derived)."""

    job_id: str
    state: str = "queued"
    tenant: str = "default"
    fingerprint: str = ""
    #: claim preference — higher priorities are claimed first; ties
    #: break FIFO on the monotonic job id.  Journaled at submit so the
    #: ordering survives restart.
    priority: int = 0
    #: claim count — 1 on the first run, +1 per requeue/retry
    attempts: int = 0
    worker: Optional[str] = None
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    #: terminal error description (failed jobs)
    error: Optional[str] = None
    #: job id whose cached result served this request (dedupe)
    deduped_from: Optional[str] = None
    cancel_requested: bool = False
    #: how many times the job resumed from an engine checkpoint
    resumes: int = 0
    #: result summary, stamped at ``done``
    channel_width: Optional[int] = None
    passes_used: Optional[int] = None
    total_wirelength: Optional[float] = None
    #: True once the result passed independent verification
    verified: bool = False
    #: True once the eviction sweep reclaimed this job's result.json —
    #: the job stays ``done`` (its history is truth) but the artifact
    #: is gone and the fingerprint no longer serves dedupe hits
    result_evicted: bool = False
    #: requeue reasons, newest last (crash recovery, takeover, retry)
    requeues: List[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class JobStore:
    """Crash-safe persistence for the job service (single process).

    All mutation goes through :meth:`commit`: journal append first,
    then the in-memory record, then the snapshot file.  The class is
    not thread-safe by itself — the supervisor serializes access
    through its own lock.

    The fold (:meth:`_apply`) also keeps running counters — jobs per
    state, per-tenant active/total, dedupe hits, evictions, and the
    count and bytes of live ``result.json`` files — so admission and
    ``/v1/metrics`` cost the same at any history length.
    """

    def __init__(self, root: str, *, faults=None, readonly: bool = False):
        self.root = os.path.abspath(root)
        self.faults = faults
        self.readonly = readonly
        os.makedirs(os.path.join(self.root, "jobs"), exist_ok=True)
        os.makedirs(os.path.join(self.root, "results"), exist_ok=True)
        self.journal = Journal(
            os.path.join(self.root, "journal.jsonl"),
            faults=faults,
            readonly=readonly,
        )
        self.jobs: Dict[str, JobRecord] = {}
        # the fold's counters: every record's share is added by _tally
        self._states: Dict[str, int] = dict.fromkeys(JOB_STATES, 0)
        self._tenants: Dict[str, List[int]] = {}  # [active, total]
        self._queued: set = set()
        self._dedupe_hits = 0
        self._evicted = 0
        self._result_count = 0
        self._result_bytes = 0
        #: result.json byte size per job, learned when this process
        #: writes the file or stats it once (``None``: it was missing)
        self._result_sizes: Dict[str, Optional[int]] = {}
        #: live (done, not evicted) results whose size is not known yet
        self._unsized: set = set()
        #: called with the job id after every commit (see
        #: :meth:`add_commit_listener`)
        self._commit_listeners: Tuple[Callable[[str], None], ...] = ()
        for event in self.journal.replayed:
            self._fold(self._record(_event_job(event)), event)
        # the counters start from the replayed records; every later fold
        # keeps them current
        for record in self.jobs.values():
            self._tally(record, 1)
        # from here on, any resync (refresh or mid-append) folds events
        # appended by other processes straight into the records
        self.journal.foreign_event_sink = self._apply

    def refresh(self) -> int:
        """Fold journal events other processes appended; returns count.

        This is how a read-only ``status`` sees a live server's
        progress, and how a server sees jobs submitted (or cancelled)
        from another shell while it is routing.
        """
        return self.journal.refresh()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.root, "jobs", job_id)

    def request_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "request.json")

    def state_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "state.json")

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "checkpoint.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "trace.json")

    def log_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "log.jsonl")

    def heartbeat_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "heartbeat.json")

    def index_path(self, fingerprint: str) -> str:
        return os.path.join(self.root, "results", f"{fingerprint}.json")

    # ------------------------------------------------------------------
    # record access
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(
                f"unknown job {job_id!r}", job_id=job_id
            ) from None

    def records(self) -> List[JobRecord]:
        """All jobs in submission order (job ids are monotonic)."""
        return [self.jobs[k] for k in sorted(self.jobs, key=job_order)]

    def queued(self) -> List[JobRecord]:
        """Every ``queued`` job, unordered (the fold keeps the set)."""
        return [self.jobs[k] for k in self._queued]

    def active_count(self, tenant: Optional[str] = None) -> int:
        if tenant is None:
            return sum(self._states[s] for s in ACTIVE_STATES)
        row = self._tenants.get(tenant)
        return row[0] if row else 0

    def counters(self) -> Dict[str, Any]:
        """The fold's counters, shaped as ``/v1/metrics`` serves them.

        Costs one ``stat`` per live result whose size this process has
        not learned yet (results other processes wrote, or every done
        job after a non-recovering open), and nothing per job after.
        """
        for job_id in list(self._unsized):
            try:
                size: Optional[int] = os.path.getsize(
                    self.result_path(job_id)
                )
            except OSError:
                size = None
            self._learn_result_size(job_id, size)
        states = {s: n for s, n in self._states.items() if n}
        return {
            "jobs_total": len(self.jobs),
            "queue_depth": sum(states.get(s, 0) for s in ACTIVE_STATES),
            "states": states,
            "tenants": {
                tenant: {"active": active, "total": total}
                for tenant, (active, total) in self._tenants.items()
                if total
            },
            "dedupe_hits": self._dedupe_hits,
            "results": {
                "count": self._result_count,
                "bytes": self._result_bytes,
                "evicted_total": self._evicted,
            },
        }

    def next_job_id(self) -> str:
        """Smallest unused ``job-NNNNNN`` across journal *and* disk.

        Scanning the jobs directory too means an adopted orphan (a
        crash between ``request.json`` and the ``submitted`` append)
        can never collide with a later submission.
        """
        top = 0
        names = set(self.jobs)
        try:
            names.update(os.listdir(os.path.join(self.root, "jobs")))
        except OSError:  # pragma: no cover - racing rmdir
            pass
        for name in names:
            m = _JOB_ID_RE.match(name)
            if m:
                top = max(top, int(m.group(1)))
        return f"job-{top + 1:06d}"

    # ------------------------------------------------------------------
    # the write path: journal -> memory -> snapshot
    # ------------------------------------------------------------------
    def commit(self, event: Dict[str, Any]) -> JobRecord:
        """Durably record one event and apply it."""
        if self.readonly:
            raise ServiceError(
                f"job store {self.root!r} was opened read-only"
            )
        self.journal.append(event)
        record = self._apply(event)
        self._write_snapshot(record)
        for listener in self._commit_listeners:
            try:
                listener(record.job_id)
            except Exception:
                # the event is already durable: a broken listener must
                # not report a committed transition as failed
                traceback.print_exc(file=sys.stderr)
        return record

    def add_commit_listener(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(job_id)`` after every commit of this store.

        Listeners run on the committing thread, under the caller's
        locks, so they must only hand the id on (the HTTP front end
        schedules an SSE wake-up on its event loop).  One that raises
        has its traceback printed and is otherwise ignored.  Events
        other processes append are not announced.
        """
        self._commit_listeners = (*self._commit_listeners, listener)

    def remove_commit_listener(self, listener: Callable[[str], None]) -> None:
        self._commit_listeners = tuple(
            f for f in self._commit_listeners if f != listener
        )

    def _apply(self, event: Dict[str, Any]) -> JobRecord:
        """Fold one journal event into the in-memory records.

        Replay-idempotent: applying an event a second time (a crash
        between the fsync and the caller's return, then recovery)
        converges to the same record.  The record's share of the
        counters is taken out before the event changes it and put back
        after, so the counters converge too.
        """
        job_id = _event_job(event)
        if job_id in self.jobs:
            self._tally(self.jobs[job_id], -1)
        record = self._record(job_id)
        try:
            self._fold(record, event)
        finally:
            if not _live_result(record):
                self._result_sizes.pop(job_id, None)
            self._tally(record, 1)
        return record

    def _record(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            # a transition for a job whose `submitted` append was lost
            # (crash before it) synthesizes one, so replay never explodes
            record = self.jobs[job_id] = JobRecord(job_id=job_id)
        return record

    def _tally(self, record: JobRecord, sign: int) -> None:
        """Add (``sign=1``) or take out (``-1``) one record's counts."""
        self._states[record.state] += sign
        row = self._tenants.setdefault(record.tenant, [0, 0])
        row[1] += sign
        if record.state in ACTIVE_STATES:
            row[0] += sign
        if record.state == "queued":
            _mark(self._queued, record.job_id, sign)
        if record.deduped_from is not None:
            self._dedupe_hits += sign
        if record.result_evicted:
            self._evicted += sign
        elif record.state == "done":
            self._tally_result(record.job_id, sign)

    def _tally_result(self, job_id: str, sign: int) -> None:
        """A live (done, not evicted) result's share of the counters."""
        if job_id not in self._result_sizes:
            _mark(self._unsized, job_id, sign)
        elif self._result_sizes[job_id] is not None:
            self._result_count += sign
            self._result_bytes += sign * self._result_sizes[job_id]

    def _learn_result_size(self, job_id: str, size: Optional[int]) -> None:
        """Record the size of ``job_id``'s result.json in the counters."""
        record = self.jobs.get(job_id)
        live = record is not None and _live_result(record)
        if live:
            self._tally_result(job_id, -1)
        self._result_sizes[job_id] = size
        if live:
            self._tally_result(job_id, 1)

    def _fold(self, record: JobRecord, event: Dict[str, Any]) -> None:
        kind = event.get("type")
        if kind == "submitted":
            record.state = "queued"
            record.tenant = event.get("tenant", record.tenant)
            record.fingerprint = event.get(
                "fingerprint", record.fingerprint
            )
            record.submitted_at = event.get("at", record.submitted_at)
            if "priority" in event:
                record.priority = int(event["priority"])
            return
        if kind == "transition":
            to = event.get("to")
            if to not in JOB_STATES:
                raise ServiceError(
                    f"journal transition to unknown state {to!r}"
                )
            record.state = to
            for key in (
                "worker", "error", "deduped_from", "channel_width",
                "passes_used", "total_wirelength",
            ):
                if key in event:
                    setattr(record, key, event[key])
            if event.get("verified"):
                record.verified = True
            if "attempts" in event:
                record.attempts = event["attempts"]
            if "resumes" in event:
                record.resumes = event["resumes"]
            if event.get("requeue_reason"):
                record.requeues.append(event["requeue_reason"])
            if to in TERMINAL_STATES:
                record.finished_at = event.get("at", _now())
                record.worker = None
            return
        if kind == "cancel_requested":
            record.cancel_requested = True
            return
        if kind == "result_evicted":
            record.result_evicted = True
            return
        raise ServiceError(f"unknown journal event type {kind!r}")

    def _write_snapshot(self, record: JobRecord) -> None:
        """Mirror a record into its ``state.json`` (best effort + faulted)."""
        faults = self.faults
        if faults is not None and faults.should_crash_at("state.write.pre"):
            from ..engine.faults import service_crash

            service_crash("state.write.pre")
        state = record.to_dict()
        checksum = hashlib.sha256(
            json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        if faults is not None and faults.should_corrupt_job_state():
            checksum = "0" * len(checksum)
        os.makedirs(self.job_dir(record.job_id), exist_ok=True)
        _atomic_write_json(
            self.state_path(record.job_id),
            {"schema": STATE_SCHEMA, "checksum": checksum, "state": state},
        )
        if faults is not None and faults.should_crash_at(
            "state.write.post"
        ):
            from ..engine.faults import service_crash

            service_crash("state.write.post")

    def load_snapshot(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Read a job's ``state.json`` if present *and* intact.

        Returns ``None`` for missing or damaged snapshots — the journal
        is the truth, a snapshot is only ever a hint.
        """
        path = self.state_path(job_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != STATE_SCHEMA:
            return None
        state = doc.get("state")
        if not isinstance(state, dict):
            return None
        checksum = hashlib.sha256(
            json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        if doc.get("checksum") != checksum:
            return None
        return state

    # ------------------------------------------------------------------
    # lifecycle operations
    # ------------------------------------------------------------------
    def create_job(
        self,
        request: Dict[str, Any],
        *,
        fingerprint: str,
        tenant: str,
        priority: int = 0,
    ) -> JobRecord:
        """Persist a new job: request file first, then the journal.

        A crash between the two leaves an orphan job directory with a
        request but no journal entry; :meth:`reconcile` adopts it as
        queued, so an acknowledged id is never lost and an unacked one
        is still routed rather than dropped.
        """
        with self.journal.lock():
            # id allocation races with other submitting processes: hold
            # the journal lock across resync + scan + request write +
            # append so two submitters can never mint the same id
            self.refresh()
            job_id = self.next_job_id()
            os.makedirs(self.job_dir(job_id), exist_ok=True)
            _atomic_write_json(self.request_path(job_id), request)
            return self.commit(
                {
                    "type": "submitted",
                    "job": job_id,
                    "tenant": tenant,
                    "fingerprint": fingerprint,
                    "priority": int(priority),
                    "at": _now(),
                }
            )

    def load_request(self, job_id: str) -> Dict[str, Any]:
        path = self.request_path(job_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise ServiceError(
                f"job {job_id}: unreadable request ({exc})"
            ) from exc

    def transition(
        self, job_id: str, to: str, **extra: Any
    ) -> JobRecord:
        """Journal + apply one state transition."""
        event = {"type": "transition", "job": job_id, "to": to,
                 "at": _now(), **extra}
        return self.commit(event)

    def claim(self, job_id: str, worker: str) -> JobRecord:
        record = self.get(job_id)
        record_attempts = record.attempts + 1
        out = self.transition(
            job_id, "running", worker=worker, attempts=record_attempts
        )
        self.heartbeat(job_id, worker)
        return out

    def write_result(self, job_id: str, result_doc: Dict[str, Any]) -> None:
        """Persist ``result.json`` (with its own crash fault points)."""
        faults = self.faults
        if faults is not None and faults.should_crash_at(
            "result.write.pre"
        ):
            from ..engine.faults import service_crash

            service_crash("result.write.pre")
        size = _atomic_write_json(self.result_path(job_id), result_doc)
        self._learn_result_size(job_id, size)
        if faults is not None and faults.should_crash_at(
            "result.write.post"
        ):
            from ..engine.faults import service_crash

            service_crash("result.write.post")

    def finish_done(
        self,
        job_id: str,
        *,
        channel_width: int,
        passes_used: int,
        total_wirelength: float,
        verified: bool,
        deduped_from: Optional[str] = None,
    ) -> JobRecord:
        record = self.transition(
            job_id,
            "done",
            channel_width=channel_width,
            passes_used=passes_used,
            total_wirelength=total_wirelength,
            verified=verified,
            deduped_from=deduped_from,
        )
        fingerprint = record.fingerprint
        if fingerprint and deduped_from is None:
            # the dedupe index points at the job that actually routed
            _atomic_write_json(
                self.index_path(fingerprint),
                {"fingerprint": fingerprint, "job": job_id, "at": _now()},
            )
        self._remove_checkpoint(job_id)
        return record

    def finish_failed(self, job_id: str, error: str) -> JobRecord:
        record = self.transition(job_id, "failed", error=error)
        self._remove_checkpoint(job_id)
        return record

    def requeue(self, job_id: str, reason: str) -> JobRecord:
        return self.transition(
            job_id, "queued", requeue_reason=reason, worker=None
        )

    def _remove_checkpoint(self, job_id: str) -> None:
        path = self.checkpoint_path(job_id)
        if os.path.exists(path):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # result dedupe index
    # ------------------------------------------------------------------
    def lookup_result(self, fingerprint: str) -> Optional[str]:
        """Job id that already routed this fingerprint, if any.

        The pointed-at job must still be ``done`` with its result file
        present — anything else (purged dir, re-queued job) makes the
        index entry stale and it is ignored.
        """
        doc = self._read_index(fingerprint)
        job_id = doc.get("job") if doc is not None else None
        if not isinstance(job_id, str):
            return None
        record = self.jobs.get(job_id)
        if (
            record is None
            or record.state != "done"
            or record.result_evicted
            or not os.path.exists(self.result_path(job_id))
        ):
            return None
        if not self.readonly:
            # stamp the hit: the eviction sweep's LRU ordering is the
            # last time a cached result was *served*, not written
            doc["served_at"] = _now()
            try:
                _atomic_write_json(self.index_path(fingerprint), doc)
            except ServiceError:  # pragma: no cover - disk trouble
                pass
        return job_id

    def _read_index(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """A fingerprint's dedupe index entry, or ``None``."""
        try:
            with open(
                self.index_path(fingerprint), "r", encoding="utf-8"
            ) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    def result_usage(self) -> List[Dict[str, Any]]:
        """Every evictable cached result: job, bytes, last-used stamp.

        Only ``done`` jobs with a live (non-evicted) ``result.json``
        count toward the result store's footprint.  The last-used stamp
        is the LRU key for the eviction sweep: the dedupe index entry's
        ``served_at`` (stamped on every lookup hit) when the job is the
        donor, else the job's own completion time.  Each fingerprint's
        index entry is read once per call, however many jobs share it.
        """
        entries: Dict[str, Optional[Dict[str, Any]]] = {}
        usage = []
        for record in self.records():
            if record.state != "done" or record.result_evicted:
                continue
            try:
                size = os.path.getsize(self.result_path(record.job_id))
            except OSError:
                continue
            fingerprint = record.fingerprint
            if fingerprint not in entries:
                entries[fingerprint] = self._read_index(fingerprint)
            used = record.finished_at or record.submitted_at or 0.0
            doc = entries[fingerprint]
            if doc is not None and doc.get("job") == record.job_id:
                for key in ("served_at", "at"):
                    if isinstance(doc.get(key), (int, float)):
                        used = max(used, doc[key])
                        break
            usage.append(
                {
                    "job": record.job_id,
                    "fingerprint": fingerprint,
                    "bytes": size,
                    "last_used": used,
                }
            )
        return usage

    def evict_result(self, job_id: str) -> JobRecord:
        """Journal, then physically reclaim, one job's cached result.

        Journal-first ordering makes the sweep crash-safe: a crash
        after the append but before the unlink leaves a journaled
        eviction whose cleanup :meth:`reconcile` completes on the next
        open, and replaying the event is idempotent.  The dedupe index
        entry is removed when it points at this job.
        """
        record = self.get(job_id)
        self.commit(
            {"type": "result_evicted", "job": job_id, "at": _now()}
        )
        self._remove_result_files(record)
        return record

    def _remove_result_files(self, record: JobRecord) -> None:
        """Unlink an evicted job's result artifact + its index entry."""
        for path in (
            self.result_path(record.job_id),
            self.trace_path(record.job_id),
        ):
            try:
                os.unlink(path)
            except OSError:
                pass
        doc = self._read_index(record.fingerprint)
        if doc is not None and doc.get("job") == record.job_id:
            try:
                os.unlink(self.index_path(record.fingerprint))
            except OSError:  # pragma: no cover - racing unlink
                pass

    # ------------------------------------------------------------------
    # heartbeats (not journaled — liveness, not history)
    # ------------------------------------------------------------------
    def heartbeat(self, job_id: str, worker: str) -> None:
        try:
            _atomic_write_json(
                self.heartbeat_path(job_id),
                {"worker": worker, "pid": os.getpid(), "at": _now()},
            )
        except ServiceError:  # pragma: no cover - disk full etc.
            pass

    def heartbeat_info(self, job_id: str) -> Optional[Dict[str, Any]]:
        try:
            with open(
                self.heartbeat_path(job_id), "r", encoding="utf-8"
            ) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        return doc if isinstance(doc, dict) else None

    def stale(self, job_id: str, stale_after_s: float) -> bool:
        """Is a running job's owner dead or silent past the threshold?

        A missing heartbeat counts as stale (the claim write itself
        stamps one, so absence means the claimant died immediately);
        a heartbeat from a dead pid is stale regardless of age.
        """
        info = self.heartbeat_info(job_id)
        if info is None:
            return True
        pid = info.get("pid")
        if isinstance(pid, int) and pid != os.getpid():
            try:
                os.kill(pid, 0)
            except OSError:
                return True
        at = info.get("at")
        return not isinstance(at, (int, float)) or (
            _now() - at > stale_after_s
        )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def reconcile(self) -> Dict[str, List[str]]:
        """Startup scan: adopt orphans, requeue interrupted jobs.

        Recovery assumes it is the only live incarnation: requeueing a
        ``running`` job is only correct when its worker is dead.  Only
        the serving/recovering open runs this — inspection opens are
        read-only and submit/cancel opens skip recovery (they append
        under the journal lock instead).

        Returns a summary of what happened, keyed by action:

        * ``adopted`` — job dirs with a request but no journal history
          (crash between the request write and the ``submitted``
          append) journaled as freshly queued;
        * ``requeued`` — jobs journaled ``running``/``checkpointed``
          whose owning process is gone (every previous incarnation of
          the service is, by definition);
        * ``cancelled`` — interrupted jobs with a pending cancel;
        * ``result_lost`` — jobs journaled ``done`` whose result file
          vanished, re-queued to route again (a journaled *eviction* is
          deliberate, not loss: evicted jobs stay ``done``);
        * ``eviction_completed`` — journaled evictions whose file
          cleanup a crash interrupted, finished now;
        * ``snapshot_rebuilt`` — state files that were missing or
          damaged (e.g. the ``corrupt_job_state`` fault) rewritten
          from the journal's truth.
        """
        if self.readonly:
            raise ServiceError(
                f"cannot reconcile read-only job store {self.root!r}"
            )
        summary: Dict[str, List[str]] = {
            "adopted": [],
            "requeued": [],
            "cancelled": [],
            "result_lost": [],
            "eviction_completed": [],
            "snapshot_rebuilt": [],
        }
        jobs_root = os.path.join(self.root, "jobs")
        try:
            on_disk = sorted(os.listdir(jobs_root))
        except OSError:  # pragma: no cover
            on_disk = []
        for name in on_disk:
            if not _JOB_ID_RE.match(name) or name in self.jobs:
                continue
            if not os.path.exists(self.request_path(name)):
                continue
            try:
                request = self.load_request(name)
            except ServiceError:
                continue
            self.commit(
                {
                    "type": "submitted",
                    "job": name,
                    "tenant": request.get("tenant", "default"),
                    "fingerprint": request.get("fingerprint", ""),
                    "priority": int(request.get("priority", 0) or 0),
                    "at": _now(),
                }
            )
            summary["adopted"].append(name)
        for record in self.records():
            if record.state in ("running", "checkpointed"):
                if record.cancel_requested:
                    self.transition(record.job_id, "cancelled")
                    summary["cancelled"].append(record.job_id)
                else:
                    self.requeue(record.job_id, "crash_recovery")
                    summary["requeued"].append(record.job_id)
            elif record.state == "done" and record.result_evicted:
                if os.path.exists(self.result_path(record.job_id)):
                    # a crash landed between the eviction append and
                    # the unlink: finish what the journal promised
                    self._remove_result_files(record)
                    summary["eviction_completed"].append(record.job_id)
            elif record.state == "done":
                # the stat that proves the result is there also sizes
                # it for the counters
                try:
                    size = os.path.getsize(self.result_path(record.job_id))
                except OSError:
                    self.requeue(record.job_id, "result_lost")
                    summary["result_lost"].append(record.job_id)
                else:
                    self._learn_result_size(record.job_id, size)
            elif record.state == "queued" and record.cancel_requested:
                self.transition(record.job_id, "cancelled")
                summary["cancelled"].append(record.job_id)
        for record in self.records():
            snapshot = self.load_snapshot(record.job_id)
            if snapshot != record.to_dict():
                self._write_snapshot(record)
                summary["snapshot_rebuilt"].append(record.job_id)
        return summary
