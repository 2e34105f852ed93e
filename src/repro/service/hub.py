"""Shared SSE broadcast hub: one ``log.jsonl`` tailer per job.

The first front end streamed events with one poll task per subscriber
— N subscribers on one job meant N file re-reads and N status polls
per poll interval, O(N·L) work for an L-line log.  The hub replaces
that with a single tail task per job that reads the trace log
incrementally (byte-offset cursor, never re-reading delivered bytes)
and fans each event out into a bounded :class:`asyncio.Queue` per
subscriber.

Backpressure is resolved by *shedding, not buffering*: when a
subscriber's queue is full the hub marks it dropped and forgets it.
The hub tails the log at memory speed, so any real socket lags under
a burst — the HTTP handler treats the drop as recoverable, replays
the missed window straight from the log file and re-attaches without
closing the stream.  Only a socket whose *writes* stall past the
deadline is disconnected; that client reconnects with
``Last-Event-ID`` and the same file replay makes the disconnect
lossless end-to-end, while the hub's memory stays bounded at
``queue_limit`` events per subscriber.

A tail sleeps until :meth:`EventHub.poke` says a journal commit
changed its job (the HTTP front end registers a store commit listener
for that), or for at most ``poll_s``: the bound for trace-log lines and
for changes another process makes.

All hub bookkeeping runs on the server's event loop — no locks.  Only
``stats()`` may be called from other threads (reads of ints/dict
sizes, atomic under the GIL).  Blocking file/service calls are pushed
to the executor through the ``call`` coroutine supplied by the owner.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from .store import TERMINAL_STATES

__all__ = ["EventHub", "LogCursor", "Subscription"]

#: queue item: (kind, event id, payload json/text).  ``id`` is the
#: 1-based log line number for ``trace`` events and 0 for the id-less
#: ``heartbeat``/``state`` events.
Event = Tuple[str, int, str]


class LogCursor:
    """Incremental reader over an append-only JSONL file.

    The byte offset only ever advances past *complete* (newline
    terminated) consumed lines, so a line torn mid-append is simply
    re-read on the next call once its newline lands — no partial-line
    buffering, and byte accounting stays exact.
    """

    #: bytes fetched per read when a line limit is in force; generous
    #: versus typical ~200-byte trace lines.
    CHUNK = 1 << 18

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0
        #: number of complete lines consumed so far (== last event id)
        self.line = 0

    def read(self, limit: Optional[int] = None) -> List[str]:
        """Return up to ``limit`` newly appended complete lines."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read(-1 if limit is None else self.CHUNK)
        except OSError:
            return []
        end = chunk.rfind(b"\n")
        if end < 0:
            return []
        pieces = chunk[: end + 1].split(b"\n")[:-1]
        if limit is not None and len(pieces) > limit:
            pieces = pieces[:limit]
        self._offset += sum(len(p) + 1 for p in pieces)
        self.line += len(pieces)
        return [p.decode("utf-8", "replace") for p in pieces]


class Subscription:
    """One subscriber's bounded view of a job's event feed."""

    __slots__ = ("job_id", "queue", "start_id", "dropped")

    def __init__(self, job_id: str, start_id: int, maxsize: int) -> None:
        self.job_id = job_id
        self.queue: "asyncio.Queue[Event]" = asyncio.Queue(maxsize=maxsize)
        #: last event id the shared tailer had broadcast when this
        #: subscriber attached; events <= start_id must be caught up
        #: from the log file, events > start_id arrive via the queue.
        self.start_id = start_id
        #: set by the hub when the queue overflowed; the subscriber
        #: must close its stream and let the client reconnect.
        self.dropped = False

    async def get(self, timeout: float) -> Optional[Event]:
        """Next event, or ``None`` on timeout (caller checks dropped)."""
        try:
            return await asyncio.wait_for(self.queue.get(), timeout)
        except asyncio.TimeoutError:
            return None


class _Tail:
    __slots__ = (
        "job_id", "cursor", "sent", "subs", "task", "last_beat", "wake",
    )

    def __init__(self, job_id: str, cursor: LogCursor) -> None:
        self.job_id = job_id
        self.cursor = cursor
        #: id of the last trace event broadcast to queues
        self.sent = 0
        self.subs: set = set()
        self.task: Optional["asyncio.Task[None]"] = None
        self.last_beat = 0.0
        #: set by :meth:`EventHub.poke` when a commit changed the job
        self.wake = asyncio.Event()


class EventHub:
    """Fan-out registry: job id -> single tail task -> N queues."""

    def __init__(
        self,
        service: Any,
        call: Callable[..., Awaitable[Any]],
        *,
        poll_s: float = 0.2,
        heartbeat_s: float = 5.0,
        queue_limit: int = 256,
    ) -> None:
        self._service = service
        self._call = call
        self._poll_s = poll_s
        self._heartbeat_s = heartbeat_s
        self._queue_limit = queue_limit
        #: lines broadcast per scheduling slice; bounded well under the
        #: queue limit so consumers get the loop between batches and a
        #: healthy subscriber is never overflowed by one large read.
        self._batch = max(1, queue_limit // 4)
        self._tails: Dict[str, _Tail] = {}
        self.tails_started = 0
        self.subscribers_peak = 0
        self.dropped_slow = 0

    # -- subscriber lifecycle (event loop only) -----------------------

    def subscribe(self, job_id: str) -> Subscription:
        tail = self._tails.get(job_id)
        if tail is None:
            tail = _Tail(job_id, LogCursor(self._service.store.log_path(job_id)))
            tail.last_beat = time.monotonic()
            self._tails[job_id] = tail
            tail.task = asyncio.get_running_loop().create_task(
                self._run(tail)
            )
            self.tails_started += 1
        sub = Subscription(job_id, tail.sent, self._queue_limit)
        tail.subs.add(sub)
        count = self.subscriber_count()
        if count > self.subscribers_peak:
            self.subscribers_peak = count
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        tail = self._tails.get(sub.job_id)
        if tail is None:
            return
        tail.subs.discard(sub)
        if not tail.subs and tail.task is not None:
            tail.task.cancel()
            self._tails.pop(sub.job_id, None)

    def poke(self, job_id: str) -> None:
        """Wake ``job_id``'s tail now: a commit changed the job."""
        tail = self._tails.get(job_id)
        if tail is not None:
            tail.wake.set()

    def shutdown(self) -> None:
        for tail in list(self._tails.values()):
            if tail.task is not None:
                tail.task.cancel()
        self._tails.clear()

    # -- introspection (any thread) -----------------------------------

    def subscriber_count(self) -> int:
        return sum(len(t.subs) for t in self._tails.values())

    def stats(self) -> Dict[str, Any]:
        return {
            "tails": len(self._tails),
            "tails_started": self.tails_started,
            "subscribers": self.subscriber_count(),
            "subscribers_peak": self.subscribers_peak,
            "dropped_slow": self.dropped_slow,
        }

    # -- the shared tailer --------------------------------------------

    def _broadcast(self, tail: _Tail, event: Event) -> None:
        for sub in list(tail.subs):
            try:
                sub.queue.put_nowait(event)
            except asyncio.QueueFull:
                # shed, don't buffer: the subscriber resumes via
                # Last-Event-ID after its handler notices ``dropped``
                sub.dropped = True
                tail.subs.discard(sub)
                self.dropped_slow += 1

    async def _flush(self, tail: _Tail) -> bool:
        """Broadcast all newly appended lines; True if any flowed."""
        flowed = False
        while True:
            lines = await self._call(tail.cursor.read, self._batch)
            if not lines:
                return flowed
            flowed = True
            for line in lines:
                tail.sent += 1
                self._broadcast(tail, ("trace", tail.sent, line))
            # yield so subscriber coroutines drain between batches
            await asyncio.sleep(0)

    async def _run(self, tail: _Tail) -> None:
        service = self._service
        try:
            while True:
                # cleared before the reads, so a commit that lands
                # while they run wakes the next wait at once
                tail.wake.clear()
                if await self._flush(tail):
                    tail.last_beat = time.monotonic()
                try:
                    status = await self._call(service.status, tail.job_id)
                except Exception:
                    # job vanished or store failed: end the feed; the
                    # per-subscriber handlers surface the close.
                    return
                if status.get("state") in TERMINAL_STATES:
                    await self._flush(tail)
                    self._broadcast(
                        tail,
                        ("state", 0, json.dumps(status, sort_keys=True)),
                    )
                    return
                now = time.monotonic()
                if now - tail.last_beat >= self._heartbeat_s:
                    tail.last_beat = now
                    try:
                        beat = await self._call(
                            service.store.heartbeat_info, tail.job_id
                        )
                    except Exception:
                        beat = None
                    payload = {
                        "at": time.time(),
                        "state": status.get("state"),
                        "worker": (beat or {}).get("worker"),
                    }
                    self._broadcast(
                        tail,
                        (
                            "heartbeat",
                            0,
                            json.dumps(payload, sort_keys=True),
                        ),
                    )
                try:
                    await asyncio.wait_for(tail.wake.wait(), self._poll_s)
                except asyncio.TimeoutError:
                    pass
        except asyncio.CancelledError:
            raise
        finally:
            if self._tails.get(tail.job_id) is tail:
                self._tails.pop(tail.job_id, None)
