"""The network front end: ``repro.service`` over HTTP (stdlib asyncio).

One :class:`ServiceHTTP` exposes a :class:`~repro.service.api.
RoutingService` on a TCP socket, so clients submit, watch and fetch
routing jobs over the wire instead of sharing the store's filesystem:

====== ============================ =====================================
method path                         meaning
====== ============================ =====================================
POST   ``/v1/jobs``                 submit (circuit + config + tenant +
                                    priority); 201 with the job record
GET    ``/v1/jobs``                 every job record, submission order
GET    ``/v1/jobs/{id}``            one job's journal-derived record
GET    ``/v1/jobs/{id}/result``     the verified result document (done)
GET    ``/v1/jobs/{id}/events``     live progress as Server-Sent Events
DELETE ``/v1/jobs/{id}``            cancel (immediate/cooperative)
GET    ``/v1/healthz``              liveness + store identity + the
                                    ``ok``/``degraded`` overload status
GET    ``/v1/metrics``              queue depth, per-tenant counts,
                                    dedupe hits, journal/result sizes,
                                    plus the front end's ``http``
                                    section (connections, sheds, SSE)
====== ============================ =====================================

The server is deliberately *thin*: every durable decision still happens
inside :class:`RoutingService` under its journal protocol, so the
kill-anywhere crash contract is inherited — an HTTP submit is acked
only after the ``submitted`` event is fsync'd (a server killed
mid-request has either journaled the job or never acked it; nothing is
half-applied), and a SIGKILL'd server recovers by journal replay at the
next start exactly like the filesystem service does.  Blocking service
calls run on executor threads; the event loop only parses, streams and
writes.

Progress streaming (``/v1/jobs/{id}/events``) is SSE fed by the shared
:class:`~repro.service.hub.EventHub` — one ``log.jsonl`` tailer per
job, no matter how many subscribers watch it:

* each trace event (``repro.engine/trace-v4``: pass summaries,
  checkpoints, heartbeats from the engine) is sent as ``event: trace``
  with ``id:`` equal to its 1-based line number in the log;
* a client that reconnects sends ``Last-Event-ID`` (header or
  ``?last_event_id=`` query) and resumes exactly after the last line it
  saw — the log file is append-only, so ids are stable across server
  restarts *and* across slow-consumer sheds;
* a subscriber that cannot keep up (bounded queue overflow, or a
  socket write stalled past the deadline) is disconnected instead of
  buffered; on reconnect the missed window is replayed from the file;
* ``event: heartbeat`` carries worker liveness while the route is
  between trace events; when the job reaches a terminal state the
  stream flushes the log tail, sends one final ``event: state`` with
  the full record, and closes.

Overload protection (:mod:`repro.service.overload`): connections over
``ServerLimits.max_connections`` are refused with 503 + ``Retry-After``;
request heads and bodies must arrive within deadlines (slow-loris
defense); keep-alive connections are reaped after an idle timeout; and
while the :class:`OverloadPolicy` judges the node degraded (queue
depth, executor backlog or journal lag over thresholds), submits below
the priority floor are shed with 429 + ``Retry-After``.  Every refusal
is counted and visible under ``/v1/metrics``'s ``http`` key, and
``/v1/healthz`` reports ``status: degraded`` with the same reasons.

Errors are structured JSON (``{"error": {"type", "message", ...}}``)
with the library's exception taxonomy mapped onto status codes:
``AdmissionError`` 429 (backpressure, retry later), ``ValidationError``
422 (the request is broken), ``UnknownJobError`` 404, other
``JobError`` 409 (wrong state — including the structured failure record
of a terminally failed job), malformed documents 400, oversize bodies
413, missing ``Content-Length`` 411, chunked uploads 501, everything
else 500.  The typed client (:mod:`repro.service.client`) reverses the
mapping.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
import urllib.parse
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from ..errors import (
    AdmissionError,
    FormatError,
    JobError,
    ReproError,
    ServiceError,
    UnknownJobError,
    ValidationError,
)
from ..io import circuit_from_dict, result_to_dict
from .hub import EventHub
from .overload import HTTPStats, OverloadPolicy, ServerLimits
from .store import TERMINAL_STATES
from .supervisor import config_from_dict

#: wire format marker served by /v1/healthz
HTTP_API_VERSION = 1

#: largest accepted request body (a placed circuit is ~KBs; 64 MiB is
#: far beyond any real device and bounds a hostile request)
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 411: "Length Required",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}


def error_status(exc: BaseException) -> int:
    """The HTTP status an exception maps onto."""
    if isinstance(exc, AdmissionError):
        return 429
    if isinstance(exc, UnknownJobError):
        return 404
    if isinstance(exc, JobError):
        return 409
    if isinstance(exc, ValidationError):
        return 422
    if isinstance(exc, FormatError):
        return 400
    return 500


def error_document(exc: BaseException) -> Dict[str, Any]:
    """One exception as the wire error payload (round-trippable)."""
    doc: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    for attr in ("code", "job_id", "record", "failure", "kind"):
        value = getattr(exc, attr, None)
        if value is not None:
            doc[attr] = value
    report = getattr(exc, "report", None)
    if report is not None:
        try:
            doc["diagnostics"] = [d.render() for d in report.diagnostics]
        except Exception:  # pragma: no cover - diagnostics best effort
            pass
    return {"error": doc}


def _service_error(message: str) -> Dict[str, Any]:
    return {"error": {"type": "ServiceError", "message": message}}


class _RequestError(Exception):
    """A request that must be refused with a structured document.

    Raised out of :meth:`ServiceHTTP._read_request` when the *framing*
    of the request is unacceptable (oversize body, missing length,
    chunked upload, malformed head).  The connection is closed after
    the response — with the framing in doubt there is no safe way to
    resynchronize a keep-alive stream.
    """

    def __init__(self, status: int, doc: Dict[str, Any]):
        self.status = status
        self.doc = doc
        super().__init__(f"HTTP {status}")


def _read_log_lines(
    path: str, skip: int, limit: Optional[int] = None
) -> List[str]:
    """Complete (newline-terminated) lines of a log after ``skip``.

    An unterminated tail is in the middle of being appended — it is
    left for the next poll, so SSE ids always name durable lines.
    ``limit`` bounds one batch so replay never writes unbounded chunks.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
    except OSError:
        return []
    complete = [l.rstrip("\n") for l in lines if l.endswith("\n")]
    if limit is None:
        return complete[skip:]
    return complete[skip:skip + limit]


class ServiceHTTP:
    """Asyncio HTTP front end over one :class:`RoutingService`.

    ``port=0`` binds an ephemeral port; :attr:`bound` carries the real
    ``(host, port)`` after :meth:`start`.  The server handles any
    number of concurrent requests up to ``limits.max_connections``;
    service calls are serialized by the service's own lock on executor
    threads.  ``limits`` governs connections and read deadlines,
    ``overload`` the load-shedding thresholds; both default to
    production-shaped values.  An SSE stream wakes on every commit of
    its job; ``sse_poll_s`` bounds how late it sees new trace-log lines
    and changes made by another process.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sse_poll_s: float = 0.2,
        sse_heartbeat_s: float = 5.0,
        limits: Optional[ServerLimits] = None,
        overload: Optional[OverloadPolicy] = None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.sse_poll_s = sse_poll_s
        self.sse_heartbeat_s = sse_heartbeat_s
        self.limits = limits if limits is not None else ServerLimits()
        self.overload = (
            overload if overload is not None else OverloadPolicy()
        )
        self.stats = HTTPStats()
        self.hub = EventHub(
            service,
            self._call,
            poll_s=sse_poll_s,
            heartbeat_s=sse_heartbeat_s,
            queue_limit=self.limits.sse_queue_limit,
        )
        self.bound: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._on_commit: Optional[Callable[[str], None]] = None
        #: tenant -> submits accepted on the wire but not yet answered
        self._inflight: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.bound = (sockname[0], sockname[1])
        loop = asyncio.get_running_loop()
        poke = self.hub.poke

        def on_commit(job_id: str) -> None:
            loop.call_soon_threadsafe(poke, job_id)

        self._on_commit = on_commit
        self.service.store.add_commit_listener(on_commit)
        return self.bound

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._on_commit is not None:
            self.service.store.remove_commit_listener(self._on_commit)
            self._on_commit = None
        self.hub.shutdown()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one blocking service call off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args
        )

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        stats = self.stats
        if stats.connections_open >= self.limits.max_connections:
            stats.shed_connections += 1
            try:
                await self._respond(
                    writer, 503,
                    _service_error("connection limit reached"),
                    retry_after=self.limits.retry_after_s,
                )
            except Exception:
                pass
            finally:
                await self._close(writer)
            return
        stats.connection_opened()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _RequestError as exc:
                    stats.requests_bad += 1
                    try:
                        await self._respond(
                            writer, exc.status, exc.doc
                        )
                    except Exception:
                        pass
                    return
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    asyncio.TimeoutError,
                    ValueError,
                    ConnectionError,
                ):
                    # EOF, idle/slow-loris timeout, or a head too
                    # broken to answer: close without a response
                    return
                stats.requests_total += 1
                method, path, query, headers, body, keep = request
                try:
                    keep = await self._dispatch(
                        writer, method, path, query, headers, body, keep
                    )
                except (ConnectionError, asyncio.CancelledError):
                    return
                except Exception as exc:  # never kill the accept loop
                    try:
                        await self._respond(
                            writer, error_status(exc),
                            error_document(exc), keep_alive=keep,
                        )
                    except Exception:
                        return
                if not keep:
                    return
        finally:
            stats.connection_closed()
            await self._close(writer)

    async def _close(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """``(method, path, query, headers, body, keep_alive)``.

        The *first* byte may wait up to ``idle_timeout_s`` (keep-alive
        gap between requests); once a request starts arriving the rest
        of the head must land within ``header_timeout_s`` and the body
        within ``body_timeout_s`` — a trickling client is cut off, not
        allowed to pin a connection open (slow-loris defense).
        """
        limits = self.limits
        first = await asyncio.wait_for(
            reader.readexactly(1), limits.idle_timeout_s
        )
        head = first + await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), limits.header_timeout_s
        )
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        method = method.upper()
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep = connection != "close"
        else:
            keep = connection == "keep-alive"
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _RequestError(
                501,
                _service_error(
                    "Transfer-Encoding: chunked is not supported; "
                    "send Content-Length"
                ),
            )
        if method in ("POST", "PUT", "PATCH") \
                and "content-length" not in headers:
            raise _RequestError(
                411,
                _service_error(f"{method} requires Content-Length"),
            )
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _RequestError(
                400, _service_error("malformed Content-Length")
            ) from None
        if length < 0:
            raise _RequestError(
                400, _service_error("malformed Content-Length")
            )
        if length > MAX_BODY_BYTES:
            raise _RequestError(
                413, _service_error("request body too large")
            )
        body = b""
        if length > 0:
            body = await asyncio.wait_for(
                reader.readexactly(length), limits.body_timeout_s
            )
        split = urllib.parse.urlsplit(target)
        query = dict(urllib.parse.parse_qsl(split.query))
        return method, split.path, query, headers, body, keep

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        doc: Any,
        *,
        keep_alive: bool = False,
        retry_after: Optional[float] = None,
    ) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {retry_after:g}\r\n"
        head += "\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # overload assessment
    # ------------------------------------------------------------------
    async def _assess(self) -> Tuple[Dict[str, Any], bool, List[str]]:
        """Pressure snapshot + the policy's verdict; updates stats."""
        pressure = await self._call(self.service.pressure)
        degraded, reasons = self.overload.assess(pressure)
        self.stats.degraded = degraded
        return pressure, degraded, reasons

    def _http_metrics(self) -> Dict[str, Any]:
        doc = self.stats.to_dict()
        hub = self.hub.stats()
        doc["sse"] = {
            "resumes": self.stats.sse_resumes,
            # lagged: a bounded queue overflowed and the subscriber
            # fell back to the log file (connection survived);
            # dropped_slow: the socket stalled writes past the
            # deadline and was disconnected
            "lagged": hub["dropped_slow"],
            "dropped_slow": self.stats.sse_dropped_slow,
            "tails": hub["tails"],
            "tails_started": hub["tails_started"],
            "subscribers": hub["subscribers"],
            "subscribers_peak": hub["subscribers_peak"],
        }
        return doc

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
        keep: bool,
    ) -> bool:
        """Answer one request; returns whether to keep the connection."""
        service = self.service
        segments = [s for s in path.split("/") if s]
        if not segments or segments[0] != "v1":
            await self._respond(
                writer, 404,
                _service_error(f"no such resource {path!r}"),
                keep_alive=keep,
            )
            return keep

        if segments[1:] == ["healthz"] and method == "GET":
            pressure, degraded, reasons = await self._assess()
            await self._respond(
                writer, 200,
                {
                    "ok": True,
                    "status": "degraded" if degraded else "ok",
                    "reasons": reasons,
                    "service": "repro.service",
                    "api_version": HTTP_API_VERSION,
                    "store": service.store.root,
                    "pressure": pressure,
                },
                keep_alive=keep,
            )
            return keep
        if segments[1:] == ["metrics"] and method == "GET":
            doc = await self._call(service.metrics)
            _, degraded, reasons = await self._assess()
            http = self._http_metrics()
            http["degraded"] = degraded
            http["overload_reasons"] = reasons
            doc["http"] = http
            await self._respond(writer, 200, doc, keep_alive=keep)
            return keep
        if segments[1:] == ["jobs"]:
            if method == "GET":
                await self._respond(
                    writer, 200, await self._call(service.jobs),
                    keep_alive=keep,
                )
                return keep
            if method == "POST":
                await self._submit(writer, body, keep)
                return keep
            await self._respond(
                writer, 405,
                _service_error(f"{method} not allowed here"),
                keep_alive=keep,
            )
            return keep
        if len(segments) >= 3 and segments[1] == "jobs":
            job_id = segments[2]
            rest = segments[3:]
            if not rest and method == "GET":
                await self._respond(
                    writer, 200,
                    await self._call(lambda: service.status(job_id)),
                    keep_alive=keep,
                )
                return keep
            if not rest and method == "DELETE":
                record = await self._call(
                    lambda: service.cancel(job_id)
                )
                await self._respond(
                    writer, 200, record.to_dict(), keep_alive=keep
                )
                return keep
            if rest == ["result"] and method == "GET":
                result = await self._call(
                    lambda: service.result(job_id)
                )
                await self._respond(
                    writer, 200, result_to_dict(result),
                    keep_alive=keep,
                )
                return keep
            if rest == ["events"] and method == "GET":
                # an SSE stream owns the connection until it closes
                await self._stream_events(writer, job_id, query, headers)
                return False
        await self._respond(
            writer, 404,
            _service_error(f"no such resource {path!r}"),
            keep_alive=keep,
        )
        return keep

    async def _submit(
        self, writer: asyncio.StreamWriter, body: bytes, keep: bool
    ) -> None:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise FormatError(f"request body is not JSON: {exc}") from None
        if not isinstance(doc, dict) or "circuit" not in doc:
            raise FormatError(
                "submit body must be a JSON object with a 'circuit' key"
            )
        tenant = str(doc.get("tenant") or "default")
        # governance: per-tenant in-flight cap, then load shedding —
        # both refuse *before* the expensive circuit parse
        if (
            self._inflight.get(tenant, 0)
            >= self.limits.max_inflight_per_tenant
        ):
            self.stats.shed_inflight += 1
            exc = AdmissionError(
                f"tenant {tenant!r} has "
                f"{self.limits.max_inflight_per_tenant} submits already "
                f"in flight; retry shortly",
                code="INFLIGHT_LIMIT",
            )
            await self._respond(
                writer, 429, error_document(exc), keep_alive=keep,
                retry_after=self.limits.retry_after_s,
            )
            return
        _, degraded, reasons = await self._assess()
        if degraded:
            try:
                priority = self.service.policy.priority_for(
                    tenant, doc.get("priority")
                )
            except (TypeError, ValueError):
                raise FormatError(
                    "priority must be an integer"
                ) from None
            if self.overload.should_shed(degraded, priority):
                self.stats.shed_submits += 1
                exc = AdmissionError(
                    "service overloaded, low-priority submit shed: "
                    + "; ".join(reasons),
                    code="OVERLOADED",
                )
                await self._respond(
                    writer, 429, error_document(exc), keep_alive=keep,
                    retry_after=self.overload.retry_after_s,
                )
                return
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        try:
            circuit = circuit_from_dict(doc["circuit"], source="<http>")
            config = config_from_dict(doc.get("config") or {})
            kwargs: Dict[str, Any] = {}
            for key in (
                "family", "width", "w_max", "engine", "tenant",
                "priority", "deadline_s", "net_deadline_s",
            ):
                if doc.get(key) is not None:
                    kwargs[key] = doc[key]
            record = await self._call(
                lambda: self.service.submit(
                    circuit, config=config, **kwargs
                )
            )
        finally:
            left = self._inflight.get(tenant, 1) - 1
            if left <= 0:
                self._inflight.pop(tenant, None)
            else:
                self._inflight[tenant] = left
        await self._respond(
            writer, 201, record.to_dict(), keep_alive=keep
        )

    # ------------------------------------------------------------------
    # SSE progress streaming (hub-backed)
    # ------------------------------------------------------------------
    async def _sse_write(
        self, writer: asyncio.StreamWriter, payload: bytes
    ) -> None:
        """Write with a stall deadline instead of unbounded buffering.

        ``drain`` only suspends once the transport buffer crosses its
        high watermark; a subscriber that keeps it suspended past
        ``sse_write_timeout_s`` raises ``TimeoutError`` and is shed by
        the caller.
        """
        writer.write(payload)
        transport = writer.transport
        if transport is not None and transport.get_write_buffer_size():
            await asyncio.wait_for(
                writer.drain(), self.limits.sse_write_timeout_s
            )

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        query: Dict[str, str],
        headers: Dict[str, str],
    ) -> None:
        # existence check first: an unknown job must 404 before any
        # stream bytes are committed
        status = await self._call(lambda: self.service.status(job_id))
        raw = headers.get(
            "last-event-id", query.get("last_event_id", "0")
        )
        try:
            sent = max(0, int(raw))
        except ValueError:
            sent = 0
        limits = self.limits
        if (
            self.hub.subscriber_count() >= limits.max_sse_subscribers
        ):
            self.stats.shed_sse += 1
            exc = AdmissionError(
                "SSE subscriber limit reached; retry shortly",
                code="SSE_LIMIT",
            )
            await self._respond(
                writer, 429, error_document(exc),
                retry_after=limits.retry_after_s,
            )
            return
        if sent > 0:
            self.stats.sse_resumes += 1
        if limits.sse_send_buffer_bytes:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF,
                        limits.sse_send_buffer_bytes,
                    )
                except OSError:  # pragma: no cover - platform specific
                    pass
            if writer.transport is not None:
                writer.transport.set_write_buffer_limits(
                    high=limits.sse_send_buffer_bytes
                )
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b": stream open\n\n"
        )
        await writer.drain()
        log_path = self.service.store.log_path(job_id)
        batch = max(1, limits.sse_queue_limit // 2)

        async def replay_from_file(until: Optional[int]) -> None:
            """Stream lines (sent, until] straight from the log."""
            nonlocal sent
            while until is None or sent < until:
                take = batch if until is None else min(
                    batch, until - sent
                )
                lines = await self._call(
                    _read_log_lines, log_path, sent, take
                )
                if not lines:
                    return
                out = bytearray()
                for line in lines:
                    sent += 1
                    out += (
                        f"id: {sent}\nevent: trace\n"
                        f"data: {line}\n\n".encode("utf-8")
                    )
                await self._sse_write(writer, bytes(out))

        try:
            if status["state"] in TERMINAL_STATES:
                # finished job: no tailer needed, replay the file and
                # close with the terminal record
                await replay_from_file(None)
                await self._sse_write(
                    writer,
                    f"event: state\ndata: "
                    f"{json.dumps(status, sort_keys=True)}\n\n".encode(),
                )
                return
            sub = self.hub.subscribe(job_id)
            try:
                # the tailer had already broadcast events <= start_id
                # before we attached: catch up from the file, then
                # switch to the live queue
                await replay_from_file(sub.start_id)
                while True:
                    if sub.dropped and sub.queue.empty():
                        item = None
                    else:
                        item = await sub.get(timeout=1.0)
                    if item is None:
                        if sub.dropped:
                            # the hub outpaced this consumer's bounded
                            # queue (it tails the log at memory speed; a
                            # socket drains slower under any burst).
                            # Fall back to the file and re-attach — the
                            # connection survives; only a socket whose
                            # *writes* stall past the deadline is
                            # disconnected (TimeoutError below).
                            fresh = self.hub.subscribe(job_id)
                            self.hub.unsubscribe(sub)
                            sub = fresh
                            await replay_from_file(sub.start_id)
                        continue
                    kind, event_id, data = item
                    if kind == "trace":
                        if event_id <= sent:
                            continue  # already caught up from file
                        sent = event_id
                        await self._sse_write(
                            writer,
                            f"id: {event_id}\nevent: trace\n"
                            f"data: {data}\n\n".encode("utf-8"),
                        )
                    else:
                        await self._sse_write(
                            writer,
                            f"event: {kind}\ndata: {data}\n\n".encode(),
                        )
                        if kind == "state":
                            return
            finally:
                self.hub.unsubscribe(sub)
        except asyncio.TimeoutError:
            # socket write stalled past the deadline: shed the slow
            # subscriber; it resumes via Last-Event-ID
            self.stats.sse_dropped_slow += 1
            self._shed_subscriber(writer)

    def _shed_subscriber(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.write(
                b": dropped (slow consumer); "
                b"reconnect with Last-Event-ID\n\n"
            )
        except Exception:
            pass


class BackgroundServer:
    """A :class:`ServiceHTTP` on its own event-loop thread.

    The embedding form (tests, notebooks, a worker process that also
    answers HTTP): ``start()`` returns the bound ``(host, port)``,
    ``stop()`` tears the loop down.  Usable as a context manager.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 **kwargs: Any):
        self.frontend = ServiceHTTP(service, host, port, **kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-http",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServiceError("HTTP front end failed to start in time")
        if self._error is not None:
            raise ServiceError(
                f"HTTP front end failed to start: {self._error!r}"
            )
        assert self.frontend.bound is not None
        return self.frontend.bound

    async def _main(self) -> None:
        try:
            await self.frontend.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        await self._stop_event.wait()
        await self.frontend.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve_http(
    service,
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    workers: int = 1,
    poll_s: float = 0.1,
    install_signal_handlers: bool = True,
    on_bound: Optional[Callable[[Tuple[str, int]], None]] = None,
    limits: Optional[ServerLimits] = None,
    overload: Optional[OverloadPolicy] = None,
) -> int:
    """Run the worker pool *and* the HTTP front end until signalled.

    The worker pool (:meth:`RoutingService.serve`) runs on background
    threads — including its periodic stale-job takeover — while the
    main thread owns the asyncio loop.  SIGTERM/SIGINT request a
    graceful drain: no new claims, in-flight jobs finish, the socket
    closes, and the call returns how many jobs the pool processed.
    """
    frontend = ServiceHTTP(
        service, host, port, limits=limits, overload=overload
    )
    processed: List[int] = [0]

    def pool() -> None:
        processed[0] = service.serve(
            workers=workers,
            poll_s=poll_s,
            install_signal_handlers=False,
        )

    async def main() -> None:
        bound = await frontend.start()
        if on_bound is not None:
            on_bound(bound)
        print(f"http: listening on {bound[0]}:{bound[1]}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def request_stop() -> None:
            service.supervisor.request_drain()
            stop.set()

        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, request_stop)
        worker_thread = threading.Thread(
            target=pool, name="repro-http-pool", daemon=True
        )
        worker_thread.start()
        try:
            await stop.wait()
        finally:
            await frontend.stop()
        while worker_thread.is_alive():
            await asyncio.sleep(0.1)

    asyncio.run(main())
    return processed[0]
