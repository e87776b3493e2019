"""The one job front end shared by ``repro serve`` and ``repro serve --router``.

Stdlib-only (``asyncio.start_server`` plus a minimal HTTP/1.1 framing
layer that keeps connections open).  :class:`JobFrontEnd` owns
everything a client sees (see docs/SERVING.md for the full API
reference):

* ``POST /v1/jobs``      — submit one spec or ``{"jobs": [...], "ids"?:
  [...]}``; 202 with per-job receipts (a ``done`` one carries its job
  document), 429 + ``Retry-After`` when the queue is full, 409 when a
  pinned id is already held by a different spec;
* ``GET /v1/jobs``       — list jobs (``?status=`` filter);
* ``GET /v1/jobs/{id}``  — status/result; ``?wait=SECONDS`` long-polls;
* ``DELETE /v1/jobs/{id}`` — cancel a job that has not started;
* ``GET /metrics``       — the MetricsRegistry plus derived queue depth
  and p50/p90/p99 job latency;
* ``GET /healthz``       — liveness, drain state and queue depth.

It also owns the job lifecycle: the :class:`~repro.serve.jobs.JobTable`
with singleflight coalescing, the crash-safe spool journal, all-or-nothing
admission, recovery on start and the graceful drain on ``SIGTERM``.
Every transition — submit, settle, cancel — happens here, once.

A subclass decides only how an admitted primary is executed:
:class:`~repro.serve.server.ServeServer` runs it on local worker tasks,
:class:`~repro.serve.router.RouterServer` shards it onto remote workers.
Its ``role`` prefixes every metric name and keys the ``/metrics`` section.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.obs.registry import MetricsRegistry
from repro.serve.jobs import Job, JobTable, SpoolJournal
from repro.serve.protocol import (
    DONE,
    PROTOCOL_VERSION,
    QUEUED,
    ProtocolError,
    parse_batch_with_ids,
)

#: Long-poll waits are capped so a drain is never held hostage.
MAX_LONGPOLL_S = 30.0
_LONGPOLL_SLICE_S = 0.25
#: A kept-alive connection that waits this long for its next request is
#: closed; the client opens a new one for its next request.
KEEPALIVE_IDLE_S = 5.0

_JSON_HEADERS = "Content-Type: application/json\r\n"


#: Max jobs one batched execution (or one router→worker POST) carries.
BATCH = 8


class _HttpError(Exception):
    """Internal: mapped to an HTTP error response."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: dict | None = None,
        payload: dict | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        #: extra fields merged into the JSON error body (e.g. the id
        #: watermark on 404s, so clients can classify missing jobs).
        self.payload = payload or {}


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _encode_response(status: int, payload: dict, extra_headers: dict | None = None) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n",
        _JSON_HEADERS,
        f"Content-Length: {len(body)}\r\n",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}\r\n")
    lines.append("\r\n")
    return "".join(lines).encode("latin-1") + body


def _closing(response: bytes) -> bytes:
    """*response* with ``Connection: close`` after its status line."""
    status_line, _, rest = response.partition(b"\r\n")
    return status_line + b"\r\nConnection: close\r\n" + rest


def wants_close(version: str, headers: dict[str, str]) -> bool:
    """Whether a message of HTTP *version* with *headers* ends its
    connection: HTTP/1.1 keeps it open unless ``Connection: close``."""
    return version != "HTTP/1.1" or "close" in headers.get("connection", "").lower()


async def read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """Read header lines up to the blank line: ``{lowercased name: value}``."""
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def _read_request(reader: asyncio.StreamReader, request_line: bytes):
    """Parse the rest of one HTTP/1.1 request after its *request_line*:
    (method, path, query, body-bytes, close-after-response)."""
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers = await read_headers(reader)
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if length < 0 or length > 64 * 1024 * 1024:
        raise _HttpError(400, "unreasonable Content-Length")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {key: values[-1] for key, values in parse_qs(split.query).items()}
    close = wants_close(version, headers)
    return method.upper(), split.path.rstrip("/") or "/", query, body, close


def _latency_quantiles(histogram) -> dict:
    """p50/p90/p99 bucket labels of a latency histogram (None when empty)."""
    quantiles = {"p50": None, "p90": None, "p99": None}
    if histogram is None or not histogram.total:
        return quantiles
    points = sorted(histogram.buckets.items())
    for label, fraction in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        threshold = fraction * histogram.total
        seen = 0
        for bucket, count in points:
            seen += count
            if seen >= threshold:
                quantiles[label] = bucket
                break
    return quantiles


class JobFrontEnd:
    """HTTP front door, job table, journal and admission for one role.

    Subclasses set ``role`` and implement the hooks below; only
    :meth:`_role_route` has a default.
    """

    #: metric-name prefix and ``/metrics`` section key
    role: str

    def __init__(
        self,
        host: str,
        port: int,
        queue_size: int,
        spool: Path | str | None = None,
    ):
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.batch = BATCH
        self.registry = MetricsRegistry()
        self.table = JobTable()
        self.journal = SpoolJournal(spool) if spool is not None else None
        #: ids of the primaries holding an admission slot (see
        #: :meth:`queue_depth`); a set makes every release idempotent,
        #: so no path frees a slot twice.
        self._slots: set[str] = set()
        #: background tasks (workers, dispatchers, probes) a drain awaits
        #: and an abort cancels.
        self._tasks: set[asyncio.Task] = set()
        self._draining = False
        self._drained = asyncio.Event()
        #: connection handler tasks, and the connections among them that
        #: wait for their next request: closing the front end closes those
        #: and awaits every handler.
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._server: asyncio.base_events.Server | None = None
        self._started_at = time.time()
        self.recovered = 0

    # ------------------------------------------------------------------
    # what a role supplies
    # ------------------------------------------------------------------
    def _dispatch(self, job: Job) -> None:
        """Hand an admitted primary (holding a slot) to the executor."""
        raise NotImplementedError

    def _retry_after(self) -> int:
        """Backpressure hint: expected seconds until queue space frees."""
        raise NotImplementedError

    def _health_fields(self) -> dict:
        """Role-specific ``/healthz`` fields."""
        raise NotImplementedError

    def _role_metrics(self) -> tuple[dict, dict]:
        """``(section fields, extra metrics)`` for ``/metrics``.

        Called before the registry is read, so a role may refresh its own
        gauges there first.
        """
        raise NotImplementedError

    def _start_tasks(self) -> None:
        """Spawn the role's background tasks once the socket is bound."""
        raise NotImplementedError

    def _begin_drain(self) -> None:
        """Ask the role's background tasks to finish (graceful drain)."""
        raise NotImplementedError

    def _role_route(self, method: str, path: str, body: bytes) -> dict | None:
        """A 200 JSON payload for a role-only route, or None (404)."""
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover the spool, bind the socket, start the role's tasks."""
        self._recover()
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._start_tasks()

    def _recover(self) -> None:
        if self.journal is None:
            return
        for job_id, spec in self.journal.recover():
            job, coalesced = self.table.submit(spec, job_id=job_id)
            if not coalesced:
                self._admit(job)
            self.recovered += 1
        # Honour the journal's id watermark so ids of jobs that completed
        # before the previous shutdown are never reissued.
        self.table.reserve_next_id(self.journal.next_id)
        if self.recovered:
            self.registry.counter(f"{self.role}.recovered").inc(self.recovered)
        # Drop stale done-markers (and any torn tail) from the journal.
        self.journal.compact(self.table.pending(), next_id=self.table.next_id)

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, persist the rest."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self._begin_drain()
        await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self.journal is not None:
            self.journal.compact(self.table.pending(), next_id=self.table.next_id)
        await self._close()

    async def abort(self) -> None:
        """Hard stop (simulated crash): no drain, no journal compaction."""
        self._draining = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self._close()

    async def _close(self) -> None:
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            # Python 3.12's wait_closed waits for live handlers and 3.11's
            # does not; awaiting them here behaves the same on both.
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
        self._drained.set()

    async def run_until_signalled(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain (CLI entry point)."""
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await self.drain()

    def _spawn(self, coroutine, name: str) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coroutine, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # ------------------------------------------------------------------
    # job lifecycle: admit, release, settle
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Primaries holding an admission slot; 429 admission reads this.

        A server frees the slot when a worker starts the job ("queued,
        not started"), a router when the job settles ("accepted, not
        settled"); a cancel frees it in both.
        """
        return len(self._slots)

    def _admit(self, job: Job) -> None:
        self._slots.add(job.id)
        self._dispatch(job)

    def _release(self, job: Job) -> None:
        self._slots.discard(job.id)

    def _settle(self, job: Job, result: dict | None = None, error: str | None = None) -> None:
        """Finish a primary: fan out, count, time, journal, free its slot."""
        if job.terminal:
            return
        self._release(job)
        self._record_settled(self.table.finish(job, result=result, error=error))

    def _record_settled(self, settled: list[Job]) -> None:
        """Count, time and journal jobs that just finished done or failed."""
        outcome = "completed" if settled[0].error is None else "failed"
        self.registry.counter(f"{self.role}.{outcome}").inc(len(settled))
        for done_job in settled:
            latency_ms = int((done_job.finished_at - done_job.submitted_at) * 1000)
            self.registry.histogram(f"{self.role}.job_latency_ms").observe(latency_ms)
            if self.journal is not None:
                self.journal.record_done(done_job)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Answer requests on one connection until the peer closes it,
        a request asks for ``Connection: close``, the server drains, or
        it sits idle for :data:`KEEPALIVE_IDLE_S`."""
        self.registry.counter(f"{self.role}.http_connections").inc()
        loop = asyncio.get_running_loop()
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            close = False
            while not close:
                self._idle.add(writer)
                idle_timer = loop.call_later(KEEPALIVE_IDLE_S, writer.close)
                try:
                    request_line = await reader.readline()
                finally:
                    idle_timer.cancel()
                    self._idle.discard(writer)
                if not request_line:
                    return
                # A request whose framing cannot be parsed ends the
                # connection: the next request's first byte is unknown.
                close = True
                try:
                    method, path, query, body, close = await _read_request(
                        reader, request_line
                    )
                    self.registry.counter(f"{self.role}.http_requests").inc()
                    response = await self._route(method, path, query, body)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except _HttpError as error:
                    response = _encode_response(
                        error.status, {"error": str(error), **error.payload}, error.headers
                    )
                except ProtocolError as error:
                    response = _encode_response(400, {"error": str(error)})
                except Exception as error:  # noqa: BLE001 - never kill the acceptor
                    self.registry.counter(f"{self.role}.http_errors").inc()
                    response = _encode_response(
                        500, {"error": f"{type(error).__name__}: {error}"}
                    )
                close = close or self._draining
                if close:
                    response = _closing(response)
                writer.write(response)
                await writer.drain()
        except (ConnectionError, ValueError):  # ValueError: a line over the stream limit
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            self._handlers.discard(handler)

    async def _route(self, method: str, path: str, query: dict, body: bytes) -> bytes:
        if path == "/healthz" and method == "GET":
            return _encode_response(
                200,
                {
                    "ok": True,
                    "draining": self._draining,
                    "queue_depth": self.queue_depth(),
                    "protocol_version": PROTOCOL_VERSION,
                    **self._health_fields(),
                },
            )
        if path == "/metrics" and method == "GET":
            return _encode_response(200, self._metrics_document())
        if path == "/v1/jobs":
            if method == "POST":
                return self._post_jobs(body)
            if method == "GET":
                return self._list_jobs(query)
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if method == "GET":
                return await self._get_job(job_id, query)
            if method == "DELETE":
                return self._cancel_job(job_id)
            raise _HttpError(405, f"{method} not allowed on {path}")
        payload = self._role_route(method, path, body)
        if payload is None:
            raise _HttpError(404, f"no route for {method} {path}")
        return _encode_response(200, payload)

    @staticmethod
    def _json_body(body: bytes):
        try:
            return json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}") from None

    def _post_jobs(self, body: bytes) -> bytes:
        if self._draining:
            raise _HttpError(503, "server is draining", {"Retry-After": "5"})
        specs, pinned_ids = parse_batch_with_ids(self._json_body(body))
        ids = pinned_ids if pinned_ids is not None else [None] * len(specs)
        # Everything is checked before anything is admitted, so a rejected
        # request leaves no partial state for the client's retry to hit.
        # A pinned id (the router re-dispatching, or a client pinning its
        # own) may only name the spec it already holds: re-dispatch of the
        # same spec is idempotent, a different spec is a conflict.
        pinned: dict[str, str] = {}
        new_fingerprints: set[str] = set()
        digests = [spec.fingerprint() for spec in specs]
        for digest, job_id in zip(digests, ids):
            if job_id is not None:
                held = self.table.jobs.get(job_id)
                holder = pinned.setdefault(job_id, held.fingerprint if held else digest)
                if holder != digest:
                    raise _HttpError(409, f"job id {job_id} is held by a different spec")
                if held is not None:
                    continue
            if self.table.primary(digest) is None:
                new_fingerprints.add(digest)
        depth = self.queue_depth()
        if depth + len(new_fingerprints) > self.queue_size:
            self.registry.counter(f"{self.role}.rejected_429").inc()
            raise _HttpError(
                429,
                f"queue full ({depth}/{self.queue_size} queued)",
                {"Retry-After": str(self._retry_after())},
            )
        accepted = []
        for spec, digest, job_id in zip(specs, digests, ids):
            job = self.table.jobs.get(job_id) if job_id is not None else None
            if job is None:
                job, coalesced = self.table.submit(spec, job_id=job_id, fingerprint=digest)
                if self.journal is not None:
                    self.journal.record_submit(job)
                if coalesced:
                    self.registry.counter(f"{self.role}.coalesce_hits").inc()
                    if job.terminal:  # answered from a finished primary
                        self._record_settled([job])
                else:
                    self._admit(job)
                self.registry.counter(f"{self.role}.submitted").inc()
            receipt = {
                "id": job.id,
                "status": job.status,
                "fingerprint": job.fingerprint,
                "coalesced": job.coalesced_into is not None,
                "coalesced_into": job.coalesced_into,
            }
            if job.status == DONE:
                # A done job's document is final: the receipt carries what
                # its GET would return, so the client needs no round trip.
                receipt["document"] = job.public()
            accepted.append(receipt)
        return _encode_response(202, {"protocol_version": PROTOCOL_VERSION, "jobs": accepted})

    def _list_jobs(self, query: dict) -> bytes:
        status = query.get("status")
        jobs = [
            job.public(include_result=False)
            for job in sorted(self.table.jobs.values(), key=lambda j: j.id)
            if status is None or job.status == status
        ]
        return _encode_response(200, {"jobs": jobs})

    def _job(self, job_id: str) -> Job:
        job = self.table.jobs.get(job_id)
        if job is None:
            # The id watermark lets clients tell "completed before a
            # restart and compacted away" from "never issued".
            raise _HttpError(
                404,
                f"no such job {job_id!r}",
                payload={"next_id": self.table.next_id},
            )
        return job

    async def _get_job(self, job_id: str, query: dict) -> bytes:
        job = self._job(job_id)
        wait = 0.0
        if "wait" in query:
            try:
                wait = min(MAX_LONGPOLL_S, max(0.0, float(query["wait"])))
            except ValueError:
                raise _HttpError(400, "wait must be a number of seconds") from None
        deadline = time.monotonic() + wait
        while not job.terminal and time.monotonic() < deadline and not self._draining:
            remaining = deadline - time.monotonic()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    job.done_event.wait(), timeout=min(_LONGPOLL_SLICE_S, remaining)
                )
        return _encode_response(200, job.public())

    def _cancel_job(self, job_id: str) -> bytes:
        job = self._job(job_id)
        if job.terminal:
            return _encode_response(200, job.public(include_result=False))
        if job.status != QUEUED:
            raise _HttpError(409, f"job {job_id} is {job.status}; only queued jobs cancel")
        settled = self.table.cancel(job)
        self._release(job)
        self.registry.counter(f"{self.role}.cancelled").inc(len(settled))
        if self.journal is not None:
            for cancelled in settled:
                self.journal.record_done(cancelled)
        return _encode_response(200, job.public(include_result=False))

    # ------------------------------------------------------------------
    def _metrics_document(self) -> dict:
        depth = self.queue_depth()
        self.registry.counter(f"{self.role}.queue_depth").set(depth)
        fields, extra_metrics = self._role_metrics()
        metrics = self.registry.as_dict()
        metrics.update(extra_metrics)
        return {
            "protocol_version": PROTOCOL_VERSION,
            self.role: {
                "draining": self._draining,
                "queue_depth": depth,
                "queue_size": self.queue_size,
                "jobs_total": len(self.table.jobs),
                "uptime_s": round(time.time() - self._started_at, 3),
                "latency_ms": _latency_quantiles(
                    self.registry.get(f"{self.role}.job_latency_ms")
                ),
                **fields,
            },
            "metrics": metrics,
        }


# ----------------------------------------------------------------------
# Embedding helpers
# ----------------------------------------------------------------------
def run_server(frontend: JobFrontEnd, announce=None) -> int:
    """Blocking entry point used by ``repro serve``; returns exit code."""

    async def main() -> None:
        await frontend.start()
        if announce is not None:
            announce(frontend)
        await frontend.run_until_signalled()

    asyncio.run(main())
    return 0
