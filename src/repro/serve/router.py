"""Cluster dispatch: the router that places jobs onto serve workers.

:class:`RouterServer` is the :class:`~repro.serve.frontend.JobFrontEnd`
behind ``repro serve --router``: the single front door of a serve
cluster.  The front end owns global job identity (ids, coalescing, the
crash-safe spool journal) exactly as on a single server; this module adds
only how an admitted primary executes — it is dispatched to one of N
worker processes (plain ``repro serve --worker`` servers) and watched to
completion.  Its queue depth counts primaries accepted but not yet
settled.  The design invariants (docs/SERVING.md, "Cluster mode"):

* **Least-in-flight placement.**  Each job goes to the routable worker
  with the fewest of this router's jobs dispatched and not yet finished
  watching (ties broken by URL).  The router counts that itself, so
  placement never waits on a health probe.  Duplicates need no worker
  affinity: the front end coalesces duplicates of queued, running and
  done primaries, and workers share one content-addressed result store (:mod:`repro.analysis.store`)
  whose claims make a second worker wait for — or find — the first
  worker's published blob.
* **Router-pinned ids.**  Dispatches carry the router's job id in the
  batch envelope (``"ids"``, protocol v2), so a job keeps one identity
  on the router, the worker, and the wire.  A worker that already holds
  the id for a different spec answers 409 and the job fails loudly.
* **Worker lifecycle.**  A health monitor polls every worker's
  ``/healthz``; K consecutive failures mark it unhealthy and its
  in-flight jobs re-dispatch to surviving workers.  A worker draining on
  SIGTERM advertises ``draining`` and gets no new jobs while its
  in-flight jobs finish.  Workers can also be added at runtime via
  ``POST /v1/workers/register``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from repro.obs.registry import MetricsRegistry
from repro.serve.frontend import (
    BackgroundFrontEnd,
    JobFrontEnd,
    read_headers,
    wants_close,
)
from repro.serve.jobs import Job
from repro.serve.protocol import QUEUED, ProtocolError

#: Admission queue bound (overridable per instance).
DEFAULT_QUEUE_SIZE = 1024
#: Router tuning, read when a router is constructed: the seconds between
#: health probes of each worker, the consecutive failed probes that mark
#: a worker unhealthy, and the long-poll slice a watcher asks its worker
#: for per round trip.
HEALTH_INTERVAL_S = 1.0
HEALTH_FAILURES = 3
WATCH_POLL_S = 10.0


#: Idle kept-alive connections a router keeps per worker; one more that
#: comes back idle is closed instead.
IDLE_CONNECTIONS = 8


# ----------------------------------------------------------------------
# Minimal async HTTP client (stdlib asyncio streams, kept-alive HTTP/1.1)
# ----------------------------------------------------------------------
class _Unanswered(ConnectionError):
    """The connection failed before a response's status line arrived."""


async def _exchange(reader, writer, host: str, method: str, path: str, payload) -> tuple:
    """One request on an open connection: ``(status, document, close)``,
    where *close* says the worker ends the connection after it."""
    body = b""
    head = [f"{method} {path} HTTP/1.1\r\n", f"Host: {host}\r\n"]
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
        head.append("Content-Type: application/json\r\n")
    head.append(f"Content-Length: {len(body)}\r\n\r\n")
    try:
        writer.write("".join(head).encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
    except ConnectionError as error:
        raise _Unanswered(f"{type(error).__name__}: {error}") from error
    if not status_line:
        raise _Unanswered("connection closed before a response")
    parts = status_line.decode("latin-1").split(maxsplit=2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line: {status_line!r}")
    headers = await read_headers(reader)
    length = int(headers.get("content-length", "0") or "0")
    raw_body = await reader.readexactly(length) if length else b""
    document = json.loads(raw_body.decode("utf-8")) if raw_body else {}
    if not isinstance(document, dict):
        document = {"body": document}
    return int(parts[1]), document, wants_close(parts[0], headers)


async def _worker_request(
    worker: "WorkerHandle",
    method: str,
    path: str,
    payload: dict | None = None,
    timeout: float = 10.0,
) -> tuple[int, dict]:
    """One HTTP exchange with a worker: ``(status, parsed-JSON body)``.

    It takes the newest idle connection from the worker's stack, or opens
    one, and puts it back only after a complete, well-formed exchange; a
    cancelled, timed-out or malformed exchange closes it.  A pooled
    connection that fails before the status line was closed by the worker
    while idle (or by a restart), so the request goes once more on a new
    connection before the failure counts.
    """
    split = urlsplit(worker.url if "//" in worker.url else f"http://{worker.url}")
    host, port = split.hostname or "127.0.0.1", split.port or 80

    async def _on(connection) -> tuple[int, dict]:
        reader, writer = connection or await asyncio.open_connection(host, port)
        try:
            status, document, close = await _exchange(
                reader, writer, host, method, path, payload
            )
        except BaseException:
            writer.close()
            raise
        if close or len(worker.idle) >= IDLE_CONNECTIONS:
            writer.close()
        else:
            worker.idle.append((reader, writer))
        return status, document

    async def _attempt() -> tuple[int, dict]:
        while worker.idle:
            reader, writer = worker.idle.pop()
            if reader.at_eof():  # the worker already closed it
                writer.close()
                continue
            try:
                return await _on((reader, writer))
            except _Unanswered:
                break
        return await _on(None)

    return await asyncio.wait_for(_attempt(), timeout=timeout)


@dataclass
class WorkerHandle:
    """Router-side view of one worker process."""

    url: str
    name: str | None = None
    #: last ``/healthz`` report; shown on the roster, not read by placement
    queue_depth: int = 0
    draining: bool = False
    healthy: bool = True
    consecutive_failures: int = 0
    #: this router's jobs dispatched here and not yet finished watching
    in_flight: int = 0
    registered_at: float = field(default_factory=time.time)
    #: idle kept-alive ``(reader, writer)`` connections, newest last
    idle: list = field(default_factory=list, repr=False)

    @property
    def routable(self) -> bool:
        return self.healthy and not self.draining

    def public(self) -> dict:
        return {
            "url": self.url,
            "name": self.name,
            "queue_depth": self.queue_depth,
            "draining": self.draining,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
        }


class RouterServer(JobFrontEnd):
    """The shared front end over a roster of serve workers."""

    role = "router"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: list[str] | tuple[str, ...] = (),
        spool: Path | str | None = None,
        registry: MetricsRegistry | None = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
    ):
        super().__init__(host, port, queue_size, spool, registry)
        self.health_interval_s = HEALTH_INTERVAL_S
        self.health_failures = HEALTH_FAILURES
        self.watch_poll_s = WATCH_POLL_S
        self.workers: dict[str, WorkerHandle] = {}
        for url in workers:
            self._add_worker(url)
        #: batched dispatch: per-worker buffers of (job, future) waiting
        #: to ride one POST, and the workers with an active flusher.
        self._dispatch_buffers: dict[str, list] = {}
        self._flushing: set[str] = set()
        self._health_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # worker set
    # ------------------------------------------------------------------
    def _add_worker(self, url: str, name: str | None = None) -> WorkerHandle:
        url = url.rstrip("/")
        handle = self.workers.get(url)
        if handle is None:
            handle = WorkerHandle(url=url, name=name)
            self.workers[url] = handle
        elif name is not None:
            handle.name = name
        return handle

    def _routable(self) -> list[WorkerHandle]:
        return [w for w in self.workers.values() if w.routable]

    def _choose_worker(self) -> WorkerHandle | None:
        """The routable worker with the fewest of this router's jobs in
        flight (ties broken by URL), or None when none is routable."""
        return min(self._routable(), key=lambda w: (w.in_flight, w.url), default=None)

    def _roster(self) -> list[dict]:
        return [w.public() for w in sorted(self.workers.values(), key=lambda w: w.url)]

    # ------------------------------------------------------------------
    # the front end's hooks
    # ------------------------------------------------------------------
    def _start_tasks(self) -> None:
        self._health_task = self._spawn(self._health_loop(), "router-health")

    def _begin_drain(self) -> None:
        # Dispatchers return on their own once draining (their jobs stay
        # pending for the journal); only the health loop runs forever.
        if self._health_task is not None:
            self._health_task.cancel()

    async def _close(self) -> None:
        for worker in self.workers.values():
            for _reader, writer in worker.idle:
                writer.close()
            worker.idle.clear()
        await super()._close()

    def _dispatch(self, job: Job) -> None:
        self._spawn(self._dispatch_and_watch(job), f"dispatch-{job.id}")

    def _retry_after(self) -> int:
        workers = max(1, len(self._routable()))
        return max(1, min(60, self.queue_depth() // workers))

    def _health_fields(self) -> dict:
        return {"role": self.role, "workers": len(self._routable())}

    def _role_metrics(self) -> tuple[dict, dict]:
        return {"workers": self._roster()}, {}

    def _role_route(self, method: str, path: str, body: bytes) -> dict | None:
        if path == "/v1/workers" and method == "GET":
            return {"workers": self._roster()}
        if path == "/v1/workers/register" and method == "POST":
            payload = self._json_body(body)
            if not isinstance(payload, dict) or not isinstance(payload.get("url"), str):
                raise ProtocolError("register body must be {'url': ..., 'name'?: ...}")
            name = payload.get("name")
            if name is not None and not isinstance(name, str):
                raise ProtocolError("name must be a string")
            return {"registered": self._add_worker(payload["url"], name=name).public()}
        return None

    # ------------------------------------------------------------------
    # health monitoring
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            await asyncio.gather(
                *(self._probe(worker) for worker in list(self.workers.values())),
                return_exceptions=True,
            )
            await asyncio.sleep(self.health_interval_s)

    async def _probe(self, worker: WorkerHandle) -> None:
        try:
            status, document = await _worker_request(
                worker, "GET", "/healthz", timeout=max(2.0, self.health_interval_s)
            )
        except (OSError, asyncio.TimeoutError, ValueError, ConnectionError):
            status, document = 0, {}
        if status != 200:
            worker.consecutive_failures += 1
            if worker.consecutive_failures >= self.health_failures and worker.healthy:
                worker.healthy = False
                self.registry.counter("router.worker_evictions").inc()
            return
        worker.consecutive_failures = 0
        worker.draining = bool(document.get("draining"))
        depth = document.get("queue_depth")
        if isinstance(depth, int):
            worker.queue_depth = depth
        name = document.get("name")
        if isinstance(name, str) and name:
            worker.name = name
        if not worker.healthy and not worker.draining:
            worker.healthy = True  # recovered: routable again
            self.registry.counter("router.worker_rejoins").inc()

    # ------------------------------------------------------------------
    # dispatch + watch
    # ------------------------------------------------------------------
    async def _send_dispatch(self, worker: WorkerHandle, job: Job) -> tuple[int, dict]:
        """Enqueue *job* for batched POSTing to *worker*.

        Dispatch tasks that place jobs on the same worker in the same
        event-loop tick share one ``POST /v1/jobs`` round-trip (the
        protocol's batch envelope carries all their specs + ids), so a
        1000-job sweep costs tens of worker requests instead of 1000.
        Returns this job's view of the shared response, or raises the
        shared transport error.
        """
        future = asyncio.get_running_loop().create_future()
        self._dispatch_buffers.setdefault(worker.url, []).append((job, future))
        if worker.url not in self._flushing:
            self._flushing.add(worker.url)
            self._spawn(self._flush_dispatches(worker), f"dispatch-flush-{worker.url}")
        return await future

    async def _flush_dispatches(self, worker: WorkerHandle) -> None:
        try:
            await asyncio.sleep(0)  # let same-tick dispatchers pile on
            while True:
                buffer = self._dispatch_buffers.get(worker.url) or []
                if not buffer:
                    return
                entries = buffer[: self.batch]
                del buffer[: len(entries)]
                self.registry.histogram("router.dispatch_batch_size").observe(
                    len(entries)
                )
                await self._post_dispatch(worker, entries)
        finally:
            self._flushing.discard(worker.url)

    async def _post_dispatch(self, worker: WorkerHandle, entries: list) -> None:
        """POST one batch of ``(job, future)`` entries; resolve each future."""
        try:
            status, document = await _worker_request(
                worker,
                "POST",
                "/v1/jobs",
                {
                    "jobs": [job.spec.as_wire() for job, _ in entries],
                    "ids": [job.id for job, _ in entries],
                },
                timeout=10.0,
            )
        except (OSError, asyncio.TimeoutError, ValueError, ConnectionError) as error:
            for _, future in entries:
                if not future.done():
                    future.set_exception(error)
            return
        if status == 409 and len(entries) > 1:
            # A worker refuses the whole batch when one pinned id is held
            # by a different spec; re-send each job alone so only the
            # conflicting ones fail.
            for entry in entries:
                await self._post_dispatch(worker, [entry])
            return
        for _, future in entries:
            if not future.done():
                future.set_result((status, document))

    async def _dispatch_and_watch(self, job: Job) -> None:
        """Place one primary on a worker and follow it to a terminal state.

        Every failed attempt re-enters placement: the roster may have
        changed (dead worker evicted, drain observed), and the shared
        result store guarantees a re-dispatched job never duplicates work
        that already published.
        """
        starve_rounds = 0
        while not job.terminal:
            if self._draining:
                return  # job stays pending; the journal re-dispatches it
            worker = self._choose_worker()
            if worker is None:
                starve_rounds += 1
                self.registry.counter("router.no_workers_waits").inc()
                await asyncio.sleep(min(2.0, 0.1 * starve_rounds))
                continue
            starve_rounds = 0
            worker.in_flight += 1
            try:
                backoff = await self._run_on(worker, job)
            finally:
                worker.in_flight -= 1
            if backoff is None:
                return
            await asyncio.sleep(backoff)

    async def _run_on(self, worker: WorkerHandle, job: Job) -> float | None:
        """Dispatch *job* to *worker* and watch it, unless the worker's
        receipt says it is already done and carries its document.

        Returns None once the job needs no more placing (settled, or left
        pending for the journal by a drain), else the seconds to wait
        before placing it again.
        """
        try:
            status, document = await self._send_dispatch(worker, job)
        except (OSError, asyncio.TimeoutError, ValueError, ConnectionError):
            worker.consecutive_failures += 1
            self.registry.counter("router.dispatch_errors").inc()
            return 0.1
        if status in (429, 503):
            return 0.2  # worker backpressure: place again after a pause
        if status >= 400:
            self._settle(
                job, None, f"worker {worker.url} rejected dispatch: HTTP {status}: "
                f"{document.get('error', 'unknown')}"
            )
            return None
        self.registry.counter("router.dispatches").inc()
        receipt = next(
            (r for r in document.get("jobs", ()) if r.get("id") == job.id), {}
        )
        if receipt.get("status") == "done" and "document" in receipt:
            # The worker already finished this id: no watch needed.
            self._settle(job, receipt["document"].get("result"))
            return None
        if await self._watch(job, worker):
            return None
        self.registry.counter("router.redispatches").inc()
        return 0.0

    async def _watch(self, job: Job, worker: WorkerHandle) -> bool:
        """Long-poll *worker* until *job* settles; False to re-dispatch."""
        misses = 0
        while not job.terminal:
            if self._draining:
                return True  # leave pending for the journal
            try:
                status, document = await _worker_request(
                    worker,
                    "GET",
                    f"/v1/jobs/{job.id}?wait={self.watch_poll_s:g}",
                    timeout=self.watch_poll_s + 5.0,
                )
            except (OSError, asyncio.TimeoutError, ValueError, ConnectionError):
                misses += 1
                if misses >= 2 or not worker.routable:
                    return False  # worker presumed gone: re-dispatch
                await asyncio.sleep(0.2)
                continue
            misses = 0
            if status == 404:
                # The worker restarted without its table: re-dispatch.
                return False
            if status != 200:
                await asyncio.sleep(0.2)
                continue
            if document.get("status") == "running" and job.status == QUEUED:
                self.table.mark_running(job)  # mirror for status listings
            if document.get("status") in ("done", "failed", "cancelled"):
                self._settle(job, document.get("result"), document.get("error"))
                return True
        return True


#: A RouterServer on its own thread + event loop (tests, fixtures).
BackgroundRouter = functools.partial(BackgroundFrontEnd, RouterServer)
