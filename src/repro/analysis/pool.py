"""Persistent warm worker pool with batched (chunked) dispatch.

:func:`repro.analysis.parallel.run_jobs` fans every multi-job dispatch
out over this pool.  A fresh process pool per call would pay ~100 ms of
worker spawn + cold module import per fan-out, which dwarfs a ~2.4 ms
native-backend simulation, so this module keeps the workers *alive*
instead:

* **Warm processes.** A :class:`WorkerPool` spawns its workers once
  (lazily, on the first dispatch) and reuses them across every
  subsequent sweep in the process.  Modules are imported and backends
  resolved once per worker lifetime, not once per call.
* **Adaptive chunking.** Jobs are packed into chunks sized from the
  measured per-job cost (EWMA, targeting :data:`CHUNK_MS` of work
  per chunk) so one IPC round-trip amortizes over many short
  simulations while long jobs still spread across workers.  A chunk
  ships its :class:`~repro.analysis.parallel.Job` values as they are;
  its pickle stores each config the jobs share once.
* **Same answers.** Results return in submission order, outputs are
  byte-identical to inline execution (each job runs the exact
  :func:`~repro.analysis.parallel.execute_job` path), and a job that
  raises re-raises the same exception in the caller.
* **Lifecycle.** Lazy start, idle reap after :data:`IDLE_S` of disuse,
  crash-replace-and-retry when a worker dies mid-chunk (bounded by
  :data:`RETRIES`), and an ``atexit`` shutdown hook.  A worker exits
  when its parent dies: it holds no copy of any parent-side pipe end,
  so its ``recv`` sees EOF.

The pool size defaults to :func:`~repro.analysis.parallel.default_jobs`
(``REPRO_JOBS``, else the CPU count).  A pool reads :data:`CHUNK_MS`,
:data:`IDLE_S` and :data:`RETRIES` when it is constructed.  The pool runs
:class:`~repro.analysis.parallel.Job` values only; trace replays run
inline in their caller.

The pool publishes its own :class:`~repro.obs.registry.MetricsRegistry`
(``pool.*`` names) which the serve ``/metrics`` endpoint and the
``repro prefetch`` summary merge in.
"""

from __future__ import annotations

import atexit
import math
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Sequence

from repro.analysis.parallel import Job, default_jobs, execute_job
from repro.obs.registry import MetricsRegistry

#: Wire-protocol opcodes (parent -> worker and back).
_OP_CHUNK = "chunk"
_OP_DONE = "done"
_OP_EXIT = "exit"

#: Target work per chunk, in milliseconds, for adaptive chunking.
CHUNK_MS = 40
#: Reap warm workers after this many seconds without a dispatch (0: never).
IDLE_S = 120
#: Requeues of a chunk after worker crashes before its jobs fail with
#: :class:`WorkerCrashError`.
RETRIES = 2


class WorkerCrashError(RuntimeError):
    """A job's worker died repeatedly; the job could not be completed."""


@dataclass
class Outcome:
    """Per-job result envelope: exactly one of ``value`` / ``error``."""

    ok: bool
    value: object = None
    error: BaseException | None = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _encode_error(error: BaseException) -> bytes:
    """Pickle an exception for transport, degrading to RuntimeError."""
    try:
        return pickle.dumps(error)
    except Exception:
        return pickle.dumps(
            RuntimeError(f"{type(error).__name__}: {error!r} (unpicklable)")
        )


def _decode_error(payload: bytes) -> BaseException:
    try:
        error = pickle.loads(payload)
    except Exception as failure:  # pragma: no cover - defensive
        return RuntimeError(f"worker error could not be decoded: {failure!r}")
    if isinstance(error, BaseException):
        return error
    return RuntimeError(f"worker returned a non-exception error: {error!r}")


def _worker_main(conn, inherited: list) -> None:
    """Long-lived worker loop: receive chunks, run jobs, send outcomes.

    *inherited* are the parent-side pipe ends a forked worker holds
    copies of; closing them leaves the parent as the only holder, so
    ``recv`` sees EOF when the parent dies and the worker exits instead
    of outliving it.
    """
    for parent_end in inherited:
        parent_end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] == _OP_EXIT:
            break
        _, chunk_id, tasks = message
        results = []
        for index, job in tasks:
            try:
                value = execute_job(job)
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                return
            except BaseException as error:  # noqa: BLE001 - transported
                results.append((index, False, _encode_error(error)))
            else:
                results.append((index, True, value))
        try:
            conn.send((_OP_DONE, chunk_id, results))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover - already torn down
        pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Parent-side handle: process + pipe."""

    process: object
    conn: object
    jobs_done: int = 0


@dataclass
class _Chunk:
    chunk_id: int
    #: ``(index, job)`` pairs, *index* the job's submission position
    tasks: list[tuple[int, Job]]
    retries: int = 0


class WorkerPool:
    """A persistent pool of warm simulation workers.

    One pool serves the whole process (see :func:`get_pool`); dispatches
    are serialized under a lock, so concurrent callers queue rather than
    oversubscribe the workers.  All public entry points are thread-safe.
    """

    def __init__(self, workers: int | None = None):
        self.size = max(1, workers or default_jobs())
        self.chunk_ms = CHUNK_MS
        self.idle_s = IDLE_S
        self.retries = RETRIES
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        # fork (where available) hands workers the parent's already-warm
        # imports for free and matches the legacy executor's semantics;
        # spawn platforms pay one cold import per worker lifetime.
        method = "fork" if "fork" in get_all_start_methods() else "spawn"
        self._context = get_context(method)
        self._workers: list[_Worker] = []
        self._ewma_job_s: float | None = None
        self._next_chunk_id = 0
        self._last_used = time.monotonic()
        self._closed = False
        self._reaper: threading.Thread | None = None
        self._reaper_wake = threading.Event()

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether any worker processes are currently alive."""
        return bool(self._workers)

    def ensure_size(self, workers: int) -> None:
        """Grow the target pool size (never shrinks a live pool)."""
        with self._lock:
            self.size = max(self.size, workers)

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (test hook for crash injection)."""
        return [w.process.pid for w in self._workers]

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        # A forked child inherits the parent end of its own pipe and of
        # every earlier worker's; a spawned child inherits none.
        inherited = []
        if self._context.get_start_method() == "fork":
            inherited = [parent_conn, *(worker.conn for worker in self._workers)]
        process = self._context.Process(
            target=_worker_main, args=(child_conn, inherited), daemon=True
        )
        process.start()
        child_conn.close()
        self.registry.counter("pool.worker_starts").inc()
        return _Worker(process=process, conn=parent_conn)

    def _ensure_started(self) -> None:
        while len(self._workers) < self.size:
            self._workers.append(self._spawn_worker())
        if self._reaper is None and self.idle_s > 0:
            self._reaper = threading.Thread(
                target=self._reap_loop, name="repro-pool-reaper", daemon=True
            )
            self._reaper.start()

    def _retire(self, worker: _Worker, *, graceful: bool) -> None:
        if graceful:
            try:
                worker.conn.send((_OP_EXIT,))
            except (BrokenPipeError, OSError):
                pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.terminate()
            worker.process.join(timeout=1.0)

    def _stop_workers(self) -> None:
        """Tear down the worker processes (the pool object stays usable)."""
        for worker in self._workers:
            self._retire(worker, graceful=True)
        self._workers = []

    def stop(self) -> None:
        """Stop all workers now; the next dispatch restarts them."""
        with self._lock:
            self._stop_workers()

    def close(self) -> None:
        """Permanent shutdown: stop workers and the idle reaper."""
        with self._lock:
            self._closed = True
            self._stop_workers()
        self._reaper_wake.set()

    def _reap_loop(self) -> None:
        interval = max(self.idle_s / 2.0, 0.05)
        while not self._closed:
            self._reaper_wake.wait(interval)
            if self._closed:
                return
            if time.monotonic() - self._last_used < self.idle_s:
                continue
            # Never stall a dispatch: skip the reap if a submit holds
            # the lock (it refreshes _last_used on the way out anyway).
            if self._lock.acquire(blocking=False):
                try:
                    if (
                        self._workers
                        and time.monotonic() - self._last_used >= self.idle_s
                    ):
                        # Counted first: `started` reads False once the
                        # workers are gone, and a reader may look then.
                        self.registry.counter("pool.idle_reaps").inc()
                        self._stop_workers()
                finally:
                    self._lock.release()

    # -- dispatch ------------------------------------------------------
    def _chunk_tasks(self, tasks: list[tuple]) -> deque:
        """Pack tasks into chunks sized from the measured per-job cost."""
        count = len(tasks)
        spread = max(1, math.ceil(count / max(len(self._workers), 1)))
        if self._ewma_job_s is None:
            # No cost signal yet: one chunk per worker keeps everyone busy.
            size = spread
        else:
            target_s = max(self.chunk_ms, 1) / 1000.0
            size = max(1, round(target_s / max(self._ewma_job_s, 1e-6)))
            size = min(size, spread)
        chunks: deque[_Chunk] = deque()
        for start in range(0, count, size):
            chunks.append(_Chunk(self._next_chunk_id, tasks[start : start + size]))
            self._next_chunk_id += 1
        histogram = self.registry.histogram("pool.chunk_size")
        for chunk in chunks:
            histogram.observe(len(chunk.tasks))
        return chunks

    def _send_chunk(self, worker: _Worker, chunk: _Chunk) -> bool:
        """Ship a chunk to *worker*; False when the worker is gone."""
        try:
            worker.conn.send((_OP_CHUNK, chunk.chunk_id, chunk.tasks))
        except (BrokenPipeError, OSError):
            return False
        return True

    def _handle_crash(
        self,
        worker: _Worker,
        chunk: _Chunk,
        chunks: deque,
        outcomes: list,
    ) -> _Worker:
        """Replace a dead worker; requeue its chunk or fail its jobs."""
        self.registry.counter("pool.crash_replacements").inc()
        self._retire(worker, graceful=False)
        replacement = self._spawn_worker()
        self._workers[self._workers.index(worker)] = replacement
        if chunk.retries < self.retries:
            chunk.retries += 1
            chunks.appendleft(chunk)
        else:
            for index, _ in chunk.tasks:
                outcomes[index] = Outcome(
                    ok=False,
                    error=WorkerCrashError(
                        f"pool worker died {chunk.retries + 1} times running "
                        f"this chunk (job index {index})"
                    ),
                )
        return replacement

    def submit(self, jobs: Sequence[Job]) -> list[Outcome]:
        """Run *jobs* on the warm pool; per-job outcomes in submission order.

        A worker crash replaces the worker and requeues its chunk up to
        ``retries`` times; jobs still unfinished after that carry a
        :class:`WorkerCrashError`.
        """
        if not jobs:
            return []
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._last_used = time.monotonic()
            started_at = time.perf_counter()
            reused = sum(1 for w in self._workers if w.jobs_done)
            self._ensure_started()
            outcomes: list[Outcome | None] = [None] * len(jobs)
            chunks = self._chunk_tasks(list(enumerate(jobs)))
            self.registry.counter("pool.dispatches").inc()
            self.registry.counter("pool.jobs_dispatched").inc(len(jobs))
            self.registry.counter("pool.chunks_sent").inc(len(chunks))
            self.registry.histogram("pool.batch_size").observe(len(jobs))
            self.registry.counter("pool.worker_reuse_hits").inc(reused)
            idle = list(self._workers)
            busy: dict[object, tuple[_Worker, _Chunk, float]] = {}
            while chunks or busy:
                while chunks and idle:
                    worker = idle.pop()
                    chunk = chunks.popleft()
                    if self._send_chunk(worker, chunk):
                        busy[worker.conn] = (worker, chunk, time.perf_counter())
                    else:
                        idle.append(
                            self._handle_crash(worker, chunk, chunks, outcomes)
                        )
                if not busy:
                    continue
                ready = connection.wait(list(busy), timeout=1.0)
                if not ready:
                    # No data and no EOF: look for silently-dead workers.
                    for conn, (worker, chunk, _) in list(busy.items()):
                        if not worker.process.is_alive():  # pragma: no cover
                            busy.pop(conn)
                            idle.append(
                                self._handle_crash(worker, chunk, chunks, outcomes)
                            )
                    continue
                for conn in ready:
                    worker, chunk, sent_at = busy.pop(conn)
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        idle.append(
                            self._handle_crash(worker, chunk, chunks, outcomes)
                        )
                        continue
                    _, _chunk_id, results = message
                    elapsed = time.perf_counter() - sent_at
                    per_job = elapsed / max(len(chunk.tasks), 1)
                    self._ewma_job_s = (
                        per_job
                        if self._ewma_job_s is None
                        else 0.5 * self._ewma_job_s + 0.5 * per_job
                    )
                    for index, ok, payload in results:
                        if ok:
                            outcomes[index] = Outcome(ok=True, value=payload)
                        else:
                            outcomes[index] = Outcome(
                                ok=False, error=_decode_error(payload)
                            )
                    worker.jobs_done += len(results)
                    idle.append(worker)
            self.registry.timer("pool.dispatch_seconds").add(
                time.perf_counter() - started_at
            )
            self._last_used = time.monotonic()
            return outcomes  # type: ignore[return-value]

    def run(self, jobs: Sequence) -> list:
        """Like :meth:`submit`, but unwrap values and re-raise the first
        failure (in submission order) — the :func:`run_jobs` contract."""
        outcomes = self.submit(jobs)
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
        return [outcome.value for outcome in outcomes]


# ----------------------------------------------------------------------
# Process-wide singleton
# ----------------------------------------------------------------------
_POOL: WorkerPool | None = None
_POOL_LOCK = threading.Lock()


def get_pool(workers: int | None = None) -> WorkerPool:
    """The process-wide pool, created lazily; grows to *workers* if given."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL._closed:
            _POOL = WorkerPool(workers)
        elif workers is not None:
            _POOL.ensure_size(workers)
        return _POOL


def maybe_pool() -> WorkerPool | None:
    """The pool if one has been created (and not closed); never creates."""
    pool = _POOL
    if pool is None or pool._closed:
        return None
    return pool


def shutdown_pool() -> None:
    """Close and forget the process-wide pool (atexit hook; idempotent)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.close()


atexit.register(shutdown_pool)
