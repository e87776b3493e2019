"""Local dispatch: the job server that runs simulations in-process.

:class:`ServeServer` is the :class:`~repro.serve.frontend.JobFrontEnd`
behind ``repro serve`` (and each ``repro serve --worker`` in a cluster);
the front end owns the HTTP API, admission, coalescing, the spool and the
drain.  What this module adds is how an admitted primary executes: a
priority queue of primaries (higher ``priority`` first, FIFO within one)
and N worker tasks.  A worker that wakes up drains up to
:data:`~repro.serve.frontend.BATCH` (8) queued jobs and runs them as one
:meth:`~repro.serve.executor.JobExecutor.execute_batch` call on a thread
(``asyncio.to_thread``), so one warm-pool fan-out amortizes over every job
that was waiting.  Its queue depth counts primaries queued but not yet
started; a graceful drain stops the workers before any queued job starts,
so queued work persists to the spool instead of executing.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

from repro.serve.executor import JobExecutor
from repro.serve.frontend import JobFrontEnd
from repro.serve.jobs import Job

#: Default bind and capacity knobs (overridable per server).
DEFAULT_PORT = 8765
DEFAULT_WORKERS = 2
DEFAULT_QUEUE_SIZE = 256

#: Queue entries: (lane, -priority, sequence, job).  The shutdown
#: sentinel rides lane -1, ahead of every real job, so draining workers
#: stop immediately and queued work persists instead of executing.
_SENTINEL = (-1, 0, -1, None)


class ServeServer(JobFrontEnd):
    """The job server: the shared front end over a local worker pool."""

    role = "serve"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = DEFAULT_WORKERS,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        spool: Path | str | None = None,
        executor: JobExecutor | None = None,
        name: str | None = None,
    ):
        super().__init__(host, port, queue_size, spool)
        #: worker identity, reported on /healthz (cluster diagnostics)
        self.name = name
        self.workers = workers
        self.executor = executor if executor is not None else JobExecutor()
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._sequence = 0

    # ------------------------------------------------------------------
    # the front end's hooks
    # ------------------------------------------------------------------
    def _start_tasks(self) -> None:
        for index in range(self.workers):
            self._spawn(self._worker(), f"worker-{index}")

    def _begin_drain(self) -> None:
        # Sentinels outrank every job, so blocked workers stop now and no
        # queued job starts; in-flight executions run to completion.
        for _ in range(self.workers):
            self._queue.put_nowait(_SENTINEL)

    def _dispatch(self, job: Job) -> None:
        self._sequence += 1
        self._queue.put_nowait((0, -job.spec.priority, self._sequence, job))

    def _retry_after(self) -> int:
        timer = self.registry.get("serve.exec_seconds")
        mean = 1.0
        if timer is not None and timer.calls:
            mean = max(0.05, timer.seconds / timer.calls)
        workers = max(1, self.workers)
        estimate = self.queue_depth() * mean / workers
        return max(1, min(60, int(estimate + 0.999)))

    def _health_fields(self) -> dict:
        return {"name": self.name}

    def _role_metrics(self) -> tuple[dict, dict]:
        self.registry.counter("serve.simulated").set(self.executor.simulated())
        # Surface the warm worker pool's counters (pool.* names) next to
        # the server's own — but never create the pool just to report.
        from repro.analysis.pool import maybe_pool

        pool = maybe_pool()
        pool_metrics = pool.registry.as_dict() if pool is not None else {}
        return {"workers": self.workers, "batch": self.batch}, pool_metrics

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            lane, _priority, _sequence, job = await self._queue.get()
            batch: list[Job] = []
            # Batched dispatch: drain whatever else is already queued (up
            # to the batch cap) so one execution — and one warm-pool
            # fan-out — amortizes over every job that was waiting.
            while lane >= 0:  # lane -1 is the shutdown sentinel
                # Starting frees the slot.  A job cancelled while queued
                # already freed it, and releasing is idempotent.
                self._release(job)
                if not job.terminal:
                    batch.append(job)
                if len(batch) >= self.batch or self._queue.empty():
                    break
                lane, _priority, _sequence, job = self._queue.get_nowait()
            else:  # stopped at a shutdown sentinel
                if not batch:
                    return
                # A sentinel outranks jobs, so it only shows up mid-batch
                # during a drain: leave it for the next loop turn.
                self._queue.put_nowait(_SENTINEL)
            if batch:
                await self._execute_batch(batch)

    async def _execute_batch(self, jobs: list[Job]) -> None:
        for job in jobs:
            self.table.mark_running(job)
        started = time.perf_counter()
        try:
            outcomes = await asyncio.to_thread(
                self.executor.execute_batch, [job.spec for job in jobs]
            )
        except Exception as error:  # noqa: BLE001 - jobs must never kill a worker
            # execute_batch isolates per-spec failures; reaching this
            # means the batch machinery itself broke — fail every member.
            outcomes = [error] * len(jobs)
        elapsed = time.perf_counter() - started
        # One timer sample per job keeps the Retry-After estimate (mean
        # seconds per job) honest under batching.
        self.registry.timer("serve.exec_seconds").add(elapsed, calls=len(jobs))
        self.registry.histogram("serve.batch_size").observe(len(jobs))
        if len(jobs) > 1:
            self.registry.counter("serve.batched_jobs").inc(len(jobs))
        for job, outcome in zip(jobs, outcomes):
            if isinstance(outcome, Exception):
                self._settle(job, error=f"{type(outcome).__name__}: {outcome}")
            else:
                self._settle(job, result=outcome)
