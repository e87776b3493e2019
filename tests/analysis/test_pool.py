"""Warm worker pool contract tests (repro.analysis.pool).

The guarantees under test: batched dispatch through the persistent pool
returns results **in submission order**, **byte-identical** to inline
execution, with **faithful exception propagation**; a SIGKILLed worker is
replaced and its chunk retried; warm workers are reused (no respawn, no
config re-ship); and fully-warm prefetches never touch the pool.
"""

import dataclasses
import os
import signal
import threading
import time

import pytest

import repro.analysis.pool as pool_mod
import repro.analysis.runner as runner_mod
from repro.analysis.cache import ResultCache, serialize_result
from repro.analysis.parallel import Job, execute_job
from repro.analysis.pool import TraceJob, WorkerCrashError, WorkerPool
from repro.analysis.runner import ExperimentRunner
from repro.errors import ConfigurationError
from repro.fastsim import available_backends
from repro.pipeline.config import FOUR_WIDE

INSTS = 300
WARMUP = 150


@pytest.fixture
def pool():
    """A private 2-worker pool (the global singleton stays untouched)."""
    instance = WorkerPool(2, idle_s=0)
    yield instance
    instance.close()


def _jobs(count, insts=INSTS, base_seed=0):
    return [Job("gzip", FOUR_WIDE, base_seed + s, insts, WARMUP) for s in range(count)]


class TestOrderAndParity:
    def test_results_in_submission_order(self, pool):
        jobs = [
            Job(benchmark, FOUR_WIDE, seed, INSTS, WARMUP)
            for seed in (1, 2)
            for benchmark in ("gzip", "mcf", "gcc")
        ]
        results = pool.run(jobs)
        inline = [execute_job(job) for job in jobs]
        assert [_id(r) for r in results] == [_id(r) for r in inline]

    def test_byte_parity_vs_inline(self, pool):
        jobs = _jobs(8)
        results = pool.run(jobs)
        inline = [execute_job(job) for job in jobs]
        assert [serialize_result(r) for r in results] == [
            serialize_result(r) for r in inline
        ]

    def test_parity_survives_warm_redispatch(self, pool):
        jobs = _jobs(6)
        first = [serialize_result(r) for r in pool.run(jobs)]
        second = [serialize_result(r) for r in pool.run(jobs)]
        assert first == second
        metrics = pool.registry.as_dict()
        # Same configs, second dispatch: nothing re-shipped, nobody respawned.
        assert metrics["pool.worker_starts"] == 2
        assert metrics["pool.worker_reuse_hits"] >= 2
        assert metrics["pool.config_ships"] <= 2  # once per worker, ever

    def test_cross_backend_batch(self, pool):
        jobs = [
            Job(
                "gzip",
                dataclasses.replace(FOUR_WIDE, backend=backend),
                5,
                INSTS,
                WARMUP,
            )
            for backend in available_backends()
        ]
        results = pool.run(jobs)
        inline = [execute_job(job) for job in jobs]
        assert [serialize_result(r) for r in results] == [
            serialize_result(r) for r in inline
        ]

    def test_trace_jobs_share_a_decoded_feed(self):
        from repro.trace import load_corpus_feed

        feed = load_corpus_feed("vector_sum_80k")
        jobs = [
            TraceJob("vector_sum_80k", feed.content_hash, FOUR_WIDE, 2_000, 500)
            for _ in range(4)
        ]
        instance = WorkerPool(1, idle_s=0)  # one worker -> one decode
        try:
            results = instance.run(jobs)
            metrics = instance.registry.as_dict()
        finally:
            instance.close()
        from repro.fastsim import make_processor

        expected = serialize_result(
            make_processor(feed, FOUR_WIDE, backend=FOUR_WIDE.backend).run(
                max_insts=2_000, warmup=500
            )
        )
        assert [serialize_result(r) for r in results] == [expected] * 4
        assert metrics["pool.feed_loads"] == 1
        assert metrics["pool.feed_memo_hits"] == 3


class TestExceptions:
    def test_first_failure_raised_in_submission_order(self, pool):
        jobs = [
            Job("gzip", FOUR_WIDE, 1, INSTS, WARMUP),
            Job("no-such-benchmark", FOUR_WIDE, 1, INSTS, WARMUP),
            Job("also-missing", FOUR_WIDE, 1, INSTS, WARMUP),
        ]
        with pytest.raises(ConfigurationError, match="no-such-benchmark"):
            pool.run(jobs)

    def test_submit_isolates_failures_per_job(self, pool):
        jobs = [
            Job("no-such-benchmark", FOUR_WIDE, 1, INSTS, WARMUP),
            Job("gzip", FOUR_WIDE, 1, INSTS, WARMUP),
        ]
        bad, good = pool.submit(jobs)
        assert not bad.ok and isinstance(bad.error, ConfigurationError)
        assert good.ok and serialize_result(good.value) == serialize_result(
            execute_job(jobs[1])
        )


class TestCrashRecovery:
    def test_kill_between_dispatches_replaces_and_retries(self, pool):
        jobs = _jobs(4)
        expected = [serialize_result(r) for r in pool.run(jobs)]
        for pid in pool.worker_pids():
            os.kill(pid, signal.SIGKILL)
        results = pool.run(jobs)
        assert [serialize_result(r) for r in results] == expected
        assert pool.registry.as_dict()["pool.crash_replacements"] >= 1

    def test_sigkill_mid_batch_replaces_and_retries(self, pool):
        # Warm the pool, then kill one worker while a chunky batch is in
        # flight: its chunk must requeue onto the replacement and every
        # result still come back byte-identical.
        pool.run(_jobs(2))
        jobs = _jobs(8, insts=2_500, base_seed=50)
        victim = pool.worker_pids()[0]
        killer = threading.Timer(0.15, os.kill, args=(victim, signal.SIGKILL))
        killer.start()
        try:
            results = pool.run(jobs)
        finally:
            killer.cancel()
        inline = [serialize_result(execute_job(job)) for job in jobs]
        assert [serialize_result(r) for r in results] == inline
        # The timer may lose the race on a fast box; the parity assertion
        # above is the contract either way.

    def test_unrecoverable_crash_fails_only_its_chunk(self):
        instance = WorkerPool(1, idle_s=0, retries=0)
        try:
            instance.run(_jobs(1))
            os.kill(instance.worker_pids()[0], signal.SIGKILL)
            # retries=0: the chunk that died is not requeued — its job
            # fails loudly instead of silently vanishing...
            (outcome,) = instance.submit(_jobs(1))
            assert not outcome.ok and isinstance(outcome.error, WorkerCrashError)
            # ...and the replacement worker serves the next dispatch.
            (recovered,) = instance.submit(_jobs(1))
            assert recovered.ok
            assert instance.registry.as_dict()["pool.crash_replacements"] == 1
        finally:
            instance.close()


class TestLifecycle:
    def test_lazy_start_and_idle_reap(self):
        instance = WorkerPool(2, idle_s=0.2)
        try:
            assert not instance.started  # lazy: no dispatch, no processes
            instance.run(_jobs(2))
            assert instance.started
            deadline = time.monotonic() + 10
            while instance.started and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not instance.started
            assert instance.registry.as_dict()["pool.idle_reaps"] >= 1
            # A reaped pool restarts transparently on the next dispatch.
            results = instance.run(_jobs(2))
            assert len(results) == 2
        finally:
            instance.close()

    def test_warm_prefetch_never_touches_the_pool(self, tmp_path, monkeypatch):
        runner = ExperimentRunner(insts=INSTS, warmup=WARMUP, cache=ResultCache(tmp_path))
        requests = [("gzip", FOUR_WIDE, seed, False) for seed in (1, 2, 3)]
        assert runner.prefetch(requests, workers=1) == 3

        def explode(*args, **kwargs):
            raise AssertionError("fully-warm prefetch reached the fan-out layer")

        monkeypatch.setattr(runner_mod, "run_jobs", explode)
        monkeypatch.setattr(pool_mod, "get_pool", explode)
        # Memo-warm and (after a fresh runner) disk-warm sweeps both skip
        # the parallel engine entirely — the pool is never even created.
        assert runner.prefetch(requests, workers=4) == 0
        fresh = ExperimentRunner(insts=INSTS, warmup=WARMUP, cache=ResultCache(tmp_path))
        assert fresh.prefetch(requests, workers=4) == 0
        warm = fresh.metrics.get("runner.prefetch_warm_hits")
        assert warm is not None and warm.value == 3


def _id(result):
    return (result.total_cycles, result.total_committed, result.ipc)
