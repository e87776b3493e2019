"""Warm worker pool contract tests (repro.analysis.pool).

The guarantees under test: batched dispatch through the persistent pool
returns results **in submission order**, **byte-identical** to inline
execution, with **faithful exception propagation**; a SIGKILLed worker is
replaced and its chunk retried; warm workers are reused (no respawn, no
config re-ship); fully-warm prefetches never touch the pool; and workers
exit when the process that owns the pool dies.
"""

import contextlib
import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.analysis.pool as pool_mod
import repro.analysis.runner as runner_mod
from repro.analysis.cache import ResultCache, serialize_result
from repro.analysis.parallel import Job, execute_job
from repro.analysis.pool import WorkerCrashError, WorkerPool
from repro.analysis.runner import ExperimentRunner
from repro.errors import ConfigurationError
from repro.fastsim import available_backends
from repro.pipeline.config import FOUR_WIDE

INSTS = 300
WARMUP = 150


@pytest.fixture
def pool(monkeypatch):
    """A private 2-worker pool (the global singleton stays untouched)."""
    monkeypatch.setattr(pool_mod, "IDLE_S", 0)
    instance = WorkerPool(2)
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
        # Same configs, second dispatch: nobody respawned.
        assert metrics["pool.worker_starts"] == 2
        assert metrics["pool.worker_reuse_hits"] >= 2

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

    def test_unrecoverable_crash_fails_only_its_chunk(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "IDLE_S", 0)
        monkeypatch.setattr(pool_mod, "RETRIES", 0)
        instance = WorkerPool(1)
        try:
            instance.run(_jobs(1))
            os.kill(instance.worker_pids()[0], signal.SIGKILL)
            # RETRIES = 0: the chunk that died is not requeued — its job
            # fails loudly instead of silently vanishing...
            (outcome,) = instance.submit(_jobs(1))
            assert not outcome.ok and isinstance(outcome.error, WorkerCrashError)
            # ...and the replacement worker serves the next dispatch.
            (recovered,) = instance.submit(_jobs(1))
            assert recovered.ok
            assert instance.registry.as_dict()["pool.crash_replacements"] == 1
        finally:
            instance.close()


#: Owns a warm 2-worker pool, prints the worker pids, then waits to be killed.
_POOL_OWNER = f"""
import time
import repro.analysis.pool as pool_mod
from repro.analysis.parallel import Job
from repro.analysis.pool import WorkerPool
from repro.pipeline.config import FOUR_WIDE
pool_mod.IDLE_S = 0
pool = WorkerPool(2)
pool.run([Job("gzip", FOUR_WIDE, seed, {INSTS}, {WARMUP}) for seed in range(2)])
print(*pool.worker_pids(), flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    """Whether *pid* runs; a zombie nobody has reaped yet counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestLifecycle:
    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="reads process states from /proc"
    )
    def test_workers_exit_when_their_owner_is_sigkilled(self):
        env = dict(os.environ, PYTHONPATH=str(Path(pool_mod.__file__).parents[2]))
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER], stdout=subprocess.PIPE, text=True, env=env
        )
        pids: list[int] = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
            owner.kill()
            owner.wait()
            deadline = time.monotonic() + 5
            while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            orphans = [pid for pid in pids if _alive(pid)]
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert orphans == []

    def test_lazy_start_and_idle_reap(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "IDLE_S", 0.2)
        instance = WorkerPool(2)
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
        runner = ExperimentRunner(
            insts=INSTS, warmup=WARMUP, jobs=1, cache=ResultCache(tmp_path)
        )
        requests = [("gzip", FOUR_WIDE, seed, False) for seed in (1, 2, 3)]
        assert runner.prefetch(requests) == 3

        def explode(*args, **kwargs):
            raise AssertionError("fully-warm prefetch reached the fan-out layer")

        monkeypatch.setattr(runner_mod, "run_jobs", explode)
        monkeypatch.setattr(pool_mod, "get_pool", explode)
        # Memo-warm and (after a fresh runner) disk-warm sweeps both skip
        # the parallel engine entirely — the pool is never even created.
        assert runner.prefetch(requests) == 0
        fresh = ExperimentRunner(
            insts=INSTS, warmup=WARMUP, jobs=4, cache=ResultCache(tmp_path)
        )
        assert fresh.prefetch(requests) == 0
        warm = fresh.metrics.get("runner.prefetch_warm_hits")
        assert warm is not None and warm.value == 3


def _id(result):
    return (result.total_cycles, result.total_committed, result.ipc)
