"""Server-side batched dispatch: drain many queued jobs per execution.

A worker that wakes up takes everything already queued (up to the batch
cap) and runs it as one ``execute_batch`` — one warm-pool fan-out per
wakeup instead of one per job — while every job still settles
individually: per-spec failures never poison batchmates, and results are
the same documents the one-at-a-time path produced.
"""

import pytest

from repro.analysis import cache as cache_mod
from repro.analysis.cache import ResultCache
from repro.analysis.pool import maybe_pool
from repro.serve import frontend
from repro.serve.client import ServeClient
from repro.serve.executor import JobExecutor
from repro.serve.protocol import parse_batch_with_ids

from .conftest import tiny_run
from tests.serve.background import BackgroundServer


def _specs(payloads):
    specs, _ = parse_batch_with_ids({"jobs": payloads})
    return specs


def _poison(executor, benchmark):
    """Make *executor* fail any spec for *benchmark* at execution time
    (unknown benchmarks are rejected at the protocol layer, so a runtime
    failure needs a healthy-looking spec with a broken execution)."""
    original = executor.execute

    def execute(spec):
        if getattr(spec, "benchmark", None) == benchmark:
            raise RuntimeError(f"poisoned benchmark {benchmark}")
        return original(spec)

    executor.execute = execute


class TestExecuteBatch:
    def test_batch_matches_one_at_a_time(self, tmp_path):
        solo = JobExecutor(cache=ResultCache(tmp_path / "solo"))
        batched = JobExecutor(cache=ResultCache(tmp_path / "batched"))
        payloads = [tiny_run(seed=seed) for seed in (1, 2, 3)]
        expected = [solo.execute(spec) for spec in _specs(payloads)]
        outcomes = batched.execute_batch(_specs(payloads))
        assert outcomes == expected

    def test_one_pool_dispatch_across_run_lengths(self):
        """Every run spec of a batch fans out together, whatever its lengths."""

        def dispatches():
            pool = maybe_pool()
            return pool.registry.as_dict().get("pool.dispatches", 0) if pool else 0

        executor = JobExecutor(cache=False, jobs=2)
        payloads = [
            tiny_run(seed=seed, **lengths)
            for lengths in ({}, {"insts": 240, "warmup": 120})
            for seed in (1, 2)
        ]
        before = dispatches()
        outcomes = executor.execute_batch(_specs(payloads))
        assert dispatches() - before == 1
        assert [outcome["kind"] for outcome in outcomes] == ["run"] * 4
        assert [outcome["stats"]["run"]["insts"] for outcome in outcomes] == [200, 200, 240, 240]
        assert executor.simulated() == 4

    def test_one_identity_digest_per_fresh_run(self, fresh_executor, monkeypatch):
        """The store lookup and the stats export share one SHA-256."""
        digests = []
        original = cache_mod.json_digest

        def counting(value):
            digests.append(value)
            return original(value)

        monkeypatch.setattr(cache_mod, "json_digest", counting)
        # A seed no other test uses: the digest memo is process-wide.
        (outcome,) = fresh_executor.execute_batch(_specs([tiny_run(seed=918_273)]))
        assert outcome["kind"] == "run"
        assert len(digests) == 1

    def test_per_spec_failures_are_isolated(self, fresh_executor):
        _poison(fresh_executor, "gcc")
        specs = _specs([tiny_run(seed=1), tiny_run("gcc"), tiny_run(seed=2)])
        good, bad, also_good = fresh_executor.execute_batch(specs)
        assert good["kind"] == "run" and also_good["kind"] == "run"
        assert isinstance(bad, Exception) and "poisoned benchmark gcc" in str(bad)


class TestBatchedDrain:
    def test_one_worker_drains_the_queue_in_batches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(frontend, "BATCH", 5)
        executor = JobExecutor(cache=ResultCache(tmp_path / "cache"))
        with BackgroundServer(port=0, workers=1, executor=executor) as background:
            client = ServeClient(background.base_url)
            receipts = client.submit([tiny_run(seed=seed) for seed in range(12)])
            for receipt in receipts:
                document = client.wait(receipt["id"], timeout=120, poll=0.5)
                assert document["status"] == "done"
                assert document["result"]["stats"]["derived"]["ipc"] > 0
            metrics = client.metrics()["metrics"]
            assert metrics["serve.completed"] == 12
            assert "serve.failed" not in metrics
            batches = metrics["serve.batch_size"]
            # 12 jobs enqueued before the single worker wakes: it must
            # have drained multiple jobs per execution, bounded by the cap.
            assert any(int(size) > 1 for size in batches)
            assert max(int(size) for size in batches) <= 5
            assert sum(int(size) * count for size, count in batches.items()) == 12

    def test_batch_with_a_poison_job_settles_everyone(self, tmp_path):
        executor = JobExecutor(cache=ResultCache(tmp_path / "cache"))
        _poison(executor, "gcc")
        with BackgroundServer(port=0, workers=1, executor=executor) as background:
            client = ServeClient(background.base_url)
            receipts = client.submit(
                [tiny_run(seed=1), tiny_run("gcc"), tiny_run(seed=2)]
            )
            from repro.serve.client import JobFailed

            done = client.wait(receipts[0]["id"], timeout=120, poll=0.5)
            assert done["status"] == "done"
            with pytest.raises(JobFailed, match="poisoned benchmark gcc"):
                client.wait(receipts[1]["id"], timeout=120, poll=0.5)
            assert client.wait(receipts[2]["id"], timeout=120, poll=0.5)["status"] == "done"
            metrics = client.metrics()["metrics"]
            assert metrics["serve.completed"] == 2
            assert metrics["serve.failed"] == 1

    def test_pool_metrics_surface_when_pool_is_live(self, server):
        from repro.analysis.pool import maybe_pool

        client = ServeClient(server.base_url)
        (receipt,) = client.submit(tiny_run())
        client.wait(receipt["id"], timeout=60, poll=0.5)
        metrics = client.metrics()["metrics"]
        if maybe_pool() is not None:
            assert "pool.dispatches" in metrics
        assert "serve.batch_size" in metrics
