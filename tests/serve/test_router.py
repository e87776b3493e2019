"""Cluster router tests: placement, failover, registration.

Integration tests boot real BackgroundServer workers (each its own
thread + event loop) that share one on-disk result store, with a
BackgroundRouter in front — the same topology ``scripts/cluster_smoke.py``
exercises with full subprocesses in CI.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.analysis.cache import ResultCache
from repro.serve import router as router_mod
from repro.serve.client import JobFailed, ServeClient
from repro.serve.executor import JobExecutor
from repro.serve.protocol import parse_spec
from repro.serve.router import BackgroundRouter, RouterServer
from repro.serve.server import BackgroundServer

from tests.serve.conftest import tiny_run


# ----------------------------------------------------------------------
# Unit tests: placement policy (no sockets)
# ----------------------------------------------------------------------
class TestPlacement:
    def _router(self, urls, **kwargs) -> RouterServer:
        return RouterServer(workers=urls, **kwargs)

    def test_fewest_in_flight_wins_whatever_the_fingerprint(self):
        router = self._router(["http://a:1", "http://b:2"])
        router.workers["http://a:1"].in_flight = 1
        for index in range(64):
            job, _coalesced = router.table.submit(parse_spec(tiny_run(seed=index)))
            worker = router._choose_worker()
            assert worker.url == "http://b:2", job.fingerprint

    def test_in_flight_count_released_after_transport_error_and_settle(self):
        router = self._router(["http://a:1"])
        worker = router.workers["http://a:1"]
        job, _coalesced = router.table.submit(parse_spec(tiny_run()))
        seen = []

        async def send(target, _job):
            seen.append(("send", target.in_flight))
            if len(seen) == 1:
                raise ConnectionError("worker went away")
            return 202, {}

        async def watch(watched, target):
            seen.append(("watch", target.in_flight))
            router._settle(watched, {"kind": "run"})
            return True

        router._send_dispatch = send
        router._watch = watch
        asyncio.run(router._dispatch_and_watch(job))
        # The failed attempt released its count before the job was placed
        # again, so each attempt saw exactly its own; settling released it.
        assert seen == [("send", 1), ("send", 1), ("watch", 1)]
        assert worker.in_flight == 0
        assert job.status == "done"

    def test_draining_home_routes_away_without_counting_as_steal(self):
        """A draining worker is never chosen, however idle it is."""
        router = self._router(["http://a:1", "http://b:2"])
        router.workers["http://a:1"].draining = True
        router.workers["http://b:2"].in_flight = 5
        assert router._choose_worker().url == "http://b:2"

    def test_no_routable_workers(self):
        router = self._router(["http://a:1"])
        router.workers["http://a:1"].draining = True
        assert router._choose_worker() is None

    def test_everyone_hot_picks_least_loaded(self):
        """The worker with the fewest of the router's jobs in flight wins."""
        router = self._router(["http://a:1", "http://b:2", "http://c:3"])
        for url, count in zip(sorted(router.workers), (9, 3, 7)):
            router.workers[url].in_flight = count
        assert router._choose_worker().url == "http://b:2"

    def test_probe_failures_evict_from_ring(self, monkeypatch):
        """Failed probes leave the worker in the roster, no longer routable."""
        # Point at a port nothing listens on: every probe fails.
        monkeypatch.setattr(router_mod, "HEALTH_FAILURES", 2)
        router = self._router(["http://127.0.0.1:9"])
        worker = router.workers["http://127.0.0.1:9"]
        assert worker.routable
        for _ in range(2):
            asyncio.run(router._probe(worker))
        assert not worker.routable
        assert worker.healthy is False
        assert router._choose_worker() is None


# ----------------------------------------------------------------------
# Integration: a real 2-worker cluster behind a router
# ----------------------------------------------------------------------
@pytest.fixture
def cluster(tmp_path, monkeypatch):
    """(router, client, workers, executors) over one shared store."""
    monkeypatch.setattr(router_mod, "HEALTH_INTERVAL_S", 0.1)
    monkeypatch.setattr(router_mod, "HEALTH_FAILURES", 2)
    monkeypatch.setattr(router_mod, "WATCH_POLL_S", 2.0)
    store = tmp_path / "store"
    executors = [JobExecutor(cache=ResultCache(store)) for _ in range(2)]
    workers = [
        BackgroundServer(port=0, workers=2, name=f"w{index}", executor=executor)
        for index, executor in enumerate(executors)
    ]
    for worker in workers:
        worker.start()
    router = BackgroundRouter(
        port=0,
        workers=[worker.base_url for worker in workers],
        spool=tmp_path / "router-spool",
    )
    router.start()
    client = ServeClient(router.base_url, timeout=30.0)
    try:
        yield router, client, workers, executors
    finally:
        router.stop(graceful=True)
        for worker in workers:
            worker.stop(graceful=True)


class TestClusterIntegration:
    def test_jobs_complete_through_the_router(self, cluster):
        _router, client, _workers, _executors = cluster
        documents = client.submit_and_wait(
            [tiny_run("gzip"), tiny_run("mcf")], timeout=60.0
        )
        assert [doc["status"] for doc in documents] == ["done", "done"]
        for document in documents:
            assert document["result"]["kind"] == "run"
            assert "derived" in document["result"]["stats"]

    def test_duplicate_specs_coalesce_cluster_wide(self, cluster):
        _router, client, _workers, executors = cluster
        receipts = client.submit([tiny_run("gzip", seed=11)] * 5)
        assert sum(1 for receipt in receipts if receipt["coalesced"]) == 4
        primary = next(r for r in receipts if not r["coalesced"])
        for receipt in receipts:
            document = client.wait(receipt["id"], timeout=60.0)
            assert document["status"] == "done"
            if receipt["coalesced"]:
                assert receipt["coalesced_into"] == primary["id"]
        assert sum(executor.simulated() for executor in executors) == 1

    def test_resubmitted_done_spec_is_answered_at_admission(self, cluster):
        _router, client, _workers, executors = cluster
        (first,) = client.submit_and_wait([tiny_run("gzip", seed=21)], timeout=60.0)
        # The first job finished done, so the repeat coalesces onto it and
        # is settled with its result before the receipt is written.
        (receipt,) = client.submit([tiny_run("gzip", seed=21)])
        assert receipt["status"] == "done" and receipt["coalesced"]
        assert receipt["coalesced_into"] == first["id"]
        assert client.wait(receipt["id"], timeout=60.0)["result"] == first["result"]
        assert sum(executor.simulated() for executor in executors) == 1

    def test_repeat_of_a_done_job_never_reaches_a_worker(self, tmp_path, monkeypatch):
        # One probe round at start-up, then none: every later worker
        # request would come from the job path.
        monkeypatch.setattr(router_mod, "HEALTH_INTERVAL_S", 3600.0)
        store = tmp_path / "store"
        workers = [
            BackgroundServer(
                port=0, workers=1, name=f"w{index}",
                executor=JobExecutor(cache=ResultCache(store)),
            )
            for index in range(2)
        ]
        for worker in workers:
            worker.start()
        try:
            with BackgroundRouter(port=0, workers=[w.base_url for w in workers]) as router:
                deadline = time.monotonic() + 10.0
                handles = router.server.workers.values()
                while any(h.name is None for h in handles) and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert all(handle.name for handle in handles)

                def counts():
                    return (
                        router.server.registry.counter("router.dispatches").value,
                        [w.server.registry.counter("serve.http_requests").value
                         for w in workers],
                    )

                client = ServeClient(router.base_url, timeout=30.0)
                (first,) = client.submit_and_wait([tiny_run("mcf", seed=23)], timeout=60.0)
                before = counts()
                (receipt,) = client.submit(tiny_run("mcf", seed=23))
                document = client.job(receipt["id"])
                assert receipt["status"] == "done"
                assert receipt["coalesced_into"] == first["id"]
                assert document["status"] == "done"
                assert document["result"] == first["result"]
                assert counts() == before
                assert before[0] == 1
        finally:
            for worker in workers:
                worker.stop(graceful=True)

    def test_router_healthz_and_worker_listing(self, cluster):
        router, client, workers, _executors = cluster
        health = client.healthz()
        assert health["role"] == "router" and health["workers"] == 2
        listing = client.request("GET", "/v1/workers")["workers"]
        assert sorted(w["url"] for w in listing) == sorted(
            worker.base_url for worker in workers
        )
        # Health probes learn the worker names within a probe cycle.
        deadline = time.monotonic() + 10.0
        names: set = set()
        while names != {"w0", "w1"} and time.monotonic() < deadline:
            listing = client.request("GET", "/v1/workers")["workers"]
            names = {w["name"] for w in listing if w["name"]}
            time.sleep(0.05)
        assert names == {"w0", "w1"}

    def test_worker_registration_endpoint(self, cluster, tmp_path):
        router, client, _workers, _executors = cluster
        extra = BackgroundServer(
            port=0,
            workers=1,
            name="late",
            executor=JobExecutor(cache=ResultCache(tmp_path / "store")),
        )
        extra.start()
        try:
            receipt = client.request(
                "POST",
                "/v1/workers/register",
                {"url": extra.base_url, "name": "late"},
            )
            assert receipt["registered"]["url"] == extra.base_url
            listing = client.request("GET", "/v1/workers")["workers"]
            assert extra.base_url in {w["url"] for w in listing}
            assert router.server.workers[extra.base_url].routable
        finally:
            extra.stop(graceful=True)

    def test_dead_worker_jobs_redispatch_to_survivors(self, cluster):
        """Killing a worker mid-sweep loses no jobs (tentpole failover)."""
        _router, client, workers, executors = cluster
        specs = [tiny_run("gzip", seed=100 + index) for index in range(8)]
        receipts = client.submit(specs)
        # Hard-kill one worker immediately: its in-flight and queued jobs
        # must re-dispatch to the survivor.
        workers[0].stop(graceful=False)
        documents = [client.wait(receipt["id"], timeout=90.0) for receipt in receipts]
        assert all(document["status"] == "done" for document in documents)
        # The shared store bounds total work: never more simulations than
        # unique fingerprints (the SIGKILLed worker may have completed
        # some before dying, which the survivor then found published).
        assert sum(executor.simulated() for executor in executors) <= len(specs)

    def test_router_restart_redispatches_spooled_jobs(self, tmp_path, monkeypatch):
        """A router crash/restart resumes pending jobs under original ids."""
        spool = tmp_path / "spool"
        # No workers: accepted jobs starve in the dispatch loop, pending.
        first = BackgroundRouter(port=0, workers=[], spool=spool)
        first.start()
        receipt = ServeClient(first.base_url).submit([tiny_run("gzip", seed=31)])[0]
        first.stop(graceful=True)

        worker = BackgroundServer(
            port=0,
            workers=1,
            executor=JobExecutor(cache=ResultCache(tmp_path / "store")),
        )
        worker.start()
        monkeypatch.setattr(router_mod, "WATCH_POLL_S", 2.0)
        second = BackgroundRouter(port=0, workers=[worker.base_url], spool=spool)
        second.start()
        try:
            assert second.server.recovered == 1
            document = ServeClient(second.base_url).wait(receipt["id"], timeout=60.0)
            assert document["status"] == "done"
            assert document["id"] == receipt["id"]
        finally:
            second.stop(graceful=True)
            worker.stop(graceful=True)


class TestWorkerProtocolExtensions:
    """Pinned ids, the router→worker protocol v2 extension, which any
    client may also send to either role."""

    def _pinned_ids_round_trip(self, front) -> None:
        client = ServeClient(front.base_url)
        receipts = client.submit(
            {"jobs": [tiny_run("gzip", seed=41)], "ids": ["j-000777"]}
        )
        assert receipts[0]["id"] == "j-000777"
        # Idempotent re-dispatch: same id again is acknowledged, not
        # forked into a new identity.
        again = client.submit(
            {"jobs": [tiny_run("gzip", seed=41)], "ids": ["j-000777"]}
        )
        assert again[0]["id"] == "j-000777"
        document = client.wait("j-000777", timeout=60.0)
        assert document["status"] == "done"
        # The id counter moved past the assigned id.
        assert front.server.table.next_id > 777

    def test_worker_accepts_router_assigned_ids(self, front_door):
        self._pinned_ids_round_trip(front_door("serve"))

    def test_router_honours_client_pinned_ids(self, front_door):
        self._pinned_ids_round_trip(front_door("router"))

    @pytest.mark.parametrize("role", ["serve", "router"])
    def test_pinned_id_held_by_another_spec_is_409(self, front_door, role):
        client = ServeClient(front_door(role, queued=True).base_url)
        client.submit({"jobs": [tiny_run("gzip")], "ids": ["j-000001"]})
        # The same id for a different spec must not be acknowledged as the
        # job it already names — and the request admits nothing at all.
        status, _headers, document = client._once(
            "POST", "/v1/jobs",
            {"jobs": [tiny_run("gcc"), tiny_run("mcf")], "ids": ["j-000002", "j-000001"]},
        )
        assert status == 409
        assert "j-000001" in document["error"]
        assert [job["id"] for job in client.jobs()] == ["j-000001"]
        # One request pinning one id to two specs conflicts too.
        status, _headers, _document = client._once(
            "POST", "/v1/jobs",
            {"jobs": [tiny_run("gcc"), tiny_run("mcf")], "ids": ["j-000003", "j-000003"]},
        )
        assert status == 409
        assert client.healthz()["queue_depth"] == 1

    @pytest.mark.parametrize("role", ["serve", "router"])
    @pytest.mark.parametrize(
        "bad_id", ["a b", "x?y", "j-1#2", "j-00000\u00e9", "../j-000001", "j-12", ""]
    )
    def test_pinned_id_not_in_issued_form_is_400(self, front_door, role, bad_id):
        # The router puts ids into request paths: an id that is not of the
        # form a job table issues is refused before anything is admitted.
        client = ServeClient(front_door(role, queued=True).base_url)
        status, _headers, document = client._once(
            "POST", "/v1/jobs", {"jobs": [tiny_run("gzip")], "ids": [bad_id]}
        )
        assert status == 400
        assert "ids" in document["error"]
        assert client.jobs() == []
        assert client.healthz()["queue_depth"] == 0

    def test_reused_router_id_fails_loudly_instead_of_serving_another_result(
        self, tmp_path, monkeypatch
    ):
        """Two spool-less routers issue the same ids to one worker."""
        worker = BackgroundServer(
            port=0,
            workers=1,
            executor=JobExecutor(cache=ResultCache(tmp_path / "store")),
        )
        worker.start()
        monkeypatch.setattr(router_mod, "WATCH_POLL_S", 2.0)
        try:
            with BackgroundRouter(port=0, workers=[worker.base_url]) as first:
                (gzip,) = ServeClient(first.base_url).submit_and_wait(
                    [tiny_run("gzip", seed=61)], timeout=60.0
                )
            with BackgroundRouter(port=0, workers=[worker.base_url]) as second:
                client = ServeClient(second.base_url)
                # One request, so both jobs ride one batched dispatch: the
                # reused id conflicts, the fresh one must still complete.
                receipt, fresh = client.submit(
                    [tiny_run("mcf", seed=61), tiny_run("gzip", seed=62)]
                )
                assert receipt["id"] == gzip["id"]
                with pytest.raises(JobFailed, match="409"):
                    client.wait(receipt["id"], timeout=60.0)
                assert client.wait(fresh["id"], timeout=60.0)["status"] == "done"
        finally:
            worker.stop(graceful=True)

    def test_worker_healthz_reports_queue_depth_and_name(self, tmp_path):
        worker = BackgroundServer(
            port=0,
            workers=1,
            name="probe-me",
            executor=JobExecutor(cache=ResultCache(tmp_path / "store")),
        )
        worker.start()
        try:
            health = ServeClient(worker.base_url).healthz()
            assert health["name"] == "probe-me"
            assert health["queue_depth"] == 0
            assert health["draining"] is False
        finally:
            worker.stop(graceful=True)


class TestStealingLive:
    def test_watermark_zero_spreads_load(self, tmp_path, monkeypatch):
        """Least-in-flight placement spreads distinct jobs over both
        workers, and every job completes."""
        store = tmp_path / "store"
        executors = [JobExecutor(cache=ResultCache(store)) for _ in range(2)]
        workers = [
            BackgroundServer(port=0, workers=1, executor=executor)
            for executor in executors
        ]
        for worker in workers:
            worker.start()
        monkeypatch.setattr(router_mod, "HEALTH_INTERVAL_S", 0.1)
        monkeypatch.setattr(router_mod, "WATCH_POLL_S", 2.0)
        router = BackgroundRouter(port=0, workers=[worker.base_url for worker in workers])
        router.start()
        try:
            client = ServeClient(router.base_url, timeout=30.0)
            specs = [tiny_run("gzip", seed=200 + index) for index in range(6)]
            documents = client.submit_and_wait(specs, timeout=90.0)
            assert all(document["status"] == "done" for document in documents)
            assert len({document["fingerprint"] for document in documents}) == 6
            assert all(executor.simulated() >= 1 for executor in executors)
            metrics = client.metrics()["metrics"]
            assert metrics.get("router.dispatches", 0) >= 6
        finally:
            router.stop(graceful=True)
            for worker in workers:
                worker.stop(graceful=True)


def test_drain_reports_within_deadline(cluster):
    """Router drain with no pending work returns promptly."""
    router, client, _workers, _executors = cluster
    client.submit_and_wait([tiny_run("gzip", seed=51)], timeout=60.0)
    started = time.monotonic()
    router.stop(graceful=True)
    assert time.monotonic() - started < 30.0
