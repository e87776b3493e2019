"""End-to-end server behaviour: submit, coalesce, backpressure, metrics."""

import pytest

from repro.serve.client import JobFailed, ServeClient, ServeError
from repro.serve.protocol import RunSpec

from .conftest import tiny_run

VERIFY_SOURCE = "    LDI  r1, 5\n    ADD  r2, r1, #1\n    HALT\n"


class TestRunJobs:
    def test_single_run_returns_versioned_stats(self, server):
        client = ServeClient(server.base_url)
        (receipt,) = client.submit(tiny_run())
        assert receipt["status"] == "queued" and not receipt["coalesced"]
        document = client.wait(receipt["id"], timeout=60, poll=1.0)
        stats = document["result"]["stats"]
        assert stats["schema_version"] == 1
        assert stats["run"]["benchmark"] == "gzip"
        assert stats["derived"]["ipc"] > 0
        assert stats["fingerprint"] == document["fingerprint"]

    def test_one_digest_per_submitted_spec(self, server, monkeypatch):
        """Admission's digest is the one the job table keys on."""
        digests = []
        fingerprint = RunSpec.fingerprint

        def counting(spec):
            digests.append(spec)
            return fingerprint(spec)

        monkeypatch.setattr(RunSpec, "fingerprint", counting)
        client = ServeClient(server.base_url)
        (receipt,) = client.submit(tiny_run(seed=11))
        assert client.wait(receipt["id"], timeout=60, poll=0.5)["status"] == "done"
        assert len(digests) == 1

    def test_identical_jobs_coalesce_distinct_do_not(self, server):
        client = ServeClient(server.base_url)
        receipts = client.submit(
            [tiny_run()] * 4 + [tiny_run("gcc")] * 3 + [tiny_run(seed=8)]
        )
        coalesced = [r for r in receipts if r["coalesced"]]
        primaries = [r for r in receipts if not r["coalesced"]]
        assert len(primaries) == 3 and len(coalesced) == 5
        for receipt in receipts:
            assert client.wait(receipt["id"], timeout=60, poll=1.0)["status"] == "done"
        # 8 jobs, 3 distinct fingerprints -> exactly 3 simulations.
        assert server.server.executor.simulated() == 3
        metrics = client.metrics()
        assert metrics["metrics"]["serve.coalesce_hits"] == 5

    def test_followers_share_the_primary_result(self, server):
        client = ServeClient(server.base_url)
        first, second = client.submit([tiny_run("bzip"), tiny_run("bzip")])
        assert second["coalesced_into"] == first["id"]
        primary = client.wait(first["id"], timeout=60, poll=1.0)
        follower = client.wait(second["id"], timeout=60, poll=1.0)
        assert follower["result"] == primary["result"]

    def test_job_failure_is_reported_not_fatal(self, server, monkeypatch):
        client = ServeClient(server.base_url)
        # An unserviceable spec sneaks past validation only via a broken
        # executor; simulate one by poisoning the cache directory lookup.
        monkeypatch.setattr(
            server.server.executor, "execute",
            lambda spec: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        (receipt,) = client.submit(tiny_run("mcf"))
        with pytest.raises(JobFailed, match="boom"):
            client.wait(receipt["id"], timeout=30, poll=0.5)
        assert client.healthz()["ok"] is True  # worker survived


class TestFinishedCoalescing:
    """A repeat of a fingerprint whose primary finished done is settled at
    admission; TestFinishedCoalescingRouter reruns every case against the
    router."""

    role = "serve"

    def test_repeat_of_done_job_is_answered_at_admission(
        self, front_door, fresh_executor, monkeypatch
    ):
        client = ServeClient(front_door(self.role).base_url)
        (first,) = client.submit(tiny_run(seed=31))
        primary = client.wait(first["id"], timeout=60, poll=1.0)

        def refuse(specs):
            raise AssertionError("a finished fingerprint reached the executor")

        monkeypatch.setattr(fresh_executor, "execute_batch", refuse)
        (receipt,) = client.submit(tiny_run(seed=31))
        assert receipt["status"] == "done" and receipt["coalesced"]
        assert receipt["coalesced_into"] == first["id"]
        document = client.job(receipt["id"])
        assert document["status"] == "done"
        assert document["result"] == primary["result"]
        metrics = client.metrics()["metrics"]
        assert metrics[f"{self.role}.coalesce_hits"] == 1
        assert metrics[f"{self.role}.completed"] == 2
        assert sum(metrics[f"{self.role}.job_latency_ms"].values()) == 2

    def test_failed_fingerprint_runs_again(self, front_door, fresh_executor, monkeypatch):
        client = ServeClient(front_door(self.role).base_url)
        execute_batch = fresh_executor.execute_batch
        monkeypatch.setattr(
            fresh_executor, "execute_batch",
            lambda specs: [RuntimeError("transient")] * len(specs),
        )
        (failed,) = client.submit(tiny_run(seed=32))
        with pytest.raises(JobFailed, match="transient"):
            client.wait(failed["id"], timeout=60, poll=1.0)
        monkeypatch.setattr(fresh_executor, "execute_batch", execute_batch)
        (retry,) = client.submit(tiny_run(seed=32))
        assert not retry["coalesced"]
        assert client.wait(retry["id"], timeout=60, poll=1.0)["status"] == "done"
        # The success is remembered; the failure never was.
        (repeat,) = client.submit(tiny_run(seed=32))
        assert repeat["status"] == "done"
        assert repeat["coalesced_into"] == retry["id"]

    def test_cancelled_fingerprint_runs_again(self, front_door):
        client = ServeClient(front_door(self.role, queued=True).base_url)
        (first,) = client.submit(tiny_run(seed=33))
        client.cancel(first["id"])
        (again,) = client.submit(tiny_run(seed=33))
        assert not again["coalesced"] and again["status"] == "queued"
        assert client.healthz()["queue_depth"] == 1


class TestFinishedCoalescingRouter(TestFinishedCoalescing):
    role = "router"


class TestVerifyJobs:
    def test_corpus_style_verify_job(self, server):
        client = ServeClient(server.base_url)
        (receipt,) = client.submit(
            {"kind": "verify", "source": VERIFY_SOURCE, "configs": ["base+nonsel"]}
        )
        document = client.wait(receipt["id"], timeout=60, poll=1.0)
        result = document["result"]
        assert result["kind"] == "verify" and result["ok"] is True
        assert result["checked"] == 1 and result["configs"] == ["base+nonsel"]

    def test_verify_jobs_coalesce_on_source(self, server):
        client = ServeClient(server.base_url)
        spec = {"kind": "verify", "source": VERIFY_SOURCE, "configs": ["base+nonsel"]}
        first, second = client.submit([spec, spec])
        assert second["coalesced"] and second["coalesced_into"] == first["id"]


class TestBackpressure:
    """Admission on a queue that never drains; TestBackpressureRouter
    reruns every case against the router."""

    role = "serve"

    def test_429_with_retry_after_when_queue_full(self, front_door):
        bg = front_door(self.role, queued=True, queue_size=2)
        client = ServeClient(bg.base_url)
        client.submit([tiny_run(), tiny_run("gcc")])  # fills the queue
        status, headers, document = client._once(
            "POST", "/v1/jobs", tiny_run("bzip")
        )
        assert status == 429
        assert "queue full" in document["error"]
        retry_after = {k.lower(): v for k, v in headers.items()}["retry-after"]
        assert int(retry_after) >= 1

    def test_coalescing_submissions_bypass_backpressure(self, front_door):
        bg = front_door(self.role, queued=True, queue_size=1)
        client = ServeClient(bg.base_url)
        client.submit(tiny_run())
        # Same fingerprint: accepted as a follower despite a full queue.
        (receipt,) = client.submit(tiny_run())
        assert receipt["coalesced"]

    def test_atomic_batch_rejection(self, front_door):
        bg = front_door(self.role, queued=True, queue_size=2)
        client = ServeClient(bg.base_url)
        batch = [tiny_run(), tiny_run("gcc"), tiny_run("bzip")]
        status, _headers, _document = client._once("POST", "/v1/jobs", {"jobs": batch})
        assert status == 429
        assert client.jobs() == []  # nothing partially admitted


class TestBackpressureRouter(TestBackpressure):
    role = "router"


class TestHttpSurface:
    """The shared HTTP contract; TestHttpSurfaceRouter reruns it against
    the router."""

    role = "serve"

    def test_bad_spec_is_400(self, front_door):
        client = ServeClient(front_door(self.role).base_url)
        with pytest.raises(ServeError, match="unknown benchmark") as excinfo:
            client.submit(tiny_run("doom"))
        assert excinfo.value.status == 400

    def test_unknown_job_404(self, front_door):
        client = ServeClient(front_door(self.role).base_url)
        with pytest.raises(ServeError) as excinfo:
            client.job("j-999999")
        assert excinfo.value.status == 404

    def test_unknown_route_404_and_bad_method_405(self, front_door):
        client = ServeClient(front_door(self.role).base_url)
        assert client._once("GET", "/v2/nope", None)[0] == 404
        assert client._once("DELETE", "/v1/jobs", None)[0] == 405

    def test_invalid_json_body_400(self, front_door):
        import http.client

        server = front_door(self.role)
        connection = http.client.HTTPConnection(server.server.host, server.port, timeout=10)
        connection.request("POST", "/v1/jobs", body=b"{not json",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    def test_cancel_queued_job(self, front_door):
        bg = front_door(self.role, queued=True, queue_size=1)
        client = ServeClient(bg.base_url)
        (receipt,) = client.submit(tiny_run())
        document = client.cancel(receipt["id"])
        assert document["status"] == "cancelled"
        assert client.job(receipt["id"])["status"] == "cancelled"
        # Cancelling frees the admission slot at once: the queue is empty
        # and a full-size queue admits the next submission.
        assert client.healthz()["queue_depth"] == 0
        status, _headers, _document = client._once("POST", "/v1/jobs", tiny_run())
        assert status == 202

    def test_list_jobs_with_status_filter(self, front_door):
        client = ServeClient(front_door(self.role).base_url)
        (receipt,) = client.submit(tiny_run("twolf"))
        client.wait(receipt["id"], timeout=60, poll=1.0)
        done = client.jobs(status="done")
        assert any(job["id"] == receipt["id"] for job in done)
        assert all("result" not in job for job in done)  # listings are light


class TestHttpSurfaceRouter(TestHttpSurface):
    role = "router"


class TestMetrics:
    role = "serve"

    def test_metrics_document_shape(self, front_door):
        client = ServeClient(front_door(self.role).base_url)
        (receipt,) = client.submit(tiny_run("vpr"))
        client.wait(receipt["id"], timeout=60, poll=1.0)
        document = client.metrics()
        section = document[self.role]
        # A server reports its worker-task count, a router its roster.
        workers = section["workers"]
        assert section["queue_depth"] == 0
        assert (workers == 2) if self.role == "serve" else (len(workers) == 1)
        assert section["latency_ms"]["p50"] is not None
        assert section["latency_ms"]["p99"] >= section["latency_ms"]["p50"]
        metrics = document["metrics"]
        assert metrics[f"{self.role}.submitted"] >= 1
        assert metrics[f"{self.role}.completed"] >= 1
        assert f"{self.role}.job_latency_ms" in metrics


class TestMetricsRouter(TestMetrics):
    role = "router"
