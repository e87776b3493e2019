"""Client wait-resume across server restarts (the spool-watermark fix).

A long-poll that loses its connection because the server is restarting
must keep polling the **original job id** — the restarted server
recovers pending jobs from its spool under their old ids — and a 404
after the restart must be classified against the journal's id
watermark: below it means completed-and-compacted, at/above it means
never issued.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis.cache import ResultCache
from repro.serve import frontend
from repro.serve.client import ServeClient, ServeError
from repro.serve.executor import JobExecutor

from tests.serve.background import BackgroundServer
from tests.serve.conftest import tiny_run


def _executor(tmp_path) -> JobExecutor:
    return JobExecutor(cache=ResultCache(tmp_path / "cache"))


class TestWaitResume:
    def test_wait_survives_a_restart_with_the_original_id(self, tmp_path, monkeypatch):
        spool = tmp_path / "spool"
        # BATCH = 1: a worker must not drain the second job into the first
        # one's batch, or nothing is left queued across the restart.
        monkeypatch.setattr(frontend, "BATCH", 1)
        first = BackgroundServer(
            port=0, workers=1, spool=spool, executor=_executor(tmp_path)
        )
        first.start()
        port = first.port
        client = ServeClient(first.base_url, timeout=10.0)
        # One in-flight job plus one that stays queued: the queued one is
        # what must survive the restart.
        receipts = client.submit(
            [tiny_run("gzip", seed=61), tiny_run("mcf", seed=61)]
        )
        queued_id = receipts[-1]["id"]

        outcome: dict = {}

        def wait_through_restart() -> None:
            try:
                outcome["document"] = client.wait(queued_id, timeout=90.0, poll=0.5)
            except Exception as error:  # noqa: BLE001 - recorded for the assert
                outcome["error"] = error

        waiter = threading.Thread(target=wait_through_restart)
        waiter.start()
        # Restart window: drain (persists the queue), gap, come back up
        # on the same port with the same spool.
        first.stop(graceful=True)
        time.sleep(0.5)
        second = BackgroundServer(
            port=port, workers=1, spool=spool, executor=_executor(tmp_path)
        )
        second.start()
        try:
            waiter.join(timeout=90)
            assert not waiter.is_alive()
            assert "error" not in outcome, f"wait raised: {outcome.get('error')}"
            document = outcome["document"]
            assert document["status"] == "done"
            assert document["id"] == queued_id
        finally:
            second.stop(graceful=True)

    def test_compacted_id_gets_a_watermark_diagnosis(self, tmp_path):
        spool = tmp_path / "spool"
        first = BackgroundServer(
            port=0, workers=1, spool=spool, executor=_executor(tmp_path)
        )
        first.start()
        port = first.port
        client = ServeClient(first.base_url, timeout=10.0)
        receipt = client.submit([tiny_run("gzip", seed=62)])[0]
        client.wait(receipt["id"], timeout=60.0)
        first.stop(graceful=True)  # compaction drops the done record

        second = BackgroundServer(
            port=port, workers=1, spool=spool, executor=_executor(tmp_path)
        )
        second.start()
        try:
            # The id is below the restarted server's watermark: the error
            # says so instead of pretending the job never existed.
            with pytest.raises(ServeError, match="compacted"):
                ServeClient(second.base_url, timeout=10.0).wait(
                    receipt["id"], timeout=10.0
                )
        finally:
            second.stop(graceful=True)

    def test_never_issued_id_is_called_out(self, tmp_path):
        server = BackgroundServer(
            port=0, workers=1, spool=tmp_path / "spool", executor=_executor(tmp_path)
        )
        server.start()
        try:
            with pytest.raises(ServeError, match="never issued"):
                ServeClient(server.base_url, timeout=10.0).wait(
                    "j-999999", timeout=5.0
                )
        finally:
            server.stop(graceful=True)

    def test_watermark_rides_the_404_body(self, tmp_path):
        server = BackgroundServer(
            port=0, workers=1, spool=tmp_path / "spool", executor=_executor(tmp_path)
        )
        server.start()
        try:
            client = ServeClient(server.base_url, timeout=10.0)
            with pytest.raises(ServeError) as info:
                client.job("j-000042")
            assert info.value.status == 404
            assert isinstance(info.value.payload.get("next_id"), int)
        finally:
            server.stop(graceful=True)
