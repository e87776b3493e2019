"""A receipt whose job is already ``done`` carries that job's document.

Front ends add ``document`` (what ``GET /v1/jobs/{id}`` returns) to each
done receipt of a ``202``; ``ServeClient.wait`` answers a job from the
calling thread's last ``submit`` without a request, and sends its
long-poll on every other path.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.serve.client import ServeClient

from tests.serve.conftest import tiny_run

ROLES = ("serve", "router")


def _requests(front) -> int:
    """Requests the front end has answered, read without sending one."""
    return front.server.registry.counter(f"{front.server.role}.http_requests").value


def _finished(front, *specs) -> ServeClient:
    """A client whose front end has already finished every spec."""
    client = ServeClient(front.base_url, timeout=30)
    for document in client.submit_and_wait(list(specs), timeout=60):
        assert document["status"] == "done"
    return client


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize("role", ROLES)
class TestDoneReceipts:
    def test_done_receipt_carries_its_get_document(self, front_door, role):
        front = front_door(role)
        spec = tiny_run("gzip", seed=91)
        client = _finished(front, spec)
        (receipt,) = client.submit(spec)
        assert receipt["status"] == "done"
        assert receipt["document"]["status"] == "done"
        assert receipt["document"]["fingerprint"] == receipt["fingerprint"]
        assert _canonical(receipt["document"]) == _canonical(client.job(receipt["id"]))

    def test_queued_receipt_has_no_document(self, front_door, role):
        front = front_door(role, queued=True)
        client = ServeClient(front.base_url, timeout=10)
        (receipt,) = client.submit(tiny_run("gzip", seed=92))
        assert receipt["status"] == "queued"
        assert "document" not in receipt

    def test_submit_then_wait_on_a_done_fingerprint_is_one_request(self, front_door, role):
        front = front_door(role)
        spec = tiny_run("mcf", seed=93)
        client = _finished(front, spec)
        before = _requests(front)
        (receipt,) = client.submit(spec)
        document = client.wait(receipt["id"], timeout=60)
        assert _requests(front) - before == 1
        assert document["id"] == receipt["id"] and document["status"] == "done"

    def test_submit_and_wait_of_a_done_batch_is_one_request(self, front_door, role):
        front = front_door(role)
        specs = [tiny_run("gzip", seed=seed) for seed in range(94, 99)]
        client = _finished(front, *specs)
        before = _requests(front)
        documents = client.submit_and_wait(specs, timeout=60)
        assert _requests(front) - before == 1
        assert [document["status"] for document in documents] == ["done"] * 5

    def test_wait_from_another_thread_sends_its_get(self, front_door, role):
        front = front_door(role)
        spec = tiny_run("bzip", seed=99)
        client = _finished(front, spec)
        before = _requests(front)
        (receipt,) = client.submit(spec)
        waited: list = []
        thread = threading.Thread(
            target=lambda: waited.append(client.wait(receipt["id"], timeout=60))
        )
        thread.start()
        thread.join()
        assert _requests(front) - before == 2
        assert _canonical(waited[0]) == _canonical(receipt["document"])
        # The submitting thread still answers from its own receipt.
        assert client.wait(receipt["id"], timeout=60) is receipt["document"]
        assert _requests(front) - before == 2

    def test_a_later_submit_drops_the_kept_documents(self, front_door, role):
        front = front_door(role)
        first, second = tiny_run("gcc", seed=100), tiny_run("twolf", seed=100)
        client = _finished(front, first, second)
        before = _requests(front)
        (early,) = client.submit(first)
        (late,) = client.submit(second)
        assert _canonical(client.wait(early["id"], timeout=60)) == _canonical(
            early["document"]
        )
        assert _requests(front) - before == 3
        assert client.wait(late["id"], timeout=60) is late["document"]
        assert _requests(front) - before == 3
