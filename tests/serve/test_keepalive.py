"""Persistent HTTP/1.1 connections on every serve hop.

Front ends answer requests in a loop on one connection and close it when
the peer does, on ``Connection: close``, on drain or after an idle spell;
``ServeClient`` keeps one connection per calling thread; the router keeps
a per-worker stack of idle connections to its workers.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.analysis.cache import ResultCache
from repro.serve import frontend
from repro.serve import router as router_mod
from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.executor import JobExecutor
from repro.serve.jobs import JobTable, SpoolJournal
from repro.serve.protocol import parse_spec
from repro.serve.router import BackgroundRouter, WorkerHandle, _worker_request
from repro.serve.server import BackgroundServer

from tests.serve.conftest import tiny_run

ROLES = ("serve", "router")


def _request(path: str, extra: str = "") -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: test\r\n{extra}\r\n".encode("latin-1")


def _read_response(stream) -> tuple[bytes, dict, bytes]:
    """(status line, lowercased headers, body) of one response on *stream*."""
    status = stream.readline()
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", "0")))
    return status, headers, body


def _counters(front, *names: str) -> list:
    registry = front.server.registry
    return [registry.counter(f"{front.server.role}.{name}").value for name in names]


@pytest.mark.parametrize("role", ROLES)
class TestFrontEnd:
    def test_two_requests_on_one_socket(self, front_door, role):
        front = front_door(role, queued=True)
        with socket.create_connection(("127.0.0.1", front.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            for path in ("/healthz", "/v1/jobs"):
                sock.sendall(_request(path))
                status, headers, body = _read_response(stream)
                assert status.startswith(b"HTTP/1.1 200"), (path, status)
                assert "connection" not in headers
                assert body.endswith(b"\n")
        assert _counters(front, "http_connections", "http_requests") == [1, 2]

    @pytest.mark.parametrize("request_bytes, status", [
        (_request("/healthz", "Connection: close\r\n"), b"200"),
        (b"GET /healthz HTTP/1.0\r\n\r\n", b"200"),
        (b"POST /v1/jobs HTTP/1.1\r\nContent-Length: many\r\n\r\n", b"400"),
    ], ids=["connection-close", "http-1.0", "unparsable-framing"])
    def test_request_that_ends_its_connection(self, front_door, role, request_bytes, status):
        front = front_door(role, queued=True)
        with socket.create_connection(("127.0.0.1", front.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(request_bytes)
            status_line, headers, _body = _read_response(stream)
            assert status_line.split()[1] == status
            assert headers["connection"] == "close"
            assert stream.read() == b""  # EOF: the server closed its end

    def test_idle_connection_is_closed(self, front_door, role, monkeypatch):
        monkeypatch.setattr(frontend, "KEEPALIVE_IDLE_S", 0.2)
        front = front_door(role, queued=True)
        with socket.create_connection(("127.0.0.1", front.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(_request("/healthz"))
            _read_response(stream)
            assert stream.read() == b""  # closed after 0.2 s without a request

    def test_client_submit_and_wait_share_one_connection(self, front_door, role):
        front = front_door(role)
        client = ServeClient(front.base_url, timeout=30)
        (receipt,) = client.submit(tiny_run("gzip", seed=61))
        assert client.wait(receipt["id"], timeout=60)["status"] == "done"
        assert client.healthz()["ok"]
        connections, requests = _counters(front, "http_connections", "http_requests")
        assert (connections, requests) == (1, 3)
        assert client.metrics()["metrics"][f"{role}.http_connections"] == 1
        client.close()
        assert client.healthz()["ok"]
        assert _counters(front, "http_connections") == [2]
        client.close()

    def test_server_closed_idle_connection_costs_no_sleep(self, front_door, role, monkeypatch):
        monkeypatch.setattr(frontend, "KEEPALIVE_IDLE_S", 0.2)
        front = front_door(role, queued=True)
        sleeps: list = []
        client = ServeClient(
            front.base_url, timeout=10,
            retry=RetryPolicy(retries=0), sleep=sleeps.append, rng=random.Random(3),
        )
        assert client.healthz()["ok"]
        time.sleep(0.6)  # the server closes the connection while it is idle
        assert client.healthz()["ok"]  # no retry budget: the resend is free
        assert sleeps == []
        assert _counters(front, "http_connections", "http_requests") == [2, 2]

    def test_each_thread_gets_its_own_connection(self, front_door, role):
        front = front_door(role, queued=True)
        client = ServeClient(front.base_url, timeout=10)
        errors: list = []

        def poll() -> None:
            try:
                for _ in range(20):
                    assert client.healthz()["ok"]
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=poll) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert _counters(front, "http_connections", "http_requests") == [3, 60]


@pytest.mark.parametrize("graceful", [True, False], ids=["drain", "abort"])
@pytest.mark.parametrize("role", ROLES)
def test_stop_is_prompt_with_an_idle_client(role, graceful):
    front = (BackgroundServer(port=0, workers=0) if role == "serve"
             else BackgroundRouter(port=0, workers=[])).start()
    client = ServeClient(front.base_url, timeout=10)
    assert client.healthz()["ok"]  # leaves a kept-alive connection idle
    silent = socket.create_connection(("127.0.0.1", front.port), timeout=10)
    deadline = time.monotonic() + 5.0
    while _counters(front, "http_connections")[0] < 2 and time.monotonic() < deadline:
        time.sleep(0.01)  # until the server has accepted it
    try:
        started = time.monotonic()
        front.stop(graceful=graceful)
        assert time.monotonic() - started < 5.0
        assert not front._thread.is_alive()
        assert silent.recv(1) == b""  # the idle connection was closed
    finally:
        silent.close()


# ----------------------------------------------------------------------
# router -> worker
# ----------------------------------------------------------------------
@pytest.fixture
def quiet_cluster(tmp_path, monkeypatch):
    """A router over one worker that probes once, at start-up only."""
    monkeypatch.setattr(router_mod, "HEALTH_INTERVAL_S", 3600.0)
    monkeypatch.setattr(router_mod, "WATCH_POLL_S", 2.0)
    executor = JobExecutor(cache=ResultCache(tmp_path / "store"))
    worker = BackgroundServer(port=0, workers=1, name="w0", executor=executor).start()
    router = BackgroundRouter(port=0, workers=[worker.base_url]).start()
    handle = router.server.workers[worker.base_url]
    deadline = time.monotonic() + 10.0
    while handle.name is None and time.monotonic() < deadline:
        time.sleep(0.02)
    assert handle.name == "w0"  # the start-up probe is done
    state = {"worker": worker, "executor": executor}
    try:
        yield router, handle, state
    finally:
        router.stop(graceful=True)
        state["worker"].stop(graceful=True)


def test_router_reuses_worker_connection_across_dispatch_and_watch(quiet_cluster):
    router, _handle, state = quiet_cluster
    client = ServeClient(router.base_url, timeout=30)
    documents = client.submit_and_wait([tiny_run("gzip", seed=71)], timeout=60)
    assert documents[0]["status"] == "done"
    connections, requests = _counters(state["worker"], "http_connections", "http_requests")
    # the start-up probe, the dispatch and at least one watch, on one connection
    assert connections == 1 and requests >= 3


def test_restarted_worker_adds_no_dispatch_errors(quiet_cluster):
    router, handle, state = quiet_cluster
    client = ServeClient(router.base_url, timeout=30)
    assert client.submit_and_wait([tiny_run("gzip", seed=81)], timeout=60)[0]["status"] == "done"
    assert handle.idle  # the router holds an idle connection to the worker
    port = state["worker"].port
    state["worker"].stop(graceful=True)
    state["worker"] = BackgroundServer(
        port=port, workers=1, name="w0", executor=state["executor"]
    ).start()
    assert client.submit_and_wait([tiny_run("mcf", seed=81)], timeout=60)[0]["status"] == "done"
    registry = router.server.registry
    assert registry.counter("router.dispatch_errors").value == 0
    assert registry.counter("router.redispatches").value == 0
    assert handle.consecutive_failures == 0 and handle.healthy


def test_recovered_dispatch_of_a_finished_id_is_settled_from_its_receipt(
    quiet_cluster, tmp_path
):
    """A recovered router re-dispatches a journaled job the worker already
    finished: the worker's done receipt settles it, with no watch GET."""
    _router, _handle, state = quiet_cluster
    worker = state["worker"]
    spec = tiny_run("gzip", seed=87)
    worker_client = ServeClient(worker.base_url, timeout=30)
    (receipt,) = worker_client.submit({"jobs": [spec], "ids": ["j-000001"]})
    finished = worker_client.wait(receipt["id"], timeout=60)
    spool = tmp_path / "router-spool"
    journal = SpoolJournal(spool)
    table = JobTable()
    journal.record_submit(table.submit(parse_spec(spec), job_id="j-000001")[0])
    before = _counters(worker, "http_requests")[0]
    recovered = BackgroundRouter(port=0, workers=[worker.base_url], spool=spool).start()
    try:
        document = ServeClient(recovered.base_url, timeout=30).wait("j-000001", timeout=60)
        handle = recovered.server.workers[worker.base_url]
        deadline = time.monotonic() + 10.0
        while handle.name is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert handle.name == "w0"  # the start-up probe is done
        assert document["result"] == finished["result"]
        # the start-up probe and the dispatch POST: no watch GET
        assert _counters(worker, "http_requests")[0] - before == 2
        registry = recovered.server.registry
        assert registry.counter("router.dispatches").value == 1
    finally:
        recovered.stop(graceful=True)


def test_stale_pooled_connection_is_resent_once_on_a_new_one():
    """A worker that reads a request on a kept-alive connection and closes
    it without answering costs one fresh connection, not a failure."""
    response = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: 12\r\n\r\n{\"ok\": true}")
    listener = socket.create_server(("127.0.0.1", 0))
    accepted: list = []

    def serve() -> None:
        # Each connection answers one request, then reads the next one and
        # closes without answering it.
        for _ in range(2):
            conn, _addr = listener.accept()
            accepted.append(conn)
            with conn, conn.makefile("rb") as stream:
                _read_response(stream)  # a request parses like a response
                conn.sendall(response)
                _read_response(stream)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    handle = WorkerHandle(url=f"http://127.0.0.1:{listener.getsockname()[1]}")

    async def two_requests() -> list:
        first = await _worker_request(handle, "GET", "/healthz", timeout=5)
        # Connection 1 is pooled and still open: the next request reuses
        # it, finds it closed unanswered, and resends on connection 2.
        second = await _worker_request(handle, "GET", "/healthz", timeout=5)
        for _reader, writer in handle.idle:
            writer.close()
        return [first, second]

    try:
        assert asyncio.run(two_requests()) == [(200, {"ok": True})] * 2
        assert len(accepted) == 2
    finally:
        listener.close()
        thread.join(timeout=5)
    assert not thread.is_alive()
