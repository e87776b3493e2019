"""Shared fixtures for the serving-layer tests.

Every server gets its own spool directory and its own empty on-disk
result cache, so tests never read or pollute the repository's
``results/cache/`` and coalescing/simulation counts are exact.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.analysis.cache import ResultCache
from repro.serve.executor import JobExecutor
from repro.serve.router import BackgroundRouter
from repro.serve.server import BackgroundServer

#: Run lengths small enough that one simulation takes ~10 ms.
TINY = {"insts": 200, "warmup": 100}


def tiny_run(benchmark: str = "gzip", **overrides) -> dict:
    """A wire-level run spec with tiny run lengths."""
    spec = {"kind": "run", "benchmark": benchmark, "seed": 7, **TINY}
    spec.update(overrides)
    return spec


@pytest.fixture
def fresh_executor(tmp_path):
    """A JobExecutor over an empty, test-private disk cache."""
    return JobExecutor(cache=ResultCache(tmp_path / "cache"))


@pytest.fixture
def front_door(tmp_path, fresh_executor):
    """Factory: a running front end of a role (``"serve"`` or ``"router"``).

    ``front_door(role)`` serves jobs to completion: a server with two
    worker tasks, or a router in front of one such server.
    ``front_door(role, queued=True)`` keeps every admitted job queued: a
    server with no worker tasks, or a router with no workers.  Extra
    keyword arguments reach the front end itself.
    """
    with contextlib.ExitStack() as stack:

        def open_front(role: str, queued: bool = False, **kwargs):
            spool = None if queued else tmp_path / f"{role}-spool"
            if role == "serve":
                return stack.enter_context(
                    BackgroundServer(
                        port=0,
                        workers=0 if queued else 2,
                        spool=spool,
                        executor=fresh_executor,
                        **kwargs,
                    )
                )
            worker_urls = []
            if not queued:
                worker = stack.enter_context(
                    BackgroundServer(port=0, workers=2, executor=fresh_executor)
                )
                worker_urls.append(worker.base_url)
            return stack.enter_context(
                BackgroundRouter(port=0, workers=worker_urls, spool=spool, **kwargs)
            )

        yield open_front


@pytest.fixture
def server(front_door):
    """A running background server with spool + private cache."""
    return front_door("serve")
