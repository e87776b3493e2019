"""Serve front ends on a background thread, for tests and fixtures.

``BackgroundServer`` and ``BackgroundRouter`` run a
:class:`~repro.serve.server.ServeServer` or
:class:`~repro.serve.router.RouterServer` on its own thread and event loop,
so a test can talk to it over real sockets with the blocking client.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import threading

from repro.serve.frontend import JobFrontEnd
from repro.serve.router import RouterServer
from repro.serve.server import ServeServer


class BackgroundFrontEnd:
    """A front end on its own thread + event loop.

    ``BackgroundFrontEnd(ServeServer, **kwargs)`` builds the front end
    inside its loop.  ``start()`` blocks until the socket is bound and
    exposes ``port``; ``stop(graceful=True)`` drains (persisting the
    queue), while ``stop(graceful=False)`` aborts without compaction — a
    simulated crash for persistence tests.
    """

    def __init__(self, factory: type[JobFrontEnd], **kwargs):
        self._factory = factory
        self._kwargs = kwargs
        self.server: JobFrontEnd | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop_requested: asyncio.Event | None = None
        self._graceful = True
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def base_url(self) -> str:
        assert self.server is not None
        return f"http://{self.server.host}:{self.server.port}"

    async def _main(self) -> None:
        self._stop_requested = asyncio.Event()
        self.server = self._factory(**self._kwargs)
        try:
            await self.server.start()
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            raise
        self._ready.set()
        await self._stop_requested.wait()
        if self._graceful:
            await self.server.drain()
        else:
            await self.server.abort()

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._main())
        except BaseException:
            self._ready.set()
        finally:
            self._loop.close()

    def start(self) -> "BackgroundFrontEnd":
        self._thread = threading.Thread(
            target=self._run, name=f"{self._factory.role}-bg", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.server is None or self._loop is None:
            raise RuntimeError(f"background {self._factory.role} failed to start")
        return self

    def stop(self, graceful: bool = True) -> None:
        if self._loop is None or self._thread is None or self._stop_requested is None:
            return
        self._graceful = graceful
        # Idempotent: a second stop after the loop already closed
        # (e.g. fixture teardown after a simulated crash) is a no-op.
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        self._thread.join(timeout=60)

    def __enter__(self) -> "BackgroundFrontEnd":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(graceful=True)


#: A ServeServer on its own thread + event loop.
BackgroundServer = functools.partial(BackgroundFrontEnd, ServeServer)

#: A RouterServer on its own thread + event loop.
BackgroundRouter = functools.partial(BackgroundFrontEnd, RouterServer)
