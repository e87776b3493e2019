"""Client SDK for the serving layer (stdlib-only, synchronous).

:class:`ServeClient` wraps the HTTP API with the retry discipline a
flaky network needs:

* **jittered exponential backoff** on connection failures, dropped or
  truncated responses, and 5xx errors — delay doubles per attempt with
  a multiplicative jitter so synchronized clients fan out;
* **backpressure compliance** — 429/503 responses sleep for the server's
  ``Retry-After`` hint (capped) before retrying;
* **idempotent resubmission** — a retried ``POST /v1/jobs`` whose first
  attempt actually reached the server coalesces onto the original job by
  cache fingerprint instead of duplicating work, so submits are safe to
  retry blindly;
* **streaming poll** — :meth:`wait` long-polls ``GET /v1/jobs/{id}``
  (``?wait=``) so results arrive within one round-trip of completion
  without hammering the server; a receipt that is already ``done``
  carries its job document, and ``wait`` answers it from the calling
  thread's last :meth:`submit` without a request;
* **kept-alive connections** — each calling thread reuses one HTTP/1.1
  connection, so a submit and its wait cost no TCP set-up.

Injectable ``sleep`` and ``rng`` keep the backoff schedule testable.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.serve.protocol import TERMINAL_STATES


class ServeError(ReproError):
    """A request that failed for good (no further retries).

    ``status`` is the HTTP status for 4xx failures (None when the
    transport itself gave out); ``payload`` carries the server's JSON
    error body, e.g. the ``next_id`` watermark on 404s.
    """

    def __init__(
        self, message: str, status: int | None = None, payload: dict | None = None
    ):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class JobFailed(ServeError):
    """A job reached a terminal state other than ``done``."""


#: Exceptions that mean "the bytes never arrived / arrived torn" —
#: always safe to retry against this API.
_RETRYABLE_ERRORS = (
    ConnectionError,
    TimeoutError,
    http.client.HTTPException,
    EOFError,
    OSError,
)


class _Connection(http.client.HTTPConnection):
    """A kept-alive connection that closes its socket when it is dropped,
    with its thread or with its client."""

    def __del__(self) -> None:
        self.close()


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient failures."""

    retries: int = 5
    backoff_s: float = 0.2
    max_backoff_s: float = 5.0
    #: cap applied to server-provided Retry-After hints
    max_retry_after_s: float = 30.0

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Jittered exponential delay before retry *attempt* (0-based)."""
        base = min(self.max_backoff_s, self.backoff_s * (2**attempt))
        return base * (0.5 + rng.random() / 2)


class ServeClient:
    """Synchronous client for one serve endpoint."""

    def __init__(
        self,
        base_url: str = "http://127.0.0.1:8765",
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ):
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme not in ("", "http"):
            raise ServeError(f"unsupported scheme {split.scheme!r} (http only)")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        #: per calling thread: one kept-alive ``HTTPConnection``, and the
        #: documents of the done receipts of its last :meth:`submit`
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _once(self, method: str, path: str, payload: dict | None):
        """One HTTP exchange: (status, headers, parsed-JSON body).

        It runs on the calling thread's kept-alive connection, and any
        failure closes and drops that connection.  A reused connection
        that fails before any response byte arrives was closed by the
        server while idle, so the request goes once more on a new
        connection, with no sleep and no retry spent.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = getattr(self._local, "connection", None)
        # http.client drops the socket after a ``Connection: close``
        # response; the next request on the object opens a new one.
        reused = connection is not None and connection.sock is not None
        while True:
            if connection is None:
                connection = _Connection(self.host, self.port, timeout=self.timeout)
                self._local.connection = connection
            answered = False
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                answered = True
                raw = response.read()  # raises on mid-response disconnect
                try:
                    document = json.loads(raw.decode("utf-8")) if raw else {}
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    # A truncated body that still "read" cleanly: retryable.
                    raise http.client.HTTPException(
                        f"undecodable response body: {error}"
                    ) from None
                return response.status, dict(response.getheaders()), document
            except BaseException as error:
                connection.close()
                connection = self._local.connection = None
                if not reused or answered or not isinstance(error, ConnectionError):
                    raise
                reused = False

    def close(self) -> None:
        """Close the calling thread's kept-alive connection, if it has one;
        the next request opens a new one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """Issue one API call with the full retry discipline."""
        policy = self.retry
        last_error: str = "no attempts made"
        for attempt in range(policy.retries + 1):
            try:
                status, headers, document = self._once(method, path, payload)
            except _RETRYABLE_ERRORS as error:
                last_error = f"{type(error).__name__}: {error}"
                if attempt >= policy.retries:
                    break
                self._sleep(policy.delay(attempt, self._rng))
                continue
            if status in (429, 503):
                last_error = f"HTTP {status}: {document.get('error', 'overloaded')}"
                if attempt >= policy.retries:
                    break
                retry_after = headers.get("Retry-After") or headers.get("retry-after")
                try:
                    hinted = float(retry_after) if retry_after is not None else None
                except ValueError:
                    hinted = None
                if hinted is not None:
                    self._sleep(min(hinted, policy.max_retry_after_s))
                else:
                    self._sleep(policy.delay(attempt, self._rng))
                continue
            if status >= 500:
                last_error = f"HTTP {status}: {document.get('error', 'server error')}"
                if attempt >= policy.retries:
                    break
                self._sleep(policy.delay(attempt, self._rng))
                continue
            if status >= 400:
                raise ServeError(
                    f"{method} {path} -> HTTP {status}: {document.get('error', 'request failed')}",
                    status=status,
                    payload=document,
                )
            return document
        raise ServeError(
            f"{method} {path} failed after {policy.retries + 1} attempt(s): {last_error}"
        )

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def submit(self, specs) -> list[dict]:
        """Submit one spec (dict) or a list; returns per-job receipts.

        Safe to retry: duplicate submissions coalesce server-side onto
        the same fingerprint, so at-least-once delivery costs nothing.
        The documents that ``done`` receipts carry are kept, until this
        thread's next submit, for :meth:`wait` to answer from.
        """
        if isinstance(specs, dict):
            payload: dict = specs
        else:
            payload = {"jobs": list(specs)}
        receipts = self.request("POST", "/v1/jobs", payload)["jobs"]
        self._local.done = {
            receipt["id"]: receipt["document"]
            for receipt in receipts
            if receipt["status"] == "done" and "document" in receipt
        }
        return receipts

    def job(self, job_id: str, wait: float | None = None) -> dict:
        """Fetch one job's status/result; ``wait`` long-polls server-side."""
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self.request("GET", path)

    def jobs(self, status: str | None = None) -> list[dict]:
        path = "/v1/jobs" + (f"?status={status}" if status else "")
        return self.request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    # ------------------------------------------------------------------
    def wait(self, job_id: str, timeout: float = 300.0, poll: float = 5.0) -> dict:
        """Block until *job_id* is terminal; returns its final document.

        Survives a server restart mid-wait: transport failures (the
        connection dropped, the socket refused while the server rebinds)
        are retried against the **original job id** until the overall
        deadline — a restarted server recovers pending jobs from its
        spool under their old ids, so the poll simply resumes.  A 404 is
        classified against the server's spool id watermark (``next_id``
        in the error body): an id below the watermark was completed and
        compacted away during the restart, an id at or above it was
        never issued.

        A job whose receipt from this thread's last :meth:`submit` was
        already ``done`` is answered from that receipt's document, once,
        without a request.

        Raises :class:`JobFailed` on a failed/cancelled job and
        :class:`ServeError` on timeout.
        """
        document = getattr(self._local, "done", {}).pop(job_id, None)
        if document is not None:
            return document
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError(f"timed out waiting for job {job_id}")
            try:
                document = self.job(job_id, wait=min(poll, max(0.05, remaining)))
            except ServeError as error:
                if error.status == 404:
                    raise self._classify_missing(job_id, error) from None
                if error.status is not None:
                    raise
                # Transport gave out (likely a restart in progress): keep
                # resuming with the original id until the deadline.
                if deadline - time.monotonic() <= 0:
                    raise ServeError(
                        f"timed out waiting for job {job_id}: {error}"
                    ) from None
                self._sleep(min(self.retry.backoff_s, max(0.05, deadline - time.monotonic())))
                continue
            if document["status"] in TERMINAL_STATES:
                if document["status"] != "done":
                    raise JobFailed(
                        f"job {job_id} {document['status']}: {document.get('error')}"
                    )
                return document

    @staticmethod
    def _classify_missing(job_id: str, error: ServeError) -> ServeError:
        """Turn a 404 into a precise diagnosis using the id watermark."""
        next_id = error.payload.get("next_id")
        try:
            numeric = int(job_id.split("-", 1)[1])
        except (IndexError, ValueError):
            numeric = None
        if isinstance(next_id, int) and numeric is not None and numeric < next_id:
            return ServeError(
                f"job {job_id} completed before a server restart and its "
                "record was compacted; resubmit to get the (cached) result",
                status=404,
                payload=error.payload,
            )
        return ServeError(
            f"job {job_id} was never issued by this server",
            status=404,
            payload=error.payload,
        )

    def submit_and_wait(self, specs, timeout: float = 300.0, poll: float = 5.0) -> list[dict]:
        """Submit a batch and wait for every job; returns final documents."""
        receipts = self.submit(specs)
        return [self.wait(receipt["id"], timeout=timeout, poll=poll) for receipt in receipts]
