"""Job bookkeeping for the serving layer: table, coalescing, persistence.

The :class:`JobTable` owns every job the server has seen.  Submission is
where **singleflight coalescing** happens: a spec whose fingerprint matches
a job that is still queued or running does not enqueue new work — it
becomes a *follower* of the active primary, and when the primary finishes
its result (or error) fans out to every follower.  A spec whose
fingerprint matches a primary that already finished ``done`` is settled on
the spot with that primary's result; failed and cancelled fingerprints are
forgotten, so resubmitting them runs them again.  Followers are free:
only primaries occupy queue capacity, so resubmitting a sweep never trips
backpressure.

The :class:`SpoolJournal` makes the queue crash-safe.  Every accepted job
appends a ``submit`` line *before* the server acknowledges it, and every
terminal transition appends a ``done`` line; recovery replays the journal
and re-enqueues the submits that never reached a terminal state.  A torn
trailing line (the crash happened mid-write) is ignored.  Graceful
shutdown compacts the journal down to exactly the pending set.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve.protocol import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobSpec,
    parse_spec,
)


@dataclass
class Job:
    """One submitted job and its lifecycle state."""

    id: str
    spec: JobSpec
    fingerprint: str
    status: str = QUEUED
    #: primary job id this submission coalesced onto (None for primaries)
    coalesced_into: str | None = None
    followers: list["Job"] = field(default_factory=list)
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict | None = None
    error: str | None = None
    #: set when the job reaches a terminal state (long-poll waiters)
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def public(self, include_result: bool = True) -> dict:
        """The wire representation served by ``GET /v1/jobs/{id}``."""
        document = {
            "id": self.id,
            "kind": self.spec.kind,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "coalesced_into": self.coalesced_into,
            "spec": self.spec.as_wire(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if include_result:
            document["result"] = self.result
        return document


class JobTable:
    """All jobs by id, plus the fingerprint indexes driving coalescing."""

    def __init__(self, next_id: int = 1):
        self.jobs: dict[str, Job] = {}
        self._active_by_fp: dict[str, Job] = {}
        #: primaries that finished ``done``: a result is a pure function of
        #: its fingerprint, so a repeat is answered at submission
        self._done_by_fp: dict[str, Job] = {}
        self._next_id = next_id

    def _new_id(self) -> str:
        job_id = f"j-{self._next_id:06d}"
        self._next_id += 1
        return job_id

    @property
    def next_id(self) -> int:
        """The numeric id the next submission will receive."""
        return self._next_id

    def reserve_next_id(self, next_id: int) -> None:
        """Keep the id counter at or beyond *next_id* (journal watermark)."""
        self._next_id = max(self._next_id, next_id)

    def reserve_past_id(self, job_id: str) -> None:
        """Keep the id counter ahead of a recovered job's id."""
        try:
            numeric = int(job_id.split("-", 1)[1])
        except (IndexError, ValueError):
            return
        self._next_id = max(self._next_id, numeric + 1)

    # ------------------------------------------------------------------
    def submit(
        self, spec: JobSpec, job_id: str | None = None, fingerprint: str | None = None
    ) -> tuple[Job, bool]:
        """Register one spec; returns ``(job, coalesced)``.

        ``coalesced`` is True when the job attached to an active primary,
        or was settled ``done`` from a finished one, instead of becoming
        new work; the caller only enqueues primaries.
        *fingerprint* is the spec's digest when the caller already holds
        it (the front end computes it once, for admission).
        """
        if job_id is None:
            job_id = self._new_id()
        else:
            self.reserve_past_id(job_id)
        if fingerprint is None:
            fingerprint = spec.fingerprint()
        job = Job(id=job_id, spec=spec, fingerprint=fingerprint)
        self.jobs[job.id] = job
        primary = self.primary(job.fingerprint)
        if primary is not None:
            job.coalesced_into = primary.id
            if primary.terminal:
                self._settle(job, DONE, primary.result, None)
            else:
                job.status = primary.status
                primary.followers.append(job)
            return job, True
        self._active_by_fp[job.fingerprint] = job
        return job, False

    # ------------------------------------------------------------------
    def mark_running(self, job: Job) -> None:
        job.status = RUNNING
        job.started_at = time.time()
        for follower in job.followers:
            follower.status = RUNNING
            follower.started_at = job.started_at

    def _settle(self, job: Job, status: str, result: dict | None, error: str | None) -> None:
        job.status = status
        job.finished_at = time.time()
        job.result = result
        job.error = error
        job.done_event.set()

    def finish(self, job: Job, result: dict | None = None, error: str | None = None) -> list[Job]:
        """Settle a primary and fan out to its followers.

        Returns every job settled (primary first) so the caller can journal
        their terminal transitions.
        """
        status = DONE if error is None else FAILED
        settled = [job]
        self._settle(job, status, result, error)
        for follower in job.followers:
            self._settle(follower, status, result, error)
            settled.append(follower)
        self._active_by_fp.pop(job.fingerprint, None)
        if status == DONE:
            self._done_by_fp[job.fingerprint] = job
        return settled

    def cancel(self, job: Job) -> list[Job]:
        """Cancel a queued primary (and its followers) or one follower."""
        if job.coalesced_into is not None:
            primary = self.jobs.get(job.coalesced_into)
            if primary is not None and job in primary.followers:
                primary.followers.remove(job)
            self._settle(job, CANCELLED, None, "cancelled")
            return [job]
        settled = [job]
        self._settle(job, CANCELLED, None, "cancelled")
        for follower in job.followers:
            self._settle(follower, CANCELLED, None, "cancelled")
            settled.append(follower)
        self._active_by_fp.pop(job.fingerprint, None)
        return settled

    # ------------------------------------------------------------------
    def pending(self) -> list[Job]:
        """Every non-terminal job, in submission (id) order."""
        return sorted(
            (job for job in self.jobs.values() if not job.terminal),
            key=lambda job: job.id,
        )

    def primary(self, fingerprint: str) -> Job | None:
        """The queued, running or ``done`` primary a repeat coalesces onto."""
        return self._active_by_fp.get(fingerprint) or self._done_by_fp.get(fingerprint)


# ----------------------------------------------------------------------
# Queue persistence
# ----------------------------------------------------------------------

JOURNAL_NAME = "journal.jsonl"


class SpoolJournal:
    """Append-only journal of job submissions and terminal transitions."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        #: highest id watermark observed by the last :meth:`recover` call;
        #: keeps restarted servers from reissuing ids of jobs whose records
        #: were dropped by compaction.
        self.next_id = 1

    def _append(self, record: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def record_submit(self, job: Job) -> None:
        self._append({"op": "submit", "id": job.id, "spec": job.spec.as_wire()})

    def record_done(self, job: Job) -> None:
        self._append({"op": "done", "id": job.id, "status": job.status})

    # ------------------------------------------------------------------
    def recover(self) -> list[tuple[str, JobSpec]]:
        """Replay the journal: submitted-but-not-settled jobs, in order.

        Tolerates a torn trailing line and skips records that no longer
        parse (e.g. a spec written by an incompatible version) rather than
        refusing to start.
        """
        if not self.path.is_file():
            return []
        submits: dict[str, JobSpec] = {}
        order: list[str] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write — the job was never acknowledged
            op, job_id = record.get("op"), record.get("id")
            if isinstance(job_id, str) and "-" in job_id:
                try:
                    self.next_id = max(self.next_id, int(job_id.split("-", 1)[1]) + 1)
                except ValueError:
                    pass
            if op == "watermark" and isinstance(record.get("next_id"), int):
                self.next_id = max(self.next_id, record["next_id"])
                continue
            if op == "submit" and isinstance(job_id, str):
                try:
                    spec = parse_spec(record.get("spec"))
                except Exception:
                    continue
                if job_id not in submits:
                    order.append(job_id)
                submits[job_id] = spec
            elif op == "done" and isinstance(job_id, str):
                if submits.pop(job_id, None) is not None:
                    order.remove(job_id)
        return [(job_id, submits[job_id]) for job_id in order]

    def compact(self, pending: list[Job], next_id: int | None = None) -> None:
        """Rewrite the journal to exactly the given pending jobs (atomic).

        ``next_id`` persists the id counter as a watermark so completed
        jobs' ids are never reissued after a restart.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        lines = []
        if next_id is not None and next_id > 1:
            lines.append(json.dumps({"op": "watermark", "next_id": next_id}, sort_keys=True))
        lines += [
            json.dumps({"op": "submit", "id": job.id, "spec": job.spec.as_wire()}, sort_keys=True)
            for job in pending
        ]
        temp = self.path.with_suffix(".tmp")
        temp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        temp.replace(self.path)
