"""Shared content-addressed result store: fingerprint -> published blob.

This is the storage layer underneath the result cache, the experiment
runner and the serving tier.  :class:`DirectoryStore` maps a SHA-256
fingerprint (the digest :func:`repro.analysis.cache.fingerprint`
computes) to one immutable JSON *blob* — a record the cache encoded.
The store never interprets a record beyond its envelope; the contract
every consumer leans on:

* **One envelope.**  ``put()`` stamps the record's ``fingerprint`` and
  its :func:`record_checksum`; callers hand over the bare payload and
  never stamp or re-check either field themselves.
* **Atomic publication.**  ``put()`` either publishes a complete,
  stamped blob or publishes nothing; readers can never observe
  a half-written record.  Publication is first-writer-wins: racing
  writers for one fingerprint leave exactly one blob (the records are
  deterministic, so which writer lands is irrelevant).
* **Verified reads.**  ``get()`` re-validates the embedded fingerprint
  and the payload checksum on every read.  A torn, truncated or
  bit-rotted blob is **quarantined** (moved aside, never deleted — it is
  evidence) and reads as a miss, so the caller recomputes.
* **One claim protocol.**  ``claim()`` is the cluster-wide singleflight
  primitive, and this class is its only caller.  ``get_or_compute()``
  resolves a batch of fingerprints by repeating one non-blocking step
  per missing key (:meth:`DirectoryStore.lookup_or_claim`: get, claim,
  get again once the claim is won), so among concurrent threads or
  processes missing the same fingerprint, one computes and publishes
  while the rest ``wait()`` for — or find — its blob.  A claim abandoned
  by a dead process goes stale after ``REPRO_CLAIM_STALE_S`` seconds
  (default 300) and is taken over, so a SIGKILLed worker never wedges
  the fingerprint.

The store is a plain directory — shareable between processes and, via a
network filesystem, between nodes.  Blobs live at
``<root>/<fp[:2]>/<fp>.json`` (sharded so a million records do not share
one directory); quarantined blobs move to ``<root>/quarantine/``; claims
are ``O_EXCL`` lock files next to the blob.  The serving tier points
every worker at one store directory, which is what keeps coalescing
correct cluster-wide without any cross-worker locking (see
docs/SERVING.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

#: Quarantined blobs land here, named <fingerprint>.<epoch-ns>.json.
QUARANTINE_DIR = "quarantine"

#: A claim older than this is presumed abandoned (holder died) and is
#: broken by the next contender.  Generous: one simulation is seconds.
#: Override with REPRO_CLAIM_STALE_S, read when a store is built (cluster
#: smoke tests shrink it so a SIGKILLed worker's claim is taken over
#: within seconds).
DEFAULT_CLAIM_STALE_S = 300.0


def _default_claim_stale_s() -> float:
    raw = os.environ.get("REPRO_CLAIM_STALE_S", "")
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return DEFAULT_CLAIM_STALE_S


def json_digest(value: dict) -> str:
    """SHA-256 of *value* as sorted-key JSON: the rule of every
    fingerprint and record checksum."""
    payload = json.dumps(value, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def record_checksum(record: dict) -> str:
    """Self-validation digest over a record's canonical JSON payload.

    Computed over every field except ``checksum`` itself.  A blob whose
    stored digest does not match — truncated write, manual edit, bit rot
    — is quarantined and read as a miss instead of served as a wrong hit.
    """
    return json_digest({key: value for key, value in record.items() if key != "checksum"})


def _sealed(fingerprint: str, record: dict) -> dict:
    """A copy of *record* in the store's envelope: fingerprint + checksum."""
    record = dict(record)
    record["fingerprint"] = fingerprint
    record.pop("checksum", None)
    record["checksum"] = record_checksum(record)
    return record


class StoreClaim:
    """A held compute claim (its lock file); ``release()`` is idempotent."""

    def __init__(self, path: Path):
        self._path: Path | None = path

    def release(self) -> None:
        if self._path is None:
            return
        try:
            os.unlink(self._path)
        except OSError:
            pass
        self._path = None


class DirectoryStore:
    """Content-addressed blobs on a (shareable) directory tree."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._claim_stale_s = _default_claim_stale_s()
        self.published = 0
        self.duplicate_publishes = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _blob_path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def _claim_path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.claim"

    def _quarantine(self, fingerprint: str, path: Path) -> None:
        """Move a bad blob aside so the slot reads empty (recompute)."""
        target_dir = self.root / QUARANTINE_DIR
        target = target_dir / f"{fingerprint}.{time.time_ns()}.json"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            self.quarantined += 1
        except OSError:
            # Racing quarantiners/republishers: losing the rename is fine,
            # the slot is being handled either way.
            pass

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> dict | None:
        """The verified record for *fingerprint*, or None."""
        path = self._blob_path(fingerprint)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._quarantine(fingerprint, path)
            return None
        if (
            not isinstance(record, dict)
            or record.get("fingerprint") != fingerprint
            or record.get("checksum") != record_checksum(record)
        ):
            self._quarantine(fingerprint, path)
            return None
        return record

    def put(self, fingerprint: str, record: dict) -> bool:
        """Publish *record*, stamped with the envelope, atomically;
        False if already published."""
        record = _sealed(fingerprint, record)
        path = self._blob_path(fingerprint)
        if path.is_file():
            self.duplicate_publishes += 1
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.published += 1
        return True

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    def fingerprints(self) -> list[str]:
        """Every published fingerprint (diagnostics, smoke assertions)."""
        out = []
        if not self.root.is_dir():
            return out
        for shard in self.root.iterdir():
            if not shard.is_dir() or shard.name == QUARANTINE_DIR:
                continue
            for blob in shard.glob("*.json"):
                out.append(blob.stem)
        return sorted(out)

    # ------------------------------------------------------------------
    def claim(self, fingerprint: str) -> StoreClaim | None:
        """Try to become the computing process for *fingerprint*.

        An ``O_EXCL`` lock file: a :class:`StoreClaim` to release once
        the blob is published (or the computation failed), or None while
        another process holds a claim younger than the stale horizon.
        """
        path = self._claim_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat: retry
                if age <= self._claim_stale_s:
                    return None
                # The holder is presumed dead (SIGKILL mid-simulation).
                # Remove the stale claim and contend again.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {time.time():.3f}\n")
            return StoreClaim(path)

    def lookup_or_claim(self, fingerprint: str, decode) -> tuple:
        """One non-blocking step of the claim protocol: get, claim, get.

        ``(decode(record), None)`` on a hit (a record *decode* maps to
        None reads as a miss); ``(None, claim)`` when this caller must
        compute, :meth:`put`, then release *claim*; ``(None, None)`` when
        another process holds the claim.
        """
        value = self._decoded(fingerprint, decode)
        if value is not None:
            return value, None
        claim = self.claim(fingerprint)
        if claim is None:
            return None, None
        # The previous holder may have published and released between
        # the miss above and this claim: re-read before computing.
        value = self._decoded(fingerprint, decode)
        if value is not None:
            claim.release()
            return value, None
        return None, claim

    def get_or_compute(self, fingerprints: list[str], compute, decode) -> list:
        """The decoded value of every fingerprint, computing the misses.

        Each round runs :meth:`lookup_or_claim` on every key still
        missing.  ``compute(positions)`` runs once per round for the
        positions this caller won and returns one ``(value, record)``
        pair per position; every *record* is published before its claim
        is released.  Only then does the round wait, a tenth of the
        stale horizon, for the keys held elsewhere, so no caller waits
        while it holds a claim.  A holder that failed without publishing
        is noticed within one round and a dead one is taken over just
        after its claim goes stale.
        """
        values: list = [None] * len(fingerprints)
        missing = range(len(fingerprints))
        while missing:
            claimed: list[tuple[int, StoreClaim]] = []
            elsewhere = []
            try:
                for position in missing:
                    value, claim = self.lookup_or_claim(fingerprints[position], decode)
                    if value is not None:
                        values[position] = value
                    elif claim is not None:
                        claimed.append((position, claim))
                    else:
                        elsewhere.append(position)
                if claimed:
                    positions = [position for position, _ in claimed]
                    for position, (value, record) in zip(positions, compute(positions)):
                        self.put(fingerprints[position], record)
                        values[position] = value
            finally:
                for _, claim in claimed:
                    claim.release()
            deadline = time.monotonic() + self._claim_stale_s / 10
            for position in elsewhere:
                self.wait(fingerprints[position], deadline - time.monotonic())
            missing = elsewhere
        return values

    def _decoded(self, fingerprint: str, decode):
        record = self.get(fingerprint)
        return None if record is None else decode(record)

    def wait(self, fingerprint: str, timeout: float) -> dict | None:
        """Poll for *fingerprint* to be published, up to *timeout* s."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.get(fingerprint)
            if record is not None or time.monotonic() >= deadline:
                return record
            time.sleep(0.02)
