"""Persistent result cache for simulation runs (store-backed).

Every finished :class:`~repro.pipeline.processor.SimulationResult` can be
stored as one small JSON record and replayed in a later session without
re-simulating; so can a sampled trace run's report.  :class:`ResultCache`
is the only code that keys and encodes those records: it computes the
fingerprint, encodes and decodes both record kinds, and delegates all
blob I/O to a content-addressed
:class:`~repro.analysis.store.DirectoryStore` (by default under
``results/cache/`` — shareable between processes and, on a shared
filesystem, between serving-tier workers).  Its callers hand it a
:class:`~repro.analysis.parallel.Job` and a compute function.  Records
are keyed by :func:`fingerprint`, a SHA-256 over the job — the one key
of a simulation — plus the version stamps:

* the **timing-model version stamp**
  (:data:`repro.pipeline.processor.TIMING_MODEL_VERSION`) — bumped whenever
  a code change alters simulated timing, which invalidates every existing
  record at once — and the record :data:`CACHE_FORMAT_VERSION`;
* the workload identity (benchmark profile name + seed; for traces, the
  ``tracefile:<content-hash>`` token, with a sampled run's plan appended);
* the run lengths (measured instructions, warmup instructions);
* the **full machine configuration** (:func:`config_identity`: the
  frozen config's ``dataclasses.asdict``, enums flattened to their
  values, built once per distinct config) — sweep variants that share a
  name but differ in any parameter can never collide;
* the shadow-predictor sizes, when a shadow bank was attached.

Serialization keeps every counter the analysis layer consumes after a run
(IPC inputs, figure counters, predictor-bank accuracy counts).  Predictor
*table contents* and the per-PC wakeup-order history are deliberately not
persisted: they only influence behaviour **during** a simulation, never the
interpretation of a finished one.

Environment knobs::

    REPRO_CACHE          "0"/"off"/"false" disables the disk cache (default on)
    REPRO_CACHE_DIR      cache directory (default <repo>/results/cache)
    REPRO_CLAIM_STALE_S  seconds before an abandoned cross-process claim
                         is broken by the next contender (default 300);
                         every batch a caller resolves holds one per miss
                         it computes (see :meth:`ResultCache.get_or_compute`)
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import os
from collections import Counter
from pathlib import Path

from repro.analysis.parallel import Job
from repro.analysis.store import DirectoryStore, json_digest
from repro.core.last_arrival import DesignComparisonBank, ShadowPredictorBank
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import TIMING_MODEL_VERSION, SimulationResult
from repro.pipeline.stats import STAT_COUNTER_FIELDS, SimStats, WakeupOrderStats

#: Bump when the *record format* (not the timing model) changes shape.
#: v2: records are self-validating (payload checksum), so a partially
#: written or bit-rotted file is a miss, never a wrong hit.
CACHE_FORMAT_VERSION = 2


@functools.lru_cache(maxsize=256)
def config_identity(config: MachineConfig) -> dict:
    """The config's part of every identity: built once per distinct config.

    ``dataclasses.asdict`` with enums flattened to their values.  The
    returned dict is shared by every later call for an equal config, so
    callers must never mutate it (copy it, as the stats export does).
    """
    return dataclasses.asdict(config, dict_factory=_plain_fields)


def _plain_fields(items: list[tuple[str, object]]) -> dict:
    return {key: value.value if isinstance(value, enum.Enum) else value for key, value in items}


def fingerprint(job: Job) -> str:
    """Stable digest identifying one simulation's full input space,
    memoized per distinct job (a served run's lookup and export share it)."""
    return _job_digest(job, TIMING_MODEL_VERSION, CACHE_FORMAT_VERSION)


@functools.lru_cache(maxsize=1024)
def _job_digest(job: Job, model_version: int, format_version: int) -> str:
    return json_digest(
        {
            "model_version": model_version,
            "format_version": format_version,
            "benchmark": job.benchmark,
            "seed": job.seed,
            "insts": job.insts,
            "warmup": job.warmup,
            "shadow_sizes": list(job.shadow_sizes) if job.shadow_sizes else None,
            "config": config_identity(job.config),
        }
    )


# ----------------------------------------------------------------------
# SimulationResult <-> JSON record
# ----------------------------------------------------------------------

#: SimStats plain-integer counters, serialized verbatim (canonical list
#: lives next to the dataclass so new counters propagate everywhere).
_STAT_COUNTERS = STAT_COUNTER_FIELDS

_ORDER_COUNTERS = ("same_order", "diff_order", "last_left", "last_right", "simultaneous")


def _bank_to_record(bank) -> dict:
    return {
        "samples": bank.samples,
        "predictors": {
            str(key): {"predictions": p.predictions, "correct": p.correct}
            for key, p in bank.predictors.items()
        },
    }


def serialize_result(result: SimulationResult) -> dict:
    """Flatten a result to a JSON-compatible dict."""
    stats = result.stats
    record: dict = {
        "config_name": result.config_name,
        "workload_name": result.workload_name,
        "total_committed": result.total_committed,
        "total_cycles": result.total_cycles,
        "counters": {name: getattr(stats, name) for name in _STAT_COUNTERS},
        "ready_at_insert": {str(k): v for k, v in stats.ready_at_insert.items()},
        "wakeup_slack": {str(k): v for k, v in stats.wakeup_slack.items()},
        "order": {name: getattr(stats.order, name) for name in _ORDER_COUNTERS},
        "shadow_bank": None,
        "design_bank": None,
    }
    if stats.shadow_bank is not None:
        shadow = _bank_to_record(stats.shadow_bank)
        shadow["simultaneous"] = stats.shadow_bank.simultaneous
        record["shadow_bank"] = shadow
    if stats.design_bank is not None:
        record["design_bank"] = _bank_to_record(stats.design_bank)
    return record


def deserialize_result(record: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`serialize_result`."""
    stats = SimStats()
    for name in _STAT_COUNTERS:
        setattr(stats, name, record["counters"][name])
    stats.ready_at_insert = Counter({int(k): v for k, v in record["ready_at_insert"].items()})
    stats.wakeup_slack = Counter({int(k): v for k, v in record["wakeup_slack"].items()})
    order = WakeupOrderStats()
    for name in _ORDER_COUNTERS:
        setattr(order, name, record["order"][name])
    stats.order = order
    shadow = record.get("shadow_bank")
    if shadow is not None:
        sizes = tuple(sorted(int(k) for k in shadow["predictors"]))
        bank = ShadowPredictorBank(sizes)
        bank.samples = shadow["samples"]
        bank.simultaneous = shadow["simultaneous"]
        for key, counts in shadow["predictors"].items():
            predictor = bank.predictors[int(key)]
            predictor.predictions = counts["predictions"]
            predictor.correct = counts["correct"]
        stats.shadow_bank = bank
    design = record.get("design_bank")
    if design is not None:
        bank = DesignComparisonBank()
        bank.samples = design["samples"]
        for name, counts in design["predictors"].items():
            predictor = bank.predictors.get(name)
            if predictor is not None:
                predictor.predictions = counts["predictions"]
                predictor.correct = counts["correct"]
        stats.design_bank = bank
    return SimulationResult(
        config_name=record["config_name"],
        workload_name=record["workload_name"],
        stats=stats,
        total_committed=record["total_committed"],
        total_cycles=record["total_cycles"],
    )


# ----------------------------------------------------------------------
# Disk store
# ----------------------------------------------------------------------
def repo_root() -> Path:
    """Walk up from this file to the directory holding pyproject.toml
    (the working directory when there is none)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").is_file():
            return parent
    return Path.cwd()


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return Path(env)
    return repo_root() / "results" / "cache"


def cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


class ResultCache:
    """Simulation records keyed by input fingerprint, on a DirectoryStore.

    The one encoder between the analysis layer (a :class:`Job` per run)
    and the content-addressed blob store: it computes every fingerprint
    and encodes and decodes both record kinds it publishes — a run's
    result record (:func:`serialize_result` plus the job's identity
    fields) and a sampled trace run's report record.  All the durability
    guarantees — atomic publication, checksum-verified reads, quarantine
    of torn blobs, cross-process claims — live in the store.  ``hits``
    counts the results and reports served from it (``repro prefetch``
    prints it).
    """

    def __init__(self, directory: Path | str | None = None):
        self.backend = DirectoryStore(
            directory if directory is not None else default_cache_dir()
        )
        self.hits = 0

    @classmethod
    def from_env(cls) -> "ResultCache | None":
        """Build the cache the environment asks for (None = disabled)."""
        return cls() if cache_enabled() else None

    @property
    def directory(self) -> Path:
        """The store's root directory."""
        return self.backend.root

    # ------------------------------------------------------------------
    def load(self, job: Job) -> SimulationResult | None:
        """Return the cached result for *job*, or None on a miss."""
        record = self.backend.get(fingerprint(job))
        result = None if record is None else _decode_result(record)
        if result is not None:
            self.hits += 1
        return result

    def store(self, job: Job, result: SimulationResult) -> Path:
        """Publish one result; returns its blob path."""
        digest = fingerprint(job)
        self.backend.put(digest, _result_record(job, result))
        return self.backend._blob_path(digest)

    def get_or_compute(self, jobs: list[Job], compute) -> list[SimulationResult]:
        """The cached result of every job; the misses this caller claims
        go to one ``compute(claimed_jobs)`` call and are published under
        the store claim (waits for the misses another process holds)."""
        return self._resolve(jobs, compute, _result_record, _decode_result)

    def sampled_report(self, job: Job, compute) -> dict:
        """The sampled-run report stored under *job*, else ``compute()``'s,
        published under the store claim."""
        return self._resolve([job], lambda jobs: [compute()], _report_record, _decode_report)[0]

    def _resolve(self, jobs: list[Job], compute, encode, decode) -> list:
        computed = 0

        def compute_records(positions: list[int]) -> list[tuple[object, dict]]:
            nonlocal computed
            claimed = [jobs[position] for position in positions]
            values = compute(claimed)
            computed += len(values)
            return [(value, encode(job, value)) for job, value in zip(claimed, values)]

        values = self.backend.get_or_compute(
            [fingerprint(job) for job in jobs], compute_records, decode
        )
        self.hits += len(jobs) - computed
        return values


# ----------------------------------------------------------------------
# The two record kinds.  A decoder maps a record the store verified to
# its value, or to None when the record is unusable: one that passed the
# fingerprint and checksum checks but is structurally damaged or of the
# other kind is a miss too — never let a cache file crash a run.
# ----------------------------------------------------------------------
def _result_record(job: Job, result: SimulationResult) -> dict:
    """The bare result record for *job*; the store adds the envelope."""
    record = serialize_result(result)
    record.update(
        benchmark=job.benchmark,
        seed=job.seed,
        insts=job.insts,
        warmup=job.warmup,
        model_version=TIMING_MODEL_VERSION,
    )
    return record


def _decode_result(record: dict) -> SimulationResult | None:
    try:
        return deserialize_result(record)
    except (KeyError, TypeError, ValueError):
        return None


def _report_record(job: Job, report: dict) -> dict:
    """The bare record of a sampled trace run's report."""
    return {"kind": "trace-sampled", "model_version": TIMING_MODEL_VERSION, "report": report}


def _decode_report(record: dict) -> dict | None:
    return record.get("report") if record.get("kind") == "trace-sampled" else None
