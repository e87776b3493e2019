"""Cached trace-run orchestration (full and sampled).

Trace workloads flow through the same content-addressed result store as
benchmark runs, with one deliberate difference in identity: the
fingerprint's workload component is ``tracefile:<trace_sha256>`` — the
*content hash* from the tracefile header — never a filesystem path or
mtime.  Copy a tracefile, re-capture it deterministically, or serve it
from a different worker's checkout: the cache key is identical.  The
``seed`` slot is pinned to 0 (a trace is already a fixed instruction
sequence; there is nothing to reseed).

This module only builds the keys (:func:`trace_job`,
:func:`sampled_job`) and the simulations; the
:class:`~repro.analysis.cache.ResultCache` fingerprints, encodes and
publishes.  Full runs are stored as ordinary result records.  Sampled
runs produce a *report* (weights, per-sample IPCs, coverage) rather than
a ``SimulationResult``, stored as the cache's distinct report record
kind.  Both go through the store's one claim protocol
(:meth:`~repro.analysis.store.DirectoryStore.get_or_compute`): among
processes sharing the store, exactly one simulates a given fingerprint,
the rest wait for its blob.
"""

from __future__ import annotations

from repro.analysis.cache import ResultCache
from repro.analysis.parallel import Job
from repro.fastsim import make_processor
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import SimulationResult
from repro.trace.feed import TraceFeed, trace_token
from repro.trace.sampling import (
    DEFAULT_DIMS,
    DEFAULT_INTERVAL,
    DEFAULT_K,
    DEFAULT_SAMPLE_SEED,
    DEFAULT_SAMPLE_WARMUP,
    SAMPLING_REPORT_VERSION,
    simulate_sampled,
)

#: The seed slot of trace keys (a trace has no workload seed).
TRACE_SEED = 0


def trace_job(
    content_hash: str,
    config: MachineConfig,
    *,
    insts: int | None = None,
    warmup: int = 0,
    shadow_sizes: tuple[int, ...] | None = None,
) -> Job:
    """The key of a full trace run.

    ``insts=None`` means "the whole trace" and is encoded as 0 — the key
    is computable from the wire spec alone, without opening the file to
    learn its length.
    """
    return Job(
        trace_token(content_hash), config, TRACE_SEED, insts or 0, warmup, shadow_sizes
    )


def run_full(
    feed: TraceFeed,
    config: MachineConfig,
    *,
    insts: int | None = None,
    warmup: int = 0,
    shadow_sizes: tuple[int, ...] | None = None,
    cache: ResultCache | None = None,
) -> SimulationResult:
    """Simulate a trace end to end, through the result cache.

    Cached under :func:`trace_job`'s key.  ``config.backend`` must
    already be materialized (call ``apply_backend`` at the boundary).
    *insts* must be positive: the key of ``insts=None`` (the whole
    trace) is 0.
    """
    if insts is not None and insts < 1:
        raise ValueError(f"insts must be >= 1 or None (the whole trace), got {insts}")

    def simulate() -> SimulationResult:
        processor = make_processor(
            feed, config, backend=config.backend, shadow_sizes=shadow_sizes
        )
        limit = insts if insts is not None else len(feed.ops)
        return processor.run(max_insts=limit, warmup=warmup)

    if cache is None:
        return simulate()
    job = trace_job(
        feed.content_hash, config, insts=insts, warmup=warmup, shadow_sizes=shadow_sizes
    )
    return cache.get_or_compute([job], lambda jobs: [simulate()])[0]


# ----------------------------------------------------------------------
# Sampled runs: report records on the same store
# ----------------------------------------------------------------------
def sampled_job(
    content_hash: str,
    config: MachineConfig,
    *,
    interval: int = DEFAULT_INTERVAL,
    k: int = DEFAULT_K,
    warmup: int = DEFAULT_SAMPLE_WARMUP,
    dims: int = DEFAULT_DIMS,
    seed: int = DEFAULT_SAMPLE_SEED,
    warm_caches: bool = True,
    shadow_sizes: tuple[int, ...] | None = None,
) -> Job:
    """The key of a sampled run's report record.

    The sampling plan changes the answer, so it is packed into the
    workload token; the clustering seed takes the seed slot.  The key
    never reaches :func:`~repro.analysis.parallel.execute_job`.
    """
    token = (
        f"{trace_token(content_hash)}"
        f"#sampled:v{SAMPLING_REPORT_VERSION}:i{interval}:k{k}:w{warmup}:d{dims}"
        f":c{1 if warm_caches else 0}"
    )
    return Job(token, config, seed, 0, warmup, shadow_sizes)


def run_sampled(
    feed: TraceFeed,
    config: MachineConfig,
    *,
    interval: int = DEFAULT_INTERVAL,
    k: int = DEFAULT_K,
    warmup: int = DEFAULT_SAMPLE_WARMUP,
    dims: int = DEFAULT_DIMS,
    seed: int = DEFAULT_SAMPLE_SEED,
    warm_caches: bool = True,
    shadow_sizes: tuple[int, ...] | None = None,
    cache: ResultCache | None = None,
) -> dict:
    """Sampled simulation through the result store (report-record kind)."""
    plan = dict(
        interval=interval,
        k=k,
        warmup=warmup,
        dims=dims,
        seed=seed,
        warm_caches=warm_caches,
        shadow_sizes=shadow_sizes,
    )

    def simulate() -> dict:
        return simulate_sampled(feed, config, **plan)

    if cache is None:
        return simulate()
    return cache.sampled_report(sampled_job(feed.content_hash, config, **plan), simulate)
