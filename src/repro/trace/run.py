"""Cached trace-run orchestration (full and sampled).

Trace workloads flow through the same content-addressed result store as
benchmark runs, with one deliberate difference in identity: the
fingerprint's workload component is ``tracefile:<trace_sha256>`` — the
*content hash* from the tracefile header — never a filesystem path or
mtime.  Copy a tracefile, re-capture it deterministically, or serve it
from a different worker's checkout: the cache key is identical.  The
``seed`` slot is pinned to 0 (a trace is already a fixed instruction
sequence; there is nothing to reseed).

Full runs reuse the :class:`~repro.analysis.cache.ResultCache` record
format unchanged.  Sampled runs produce a *report* (weights, per-sample
IPCs, coverage) rather than a ``SimulationResult``, so they are published
to the same store as a distinct record kind; the store stamps and checks
every record's fingerprint and checksum.  Both go through the store's
one claim protocol
(:meth:`~repro.analysis.store.ResultStore.get_or_compute`): among
processes sharing the store, exactly one simulates a given fingerprint,
the rest wait for its blob.
"""

from __future__ import annotations

from repro.analysis.cache import ResultCache, fingerprint
from repro.fastsim import make_processor
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import TIMING_MODEL_VERSION, SimulationResult
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

#: The seed slot of trace fingerprints (a trace has no workload seed).
TRACE_SEED = 0


def trace_fingerprint(
    content_hash: str,
    config: MachineConfig,
    *,
    insts: int | None = None,
    warmup: int = 0,
    shadow_sizes: tuple[int, ...] | None = None,
) -> str:
    """Cache fingerprint for a full trace run.

    ``insts=None`` means "the whole trace" and is encoded as 0 — the
    fingerprint is computable from the wire spec alone, without opening
    the file to learn its length.
    """
    return fingerprint(
        trace_token(content_hash),
        TRACE_SEED,
        insts if insts is not None else 0,
        warmup,
        config,
        shadow_sizes,
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

    Cached under the inputs :func:`trace_fingerprint` digests.
    ``config.backend`` must already be materialized (call
    ``apply_backend`` at the boundary).  *insts* must be positive: the
    key of ``insts=None`` (the whole trace) is 0.
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
    return cache.get_or_compute(
        simulate, trace_token(feed.content_hash), TRACE_SEED, insts or 0, warmup, config,
        shadow_sizes,
    )


# ----------------------------------------------------------------------
# Sampled runs: report records on the same store
# ----------------------------------------------------------------------
def sampled_fingerprint(
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
) -> str:
    """Fingerprint for a sampled run's report record.

    Rides the shared :func:`~repro.analysis.cache.fingerprint` by packing
    the sampling plan into the workload-identity string (the plan changes
    the answer, so it must change the key) and the clustering seed into
    the seed slot.
    """
    token = (
        f"{trace_token(content_hash)}"
        f"#sampled:v{SAMPLING_REPORT_VERSION}:i{interval}:k{k}:w{warmup}:d{dims}"
        f":c{1 if warm_caches else 0}"
    )
    return fingerprint(token, seed, 0, warmup, config, shadow_sizes)


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
    digest = sampled_fingerprint(
        feed.content_hash,
        config,
        interval=interval,
        k=k,
        warmup=warmup,
        dims=dims,
        seed=seed,
        warm_caches=warm_caches,
        shadow_sizes=shadow_sizes,
    )

    def simulate() -> tuple[dict, dict]:
        report = simulate_sampled(
            feed,
            config,
            interval=interval,
            k=k,
            warmup=warmup,
            dims=dims,
            seed=seed,
            warm_caches=warm_caches,
            shadow_sizes=shadow_sizes,
        )
        record = {
            "kind": "trace-sampled",
            "model_version": TIMING_MODEL_VERSION,
            "report": report,
        }
        return report, record

    def decode(record: dict) -> dict | None:
        # A foreign or damaged record is a miss: recompute.
        return record.get("report") if record.get("kind") == "trace-sampled" else None

    if cache is None:
        return simulate()[0]
    return cache.backend.get_or_compute(digest, simulate, decode)
