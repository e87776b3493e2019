"""Simulator throughput benchmarks (pytest-benchmark, multiple rounds).

Not a paper figure — these track the cost of the substrate itself so
regressions in the cycle loop, the cache model, the generator, the result
cache or the parallel fan-out show up.  They gate on ratios and bounds,
never on absolute times; the recorded end-to-end and per-layer numbers
are the newest ``BENCH_<n>.json`` (``scripts/bench_record.py``), and the
engine itself is described in ``docs/PERFORMANCE.md``.
"""

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.parallel import Job, execute_job, run_jobs
from repro.fastsim import BACKENDS, make_processor, native_available
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import FOUR_WIDE
from repro.workloads.feed import ReplayFeed, collect_stream
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload


@pytest.mark.parametrize("backend", BACKENDS)
def test_speed_processor_cycle_loop(benchmark, backend):
    """Cycle-loop cost per 2k-instruction run, one row per backend.

    Times ``run()`` alone, symmetrically for every backend: the stream is
    pre-materialized into a :class:`ReplayFeed`, and the processor is
    constructed in the per-round setup — construction (branch-predictor
    table init) is not the cycle loop.  The native row's timed region
    includes the chunked ingest (int64 column encoding) of the ops it
    fetches.
    """
    if backend == "native" and not native_available():
        pytest.skip(
            "native backend needs the compiled extension "
            "(pip install -e .[native])"
        )
    workload = SyntheticWorkload(get_profile("gzip"), seed=3)
    feed = ReplayFeed.from_stream(workload, 2_600)
    fresh = {}

    def setup():
        # A processor is single-run; build a fresh one outside the timer.
        fresh["processor"] = make_processor(feed, FOUR_WIDE, backend=backend)
        return (), {}

    def run_2k():
        return fresh["processor"].run(max_insts=2_000, warmup=0)

    result = benchmark.pedantic(run_2k, setup=setup, rounds=7, warmup_rounds=1)
    assert result.stats.committed >= 2_000


def test_speed_synthetic_generator(benchmark):
    workload = SyntheticWorkload(get_profile("gcc"), seed=3)
    ops = benchmark(lambda: collect_stream(workload, 20_000))
    assert len(ops) == 20_000


def test_speed_cache_hierarchy(benchmark):
    hierarchy = MemoryHierarchy()
    addresses = [((i * 2654435761) >> 8) & 0xFFFFF for i in range(20_000)]

    def sweep():
        total = 0
        for addr in addresses:
            total += hierarchy.load(addr).latency
        return total

    assert benchmark(sweep) > 0


def test_speed_result_cache_hit(benchmark, tmp_path):
    """Disk-cache lookup cost: fingerprint + JSON load + deserialize.

    This is the unit of work a warm figure-regeneration session pays per
    result instead of a full simulation — it should stay milliseconds.
    """
    cache = ResultCache(tmp_path)
    job = Job("gzip", FOUR_WIDE, 3, 1_000, 1_000)
    cache.store(job, execute_job(job))

    def lookup():
        return cache.load(job)

    result = benchmark(lookup)
    assert result is not None and result.total_committed >= 1_000


def test_speed_parallel_fanout_batched(benchmark):
    """64 short jobs through the *warm* persistent pool, vs. inline.

    The acceptance bound for the warm-pool engine: amortized per-job
    dispatch overhead (batch wall time minus the pure inline simulation
    time, spread over the batch) must be at most 20 ms — a fifth of the
    ~100 ms a fresh per-call process pool pays — and every batched result
    must be byte-identical to its inline run.  The pool is warmed outside the
    measured region; that one-time spin-up is exactly the cost the pool
    stops re-paying on every dispatch.
    """
    from time import perf_counter

    from repro.analysis.cache import serialize_result

    jobs = [Job("gzip", FOUR_WIDE, seed, 300, 200) for seed in range(64)]

    started = perf_counter()
    inline = [execute_job(job) for job in jobs]
    inline_s = perf_counter() - started

    def fan_out():
        return run_jobs(jobs, workers=2)

    fan_out()  # warm the pool (worker spawn + imports) outside the timer
    started = perf_counter()
    results = fan_out()
    batched_s = perf_counter() - started

    expected = [serialize_result(result) for result in inline]
    assert [serialize_result(result) for result in results] == expected
    overhead_ms = max(0.0, batched_s - inline_s) * 1000 / len(jobs)
    assert overhead_ms <= 20.0, (
        f"amortized dispatch overhead {overhead_ms:.2f} ms/job exceeds the "
        f"20 ms bound (batch {batched_s * 1000:.1f} ms vs inline "
        f"{inline_s * 1000:.1f} ms for {len(jobs)} jobs)"
    )
    assert [serialize_result(result) for result in benchmark(fan_out)] == expected
