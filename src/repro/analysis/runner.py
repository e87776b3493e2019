"""Memoizing simulation runner shared by the benchmark harness.

A full figure regeneration needs up to 8 machine variants × 2 widths × 12
benchmarks; base-machine results are shared between figures, so results are
served through three layers: an in-process memo table, a persistent on-disk
JSON cache (:mod:`repro.analysis.cache`), and — only when both miss — a
fresh simulation.  Every miss goes through one loop,
:meth:`ExperimentRunner.resolve`: ``result()`` resolves one job and
:meth:`ExperimentRunner.prefetch` a batch, whose misses fan out in
parallel (:mod:`repro.analysis.parallel`).  The loop publishes under the
store's claim protocol (:mod:`repro.analysis.store`), so threads and
processes sharing one store simulate each fingerprint once: a caller
simulates the misses it claims, then waits for the claim holders' blobs.
The claim is the only dedupe below the memo; with the cache disabled
there is none.
See ``docs/PERFORMANCE.md`` for the full picture.  Environment knobs::

    REPRO_INSTS      measured instructions per run   (default 15000)
    REPRO_WARMUP     warmup instructions per run     (default 20000)
    REPRO_SEED       first workload seed             (default 42)
    REPRO_SEEDS      seeds averaged per IPC comparison (default 2)
    REPRO_BENCHMARKS comma-separated benchmark subset (default: all 12)
    REPRO_JOBS       parallel simulation workers     (default: cpu count)
    REPRO_CACHE      "0" disables the on-disk result cache (default on)
    REPRO_CACHE_DIR  cache directory (default <repo>/results/cache)

Normalized-IPC comparisons average over ``REPRO_SEEDS`` workload seeds:
individual runs carry a percent-level scheduling-chaos noise (cache LRU
and replay interleavings), which seed averaging suppresses.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis.cache import ResultCache
from repro.analysis.parallel import Job, env_int, run_jobs
from repro.fastsim import apply_backend
from repro.obs.registry import MetricsRegistry
from repro.pipeline.config import EIGHT_WIDE, FOUR_WIDE, MachineConfig
from repro.pipeline.processor import SimulationResult
from repro.workloads.feed import StreamStats
from repro.workloads.profiles import SPEC_BENCHMARKS
from repro.workloads.synthetic import SharedFeed, shared_workload

#: Figure 7's shadow predictor table sizes.
SHADOW_SIZES = (128, 512, 1024, 4096)

#: Default run of one benchmark: measured and warmup instructions and the
#: first workload seed (the runner, served run jobs and the CLI).
DEFAULT_INSTS = 15_000
DEFAULT_WARMUP = 20_000
DEFAULT_SEED = 42


class ExperimentRunner:
    """Runs and memoizes benchmark simulations.

    ``result()`` is a thin read-through: in-memory memo first (same-object
    returns within a session), then the on-disk cache, and a simulation
    only when both miss.  ``prefetch()`` resolves a batch the same way,
    its misses in one parallel fan-out, so later ``result()`` calls are
    pure lookups.
    """

    def __init__(
        self,
        insts: int | None = None,
        warmup: int | None = None,
        seed: int | None = None,
        benchmarks: tuple[str, ...] | None = None,
        num_seeds: int | None = None,
        jobs: int | None = None,
        cache: ResultCache | None | bool = True,
    ):
        self.insts = insts if insts is not None else env_int("REPRO_INSTS", DEFAULT_INSTS)
        self.warmup = warmup if warmup is not None else env_int("REPRO_WARMUP", DEFAULT_WARMUP)
        self.seed = seed if seed is not None else env_int("REPRO_SEED", DEFAULT_SEED)
        count = num_seeds if num_seeds is not None else env_int("REPRO_SEEDS", 2)
        self.seeds = tuple(self.seed + index for index in range(max(1, count)))
        if benchmarks is None:
            env = os.environ.get("REPRO_BENCHMARKS", "")
            benchmarks = tuple(b for b in env.split(",") if b) or SPEC_BENCHMARKS
        self.benchmarks = benchmarks
        #: worker count for prefetch batches (None = resolve from env)
        self.jobs = jobs
        if cache is True:
            self.cache: ResultCache | None = ResultCache.from_env()
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        self._results: dict[Job, SimulationResult] = {}
        self._stream_stats: dict[tuple, StreamStats] = {}
        #: harness-level observability: where results came from, what was
        #: exported.  Published on every serve (cheap — per result, not
        #: per cycle); read via ``runner.metrics.as_dict()``.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    def workload(self, benchmark: str, seed: int | None = None) -> SharedFeed:
        """The process's shared feed of *benchmark* (the runner's seed by default)."""
        return shared_workload(benchmark, seed if seed is not None else self.seed)

    def stream_stats(self, benchmark: str, limit: int) -> StreamStats:
        """:class:`StreamStats` of the first *limit* ops of *benchmark* (the
        runner's seed), read once per runner: Figures 2 and 3 share it."""
        key = (benchmark, self.seed, limit)
        stats = self._stream_stats.get(key)
        if stats is None:
            stats = StreamStats.from_stream(self.workload(benchmark), limit=limit)
            self._stream_stats[key] = stats
        return stats

    # ------------------------------------------------------------------
    def _job(
        self, benchmark: str, config: MachineConfig, seed: int | None, shadow: bool
    ) -> Job:
        """The key of one run: memo, cache fingerprint and simulation.

        The runner is a backend boundary: REPRO_BACKEND (then the config
        field) is materialized here.  The key holds the whole frozen
        config, not its name (variant names omit knobs such as
        predictor_entries), backend included, so a memo hit returns the
        result of the backend the caller resolved to.
        """
        return Job(
            benchmark,
            apply_backend(config),
            seed if seed is not None else self.seed,
            self.insts,
            self.warmup,
            SHADOW_SIZES if shadow else None,
        )

    def result(
        self,
        benchmark: str,
        config: MachineConfig,
        shadow: bool = False,
        seed: int | None = None,
    ) -> SimulationResult:
        """Serve one benchmark simulation: memory -> disk -> compute.

        Concurrent callers (threads or processes) that miss the memo for
        the same key simulate once: the store claim makes one of them
        compute and publish while the rest wait for its blob.
        """
        job = self._job(benchmark, config, seed, shadow)
        found = self._results.get(job)
        if found is not None:
            self.metrics.counter("runner.memo_hits").inc()
            return found
        (found,), simulated = self.resolve([job])
        if not simulated:
            self.metrics.counter("runner.disk_hits").inc()
        return found

    def resolve(self, jobs: list[Job]) -> tuple[list[SimulationResult], int]:
        """Every job's result, in order, and the number simulated.

        Jobs missing from the memo are deduped and looked up in the
        store; the misses this caller claims run in one
        :func:`~repro.analysis.parallel.run_jobs` fan-out (worker count:
        the runner's ``jobs``, else ``REPRO_JOBS``/CPU count) and are
        published before their claims are released.  Misses another
        thread or process claimed are waited for.  With the cache off,
        every miss is simulated.  All of them land in the memo.
        """
        misses = list(dict.fromkeys(job for job in jobs if job not in self._results))
        simulated = 0

        def simulate(claimed: list[Job]) -> list[SimulationResult]:
            nonlocal simulated
            results = run_jobs(claimed, workers=self.jobs)
            simulated += len(claimed)
            self.metrics.counter("runner.simulated").inc(len(claimed))
            return results

        # A fully warm batch never reaches run_jobs, so the worker pool
        # is never even created (it starts lazily on first dispatch).
        if misses:
            if self.cache is None:
                results = simulate(misses)
            else:
                results = self.cache.get_or_compute(misses, simulate)
            self._results.update(zip(misses, results))
        return [self._results[job] for job in jobs], simulated

    # ------------------------------------------------------------------
    def prefetch(self, requests: list[tuple[str, MachineConfig, int, bool]]) -> int:
        """Bulk-resolve ``(benchmark, config, seed, shadow)`` requests.

        One :meth:`resolve` over the requests: memo and disk hits are
        skipped, the misses fan out together over the parallel engine,
        and misses claimed by another process are waited for.  Returns
        the number of simulations actually executed.  Results land in
        both cache layers, so later ``result()`` calls for the same keys
        are pure lookups — and deterministic job ordering makes every
        aggregate identical to a serial run.
        """
        _, simulated = self.resolve([self._job(*request) for request in requests])
        self.metrics.counter("runner.prefetch_warm_hits").inc(len(requests) - simulated)
        return simulated

    def prefetch_base(self) -> int:
        """Warm every base-machine run the standard figures lean on."""
        requests: list[tuple[str, MachineConfig, int, bool]] = []
        for benchmark in self.benchmarks:
            for seed in self.seeds:
                requests.append((benchmark, FOUR_WIDE, seed, False))
                requests.append((benchmark, EIGHT_WIDE, seed, False))
            # Figure 7 / Table 3 read the shadow bank of the first seed.
            requests.append((benchmark, FOUR_WIDE, self.seed, True))
        return self.prefetch(requests)

    # ------------------------------------------------------------------
    def export_run(
        self,
        benchmark: str,
        config: MachineConfig,
        directory: Path | str,
        seed: int | None = None,
        shadow: bool = False,
    ) -> Path:
        """Write the versioned stats export of one run (cache-riding).

        The result is served through the usual memo → disk-cache → compute
        chain, so exporting a run that is already cached never simulates.
        """
        # Deferred: repro.obs.export reaches back into the analysis layer
        # for the shared fingerprint (see repro/obs/__init__.py).
        from repro.obs.export import build_stats_export, write_stats_json

        # The export's embedded config and fingerprint describe the run
        # that actually happened: the job carries the resolved backend.
        job = self._job(benchmark, config, seed, shadow)
        result = self.result(job.benchmark, job.config, shadow=shadow, seed=job.seed)
        document = build_stats_export(result, job)
        path = write_stats_json(document, directory)
        self.metrics.counter("runner.exports_written").inc()
        return path

    def export_stats(
        self,
        directory: Path | str,
        configs: tuple[MachineConfig, ...] | list[MachineConfig] | None = None,
        seeds: tuple[int, ...] | None = None,
    ) -> list[Path]:
        """Export every (benchmark, config, seed) combination's manifest.

        Missing results are bulk-resolved through :meth:`prefetch` first,
        so independent simulations fan out over the parallel engine; the
        export files themselves are deterministic regardless of worker
        count (pinned by the CI determinism job).
        """
        configs = tuple(configs) if configs else (FOUR_WIDE,)
        seeds = tuple(seeds) if seeds else (self.seed,)
        requests = [
            (benchmark, config, seed, False)
            for benchmark in self.benchmarks
            for config in configs
            for seed in seeds
        ]
        self.prefetch(requests)
        return [
            self.export_run(benchmark, config, directory, seed=seed)
            for benchmark, config, seed, _ in requests
        ]

    # ------------------------------------------------------------------
    def base(self, benchmark: str, width: int = 4, shadow: bool = False) -> SimulationResult:
        """Base-machine result at the requested width (first seed)."""
        return self.result(benchmark, FOUR_WIDE if width == 4 else EIGHT_WIDE, shadow)

    def normalized_ipc(self, benchmark: str, config: MachineConfig) -> float:
        """IPC of *config* over the same-width base, averaged across seeds.

        Averaging paired (same-workload) ratios suppresses the percent-level
        scheduling-chaos noise of individual runs.
        """
        base_config = FOUR_WIDE if config.width == 4 else EIGHT_WIDE
        ratios = []
        for seed in self.seeds:
            base = self.result(benchmark, base_config, seed=seed)
            variant = self.result(benchmark, config, seed=seed)
            if base.ipc:
                ratios.append(variant.ipc / base.ipc)
        return sum(ratios) / len(ratios) if ratios else 0.0


_DEFAULT: ExperimentRunner | None = None


def default_runner() -> ExperimentRunner:
    """Process-wide shared runner (benchmark modules reuse its cache)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ExperimentRunner()
    return _DEFAULT
