"""Memoizing simulation runner shared by the benchmark harness.

A full figure regeneration needs up to 8 machine variants × 2 widths × 12
benchmarks; base-machine results are shared between figures, so results are
served through three layers: an in-process memo table, a persistent on-disk
JSON cache (:mod:`repro.analysis.cache`), and — only when both miss — a
fresh simulation.  Independent misses can be computed in parallel with
:meth:`ExperimentRunner.prefetch` (:mod:`repro.analysis.parallel`).
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
from repro.analysis.singleflight import SingleFlight
from repro.fastsim import apply_backend, make_processor
from repro.obs.registry import MetricsRegistry
from repro.pipeline.config import EIGHT_WIDE, FOUR_WIDE, MachineConfig
from repro.pipeline.processor import SimulationResult
from repro.workloads.profiles import SPEC_BENCHMARKS, get_profile
from repro.workloads.synthetic import SyntheticWorkload

#: Figure 7's shadow predictor table sizes.
SHADOW_SIZES = (128, 512, 1024, 4096)

#: Backwards-compatible alias (the engine owns the canonical helper now).
_env_int = env_int


class ExperimentRunner:
    """Runs and memoizes benchmark simulations.

    ``result()`` is a thin read-through: in-memory memo first (same-object
    returns within a session), then the on-disk cache, and a simulation
    only when both miss.  ``prefetch()`` batches the missing runs through
    the parallel engine so later ``result()`` calls are pure lookups.
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
        self.insts = insts if insts is not None else env_int("REPRO_INSTS", 15_000)
        self.warmup = warmup if warmup is not None else env_int("REPRO_WARMUP", 20_000)
        self.seed = seed if seed is not None else env_int("REPRO_SEED", 42)
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
        self._workloads: dict[tuple[str, int], SyntheticWorkload] = {}
        self._results: dict[tuple, SimulationResult] = {}
        #: harness-level observability: where results came from, what was
        #: exported.  Published on every serve (cheap — per result, not
        #: per cycle); read via ``runner.metrics.as_dict()``.
        self.metrics = MetricsRegistry()
        #: concurrent ``result()`` calls for the same key simulate once
        #: (threads sharing this runner, e.g. repro.serve worker threads)
        self._flight = SingleFlight()

    # ------------------------------------------------------------------
    def workload(self, benchmark: str, seed: int | None = None) -> SyntheticWorkload:
        key = (benchmark, seed if seed is not None else self.seed)
        if key not in self._workloads:
            self._workloads[key] = SyntheticWorkload(get_profile(benchmark), seed=key[1])
        return self._workloads[key]

    # ------------------------------------------------------------------
    def _key(self, benchmark: str, config: MachineConfig, seed: int, shadow: bool) -> tuple:
        # The whole frozen config, not its name: variant names omit knobs
        # such as predictor_entries.  That includes config.backend, so a
        # memo hit returns the result of the backend the caller resolved
        # to and per-backend baselines stay honest.
        return (benchmark, seed, config, self.insts, self.warmup, shadow)

    def _shadow_sizes(self, shadow: bool) -> tuple[int, ...] | None:
        return SHADOW_SIZES if shadow else None

    def result(
        self,
        benchmark: str,
        config: MachineConfig,
        shadow: bool = False,
        seed: int | None = None,
    ) -> SimulationResult:
        """Serve one benchmark simulation: memory -> disk -> compute.

        Concurrent callers (threads) that miss both cache layers for the
        same key are collapsed into one simulation by a singleflight lock:
        a single leader computes, the rest wait and share the result
        (``runner.coalesced`` counts the waits).
        """
        seed = seed if seed is not None else self.seed
        # The runner is a backend boundary: REPRO_BACKEND (then the config
        # field) is materialized here, so the cache fingerprint and memo
        # key both see the resolved choice.
        config = apply_backend(config)
        key = self._key(benchmark, config, seed, shadow)
        found = self._results.get(key)
        if found is not None:
            self.metrics.counter("runner.memo_hits").inc()
            return found
        found, leader = self._flight.do(key, lambda: self._compute(key, benchmark, config, seed, shadow))
        if not leader:
            self.metrics.counter("runner.coalesced").inc()
        return found

    #: per-round wait for another process's publication before the claim
    #: is re-contended (stale claims are broken by the store itself).
    CLAIM_WAIT_S = 20.0

    def _compute(
        self, key: tuple, benchmark: str, config: MachineConfig, seed: int, shadow: bool
    ) -> SimulationResult:
        """Cache-or-simulate under the singleflight lock (leader only)."""
        # Re-check the memo: a previous leader may have landed while this
        # caller was between its own memo miss and winning the flight.
        found = self._results.get(key)
        if found is not None:
            self.metrics.counter("runner.memo_hits").inc()
            return found
        shadow_sizes = self._shadow_sizes(shadow)
        claim = None
        if self.cache is not None:
            run = (benchmark, seed, self.insts, self.warmup, config, shadow_sizes)
            # Cross-process singleflight: among processes sharing this
            # store (serving-tier workers, parallel CI legs), exactly one
            # simulates a given fingerprint; the rest wait for the blob.
            # A claim abandoned by a dead process goes stale and is
            # taken over, so this loop always terminates.  Each wait is
            # capped at the stale horizon: past it the claim is
            # contestable, so there is no point sleeping longer.
            stale = getattr(self.cache.backend, "claim_stale_s", None)
            wait_s = self.CLAIM_WAIT_S
            if isinstance(stale, (int, float)):
                wait_s = max(0.1, min(wait_s, float(stale)))
            while True:
                found = self.cache.load(*run)
                if found is not None:
                    self.metrics.counter("runner.disk_hits").inc()
                    self._results[key] = found
                    return found
                claim = self.cache.claim(*run)
                if claim is not None:
                    break
                self.metrics.counter("runner.claim_waits").inc()
                self.cache.wait_published(*run, timeout=wait_s)
        try:
            processor = make_processor(
                self.workload(benchmark, seed),
                config,
                backend=config.backend,
                shadow_sizes=shadow_sizes,
            )
            found = processor.run(max_insts=self.insts, warmup=self.warmup)
            self.metrics.counter("runner.simulated").inc()
            self._results[key] = found
            if self.cache is not None:
                self.cache.store(
                    benchmark, seed, self.insts, self.warmup, config, shadow_sizes, found
                )
        finally:
            if claim is not None:
                claim.release()
        return found

    # ------------------------------------------------------------------
    def prefetch(
        self,
        requests: list[tuple[str, MachineConfig, int, bool]],
        workers: int | None = None,
    ) -> int:
        """Bulk-resolve ``(benchmark, config, seed, shadow)`` requests.

        Requests already served by the memory or disk layers are skipped;
        the rest fan out over the parallel engine (worker count: explicit
        *workers*, else the runner's ``jobs``, else ``REPRO_JOBS``/CPU
        count).  Returns the number of simulations actually executed.
        Results land in both cache layers, so later ``result()`` calls for
        the same keys are pure lookups — and deterministic job ordering
        makes every aggregate identical to a serial run.
        """
        pending: list[tuple[tuple, Job]] = []
        seen: set[tuple] = set()
        for benchmark, config, seed, shadow in requests:
            config = apply_backend(config)
            key = self._key(benchmark, config, seed, shadow)
            if key in seen or key in self._results:
                continue
            shadow_sizes = self._shadow_sizes(shadow)
            if self.cache is not None:
                found = self.cache.load(
                    benchmark, seed, self.insts, self.warmup, config, shadow_sizes
                )
                if found is not None:
                    self._results[key] = found
                    continue
            seen.add(key)
            pending.append(
                (key, Job(benchmark, config, seed, self.insts, self.warmup, shadow_sizes))
            )
        self.metrics.counter("runner.prefetch_warm_hits").inc(
            len(requests) - len(pending)
        )
        if not pending:
            # Fully-warm sweep: every request was a memo or disk hit, so
            # we never reach run_jobs and the worker pool is never even
            # created (it starts lazily on first dispatch).
            return 0
        workers = workers if workers is not None else self.jobs
        results = run_jobs([job for _, job in pending], workers=workers)
        self.metrics.counter("runner.simulated").inc(len(pending))
        for (key, job), result in zip(pending, results):
            self._results[key] = result
            if self.cache is not None:
                self.cache.store(
                    job.benchmark,
                    job.seed,
                    job.insts,
                    job.warmup,
                    job.config,
                    job.shadow_sizes,
                    result,
                )
        return len(pending)

    def prefetch_base(self, workers: int | None = None) -> int:
        """Warm every base-machine run the standard figures lean on."""
        requests: list[tuple[str, MachineConfig, int, bool]] = []
        for benchmark in self.benchmarks:
            for seed in self.seeds:
                requests.append((benchmark, FOUR_WIDE, seed, False))
                requests.append((benchmark, EIGHT_WIDE, seed, False))
            # Figure 7 / Table 3 read the shadow bank of the first seed.
            requests.append((benchmark, FOUR_WIDE, self.seed, True))
        return self.prefetch(requests, workers=workers)

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

        seed = seed if seed is not None else self.seed
        # Materialize the backend before building the document, so the
        # export's embedded config and fingerprint describe the run that
        # actually happened (result() resolves identically).
        config = apply_backend(config)
        result = self.result(benchmark, config, shadow=shadow, seed=seed)
        document = build_stats_export(
            result,
            config,
            benchmark=benchmark,
            seed=seed,
            insts=self.insts,
            warmup=self.warmup,
            shadow_sizes=self._shadow_sizes(shadow),
        )
        path = write_stats_json(document, directory)
        self.metrics.counter("runner.exports_written").inc()
        return path

    def export_stats(
        self,
        directory: Path | str,
        configs: tuple[MachineConfig, ...] | list[MachineConfig] | None = None,
        seeds: tuple[int, ...] | None = None,
        workers: int | None = None,
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
        self.prefetch(requests, workers=workers)
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
