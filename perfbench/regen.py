"""``regen``: regenerate Figures 14 and 16, cold and then warm.

Each cycle starts a fresh warm-pool generation (as a new ``repro
experiment`` process would) and an empty result store, regenerates both
figures through ``repro.analysis.experiments`` at reduced run lengths
(cold: 120 simulations fanned out over the pool, then published to the
store), and then re-renders them ``WARM_RENDERS`` times from fresh
runners over the now-full store (warm: store reads, fingerprinting and
deserialization only; ``runner.simulated`` must stay 0).
"""

from __future__ import annotations

import random
import time

from common import (OUT_DIR, Outcome, Patches, Tracer, digest, layer_metrics, median,
                    patch_common_layers, root, sum_registry, time_subprocess,
                    peak_rss_mb)

from repro.analysis import experiments, report
from repro.analysis.cache import ResultCache, serialize_result
from repro.analysis.parallel import Job, execute_job
from repro.analysis.pool import maybe_pool, shutdown_pool
from repro.analysis.runner import ExperimentRunner
from repro.fastsim import apply_backend
from repro.pipeline.config import FOUR_WIDE, RegFileModel, SchedulerModel
from repro.workloads.profiles import SPEC_BENCHMARKS

#: reduced run lengths (measured / warmup instructions per simulation)
INSTS, WARMUP = 300, 150
#: fig14 (12 benchmarks x 2 seeds x base + 3 variants) + fig16's variant
COLD_SIMULATIONS = 120
#: fresh runners re-rendering from the full store per cycle
WARM_RENDERS = 10

#: pool counters (program name -> benchmark name)
POOL_COUNTERS = {
    "pool.jobs_dispatched": "pool.jobs",
    "pool.chunks_sent": "pool.chunks",
    "pool.worker_starts": "pool.worker_starts",
    "pool.config_ships": "pool.config_ships",
    "pool.crash_replacements": "pool.crash_replacements",
}
RUNNER_COUNTERS = {name: name for name in ("runner.disk_hits", "runner.memo_hits",
                                            "runner.prefetch_warm_hits", "runner.simulated")}


def setup() -> list[tuple[float, float]]:
    return time_subprocess("import repro.analysis.experiments, repro.analysis.report")


def regenerate(runner: ExperimentRunner) -> str:
    return "\n".join([
        report.render(experiments.fig14(runner)),
        report.render(experiments.fig16(runner)),
    ])


def _simulated(runner: ExperimentRunner) -> int:
    counter = runner.metrics.get("runner.simulated")
    return counter.value if counter is not None else 0


class Regen:
    def __init__(self, ctx, outcome: Outcome):
        self.ctx = ctx
        self.outcome = outcome
        self.cycles = 0
        self.reference: str | None = None
        self.peak_rss = 0.0
        self.counters: dict = {}

    def _runner(self, store) -> ExperimentRunner:
        return ExperimentRunner(
            insts=INSTS, warmup=WARMUP, seed=self.ctx.seed, cache=ResultCache(store)
        )

    def cycle(self, tracer: Tracer | None = None) -> tuple[tuple, list[tuple]]:
        """One cold regeneration plus the warm re-renders; returns the
        ``(start, end)`` interval of the cold one and of each warm one."""
        outcome = self.outcome
        store = self.ctx.work / f"regen-store-{self.cycles}"
        self.cycles += 1
        shutdown_pool()
        runners = []
        runner = self._runner(store)
        runners.append(runner)
        outcome.attempted += 1
        started = time.perf_counter()
        with root(tracer):
            text = regenerate(runner)
        cold = (started, time.perf_counter())
        if _simulated(runner) != COLD_SIMULATIONS:
            outcome.fail(f"cold regeneration simulated {_simulated(runner)}, "
                         f"expected {COLD_SIMULATIONS}")
        if self.reference is None:
            self.reference = text
            self._spot_check(runner)
        elif text != self.reference:
            outcome.fail("cold regeneration rows differ from the first cycle's")
        warm = []
        for _ in range(WARM_RENDERS):
            outcome.attempted += 1
            started = time.perf_counter()
            with root(tracer):
                fresh = self._runner(store)
                again = regenerate(fresh)
            warm.append((started, time.perf_counter()))
            runners.append(fresh)
            if again != text or _simulated(fresh) != 0:
                outcome.fail("warm re-render differs from cold or simulated")
        self.peak_rss = max(self.peak_rss, peak_rss_mb(self.ctx))
        pool = maybe_pool()
        if pool is not None:
            sum_registry(self.counters, pool.registry.as_dict(), POOL_COUNTERS)
        for used in runners:
            sum_registry(self.counters, used.metrics.as_dict(), RUNNER_COUNTERS)
        shutdown_pool()
        return cold, warm

    def _spot_check(self, runner: ExperimentRunner) -> None:
        """Re-simulate two cells inline and compare with the pool's results."""
        rng = random.Random(self.ctx.seed)
        combined = FOUR_WIDE.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, regfile=RegFileModel.SEQUENTIAL
        )
        before = _simulated(runner)
        for config in (FOUR_WIDE, combined):
            config = apply_backend(config)
            benchmark = rng.choice(SPEC_BENCHMARKS)
            seed = rng.choice(runner.seeds)
            self.outcome.attempted += 1
            served = runner.result(benchmark, config, seed=seed)
            inline = execute_job(Job(benchmark, config, seed, INSTS, WARMUP))
            if serialize_result(served) != serialize_result(inline):
                self.outcome.fail(f"{benchmark}/{config.name}/seed={seed}: "
                                  "pool result differs from an inline run")
        if _simulated(runner) != before:
            self.outcome.fail("spot check was not served from the memo")


def _length(interval) -> float:
    return interval[1] - interval[0]


def run(ctx, expected: dict) -> Outcome:
    outcome = Outcome()
    setups = setup()
    regen = Regen(ctx, outcome)
    try:
        if ctx.trace:
            untraced = [regen.cycle()]
            counters = regen.counters = {}
            tracer = Tracer()
            patches = Patches(tracer)
            patches.function(experiments.fig14, "experiments.fig14")
            patches.function(experiments.fig16, "experiments.fig16")
            patches.function(report.render, "experiments.render")
            patch_common_layers(patches, counters)
            try:
                cold, warm = regen.cycle(tracer)
            finally:
                patches.restore()
            regen.counters = {}
            untraced.append(regen.cycle())
            outcome.metrics = layer_metrics(
                tracer, counters,
                untraced_wall=median([_length(c) + sum(map(_length, w)) for c, w in untraced]),
                traced_wall=_length(cold) + sum(map(_length, warm)),
            )
            tracer.write(OUT_DIR / f"regen-seed{ctx.seed}.json")
            colds = [c for c, _ in untraced]
            warms = [w for _, w in untraced]
        else:
            colds, warms = [], []
            deadline = time.perf_counter() + ctx.seconds
            last = 0.0
            while not colds or time.perf_counter() + last <= deadline:
                started = time.perf_counter()
                cold, warm = regen.cycle()
                last = time.perf_counter() - started
                colds.append(cold)
                warms.append(warm)
    finally:
        shutdown_pool()
    ctx.speed.stop()
    setup_s = ctx.speed.timed(setups)
    cold_s = ctx.speed.timed(colds)
    warm_ms = ctx.speed.timed([w for cycle in warms for w in cycle], lambda x: 1000 * median(x))
    warm_s = tuple(median(values) for values in zip(*(
        ctx.speed.timed(cycle, sum) for cycle in warms)))
    if not ctx.trace:
        outcome.metrics = {
            "setup_s": setup_s[0],
            "wall_s": cold_s[0],
            "p50_ms": warm_ms[0],
            "peak_rss_mb": regen.peak_rss,
        }
    rows = digest(regen.reference or "")
    known = expected.get(str(ctx.seed))
    if known is not None and known != rows:
        outcome.fail(f"figure rows digest {rows} != seed commit's {known}")
    outcome.lines += [
        ("regen/setup_s", setup_s, "s"),
        ("regen/cold_s", cold_s, "s"),
        ("regen/warm_s", warm_s, "s"),
        ("regen/warm_render_p50_ms", warm_ms, "ms"),
        ("regen/peak_rss_mb", regen.peak_rss, "MB"),
        ("regen/cycles", len(colds), "count"),
        ("regen/rows_digest", rows, ""),
    ]
    return outcome
