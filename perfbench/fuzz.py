"""``fuzz``: a seeded differential-fuzzing campaign on the python oracle.

Programs come from ``repro.verify``'s generator, with generator seeds
derived from the workload seed exactly as ``run_fuzz`` derives them.
Generated programs vary a lot in length, so the campaign is cut into
``BATCHES`` batches whose planned cost is as close as possible to
``BATCH_COST`` work units, planned before timing starts: a program costs
its dynamic instruction count on the functional emulator plus
``PROGRAM_COST`` (on the python oracle, the fixed part of checking one
program takes as long as about 165 more dynamic instructions).  Every
batch is one ``run_fuzz`` call over the full 8-configuration matrix with
lockstep and invariant checking, and its latency is scaled to exactly
``BATCH_COST`` units, so every seed measures the same amount of work.
The same campaign repeats for the run's duration.
"""

from __future__ import annotations

import time

from common import (OUT_DIR, Outcome, Patches, Tracer, digest, layer_metrics, median,
                    patch_common_layers, root, time_subprocess, peak_rss_mb)

from repro import verify
from repro.isa.assembler import assemble
from repro.isa.emulator import Emulator
from repro.verify import fuzz as fuzz_module
from repro.verify.progen import generate_source

#: work units per batch, batches per campaign
BATCH_COST, BATCHES = 2500, 4
#: fixed per-program checking cost, in dynamic-instruction equivalents
#: (least-squares fit of check time against emulator steps, 100 programs)
PROGRAM_COST = 165
#: emulator step budget of a generated program (run_fuzz's default)
BUDGET = fuzz_module.DEFAULT_BUDGET


def setup() -> list[tuple[float, float]]:
    return time_subprocess("import repro.verify; repro.verify.config_matrix()")


def plan_batches(seed: int) -> list[tuple[list[int], int]]:
    """Generator seeds in ``run_fuzz``'s derivation order, grouped into
    batches of about ``BATCH_COST`` work units; returns ``(seeds, cost)``
    per batch."""
    batches: list[tuple[list[int], int]] = []
    seeds: list[int] = []
    filled = 0
    index = 0
    while len(batches) < BATCHES:
        gen_seed = seed * fuzz_module.SEED_STRIDE + index
        steps = Emulator(assemble(generate_source(gen_seed))).run(max_steps=BUDGET)
        cost = PROGRAM_COST + steps
        if seeds and abs(filled + cost - BATCH_COST) > abs(filled - BATCH_COST):
            batches.append((seeds, filled))
            seeds, filled = [], 0
            continue
        seeds.append(gen_seed)
        filled += cost
        index += 1
    return batches


def campaign(batches, tracer: Tracer | None = None) -> tuple[list[tuple], list]:
    """Every batch once; returns each batch's ``(start, end, cost)`` and
    its ``FuzzReport``."""
    timings, reports = [], []
    for seeds, cost in batches:
        started = time.perf_counter()
        with root(tracer):
            reports.append(verify.run_fuzz(len(seeds), raw_seeds=seeds))
        timings.append((started, time.perf_counter(), cost))
    return timings, reports


def _wall(timings) -> float:
    return sum(end - start for start, end, _ in timings)


def check(batches, reports, outcome: Outcome) -> list:
    """Every run must pass; returns the campaign's verdicts."""
    verdicts = []
    for (seeds, _), report in zip(batches, reports):
        outcome.attempted += report.checked
        expected_runs = len(seeds) * len(report.config_names)
        if report.checked != expected_runs:
            outcome.fail(f"batch checked {report.checked} runs, expected {expected_runs}")
        for failure in report.failures:
            outcome.fail(f"[{failure.kind}] {failure.config_name} seed={failure.seed}: "
                         f"{failure.message}")
        verdicts.append([report.programs, report.checked,
                         sorted((f.seed, f.config_name, f.kind) for f in report.failures)])
    return verdicts


def traced_campaign(batches, counters: dict) -> tuple[list[tuple], Tracer, list]:
    tracer = Tracer()
    patches = Patches(tracer)
    patch_common_layers(patches, counters)
    patches.function(fuzz_module.generate_source, "verify.progen")
    patches.function(fuzz_module.check_source, "verify.check")
    patches.function(fuzz_module.assemble, "isa.assemble")
    try:
        timings, reports = campaign(batches, tracer)
    finally:
        patches.restore()
    return timings, tracer, reports


def run(ctx, expected: dict) -> Outcome:
    outcome = Outcome()
    setups = setup()
    batches = plan_batches(ctx.seed)
    campaigns, verdicts = [], []
    plan = ["untraced", "traced", "untraced"] if ctx.trace else []
    deadline = time.perf_counter() + ctx.seconds
    counters: dict = {}
    rss = 0.0
    while plan or not campaigns or time.perf_counter() + _wall(campaigns[-1]) <= deadline:
        mode = plan.pop(0) if plan else "untraced"
        if mode == "traced":
            traced, tracer, reports = traced_campaign(batches, counters)
        else:
            timings, reports = campaign(batches)
            campaigns.append(timings)
        verdicts.append(check(batches, reports, outcome))
        rss = max(rss, peak_rss_mb(ctx))
        if ctx.trace and not plan:
            break
    ctx.speed.stop()
    if any(v != verdicts[0] for v in verdicts):
        outcome.fail("fuzz verdicts changed between repeats of the same campaign")
    verdict = digest(verdicts[0])
    known = expected.get(str(ctx.seed))
    if known is not None and known != verdict:
        outcome.fail(f"fuzz verdicts {verdict} != seed commit's {known}")
    # Batch latencies scaled to exactly BATCH_COST units: (reference speed, measured).
    scaled = [[((end - start) * ctx.speed.factor(start, end) * BATCH_COST / cost,
                (end - start) * BATCH_COST / cost) for start, end, cost in timings]
              for timings in campaigns]
    wall = tuple(median([sum(batch[k] for batch in c) for c in scaled]) for k in (0, 1))
    batch_ms = tuple(1000 * median([batch[k] for c in scaled for batch in c]) for k in (0, 1))
    setup_s = ctx.speed.timed(setups)
    outcome.lines += [
        ("fuzz/setup_s", setup_s, "s"),
        ("fuzz/wall_s", wall, "s"),
        ("fuzz/batch_p50_ms", batch_ms, "ms"),
        ("fuzz/programs", sum(len(seeds) for seeds, _ in batches), "count"),
        ("fuzz/campaigns", len(verdicts), "count"),
        ("fuzz/verdicts_digest", verdict, ""),
    ]
    if ctx.trace:
        counters["verify.runs"] = sum(report.checked for report in reports)
        counters["verify.failures"] = sum(len(report.failures) for report in reports)
        metrics = layer_metrics(tracer, counters,
                                untraced_wall=median([_wall(c) for c in campaigns]),
                                traced_wall=_wall(traced))
        metrics["verify.progen_s"] = tracer.total("verify.progen")
        metrics["isa.assemble_s"] = tracer.total("isa.assemble")
        metrics["verify.check_s"] = tracer.total("verify.check")
        outcome.metrics = metrics
        tracer.write(OUT_DIR / f"fuzz-seed{ctx.seed}.json")
    else:
        outcome.metrics = {
            "setup_s": setup_s[0],
            "wall_s": wall[0],
            "p50_ms": batch_ms[0],
            "peak_rss_mb": rss,
        }
    return outcome
