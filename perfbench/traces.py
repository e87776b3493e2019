"""``trace``: decode corpus traces, then simulate each one full and sampled.

Runs inline (no pool) and with no result store, so every pass pays for
decoding (``TraceFeed``), the full reference run (``run_full``) and the
SimPoint-style sampled run (``run_sampled``).  ``sample_err_pct`` is the
largest relative weighted-IPC error of a sampled run against its full run.
``p50_ms`` is the median latency of one trace's decode + full run +
sampled run (``hash_probe_71k``'s, 20% away from both neighbours).
"""

from __future__ import annotations

import time

from common import (OUT_DIR, Outcome, Patches, Tracer, digest, layer_metrics, median,
                    patch_common_layers, root, time_subprocess, peak_rss_mb)

from repro.analysis.cache import serialize_result
from repro.fastsim import apply_backend
from repro.pipeline.config import FOUR_WIDE
import repro.trace as corpus_traces
from repro.trace import sampling

#: the homogeneous trace and the two sampling-error outliers
TRACES = ("vector_sum_80k", "hash_probe_71k", "bubble_sort_104k")


def setup() -> list[tuple[float, float]]:
    return time_subprocess(
        "import repro.trace; repro.trace.resolve_trace('vector_sum_80k')"
    )


def one_pass(config, tracer: Tracer | None = None) -> tuple[list, dict]:
    """Every trace once; returns the ``(start, end)`` of each trace's
    decode + full + sampled run and ``{trace: (full result, sampled
    report)}``."""
    outputs = {}
    traces = []
    for name in TRACES:
        with root(tracer):
            begun = time.perf_counter()
            path = corpus_traces.resolve_trace(name)
            if tracer is not None:
                with tracer.span("trace.decode"):
                    feed = corpus_traces.TraceFeed(path)
            else:
                feed = corpus_traces.TraceFeed(path)
            # Called through the package so traced passes see the patches.
            full = corpus_traces.run_full(feed, config)
            report = corpus_traces.run_sampled(feed, config)
            traces.append((begun, time.perf_counter()))
        outputs[name] = (full, report)
    return traces, outputs


def _wall(traces) -> float:
    return sum(end - start for start, end in traces)


def check(outputs: dict, expected: dict, outcome: Outcome) -> tuple[float, dict]:
    """Compare full-run results and sampled reports with the seed commit's
    (the traces, not the workload seed, fix them); returns
    ``sample_err_pct`` and the output digests."""
    worst = 0.0
    digests = {}
    for name, (full, report) in outputs.items():
        got = {"full": digest(serialize_result(full)), "sampled": digest(report)}
        digests[name] = got
        for kind, value in got.items():
            outcome.attempted += 1
            want = expected.get(name, {}).get(kind)
            if want is not None and want != value:
                outcome.fail(f"{name}: {kind} output {value} != seed commit's {want}")
        worst = max(worst, 100 * abs(report["weighted_ipc"] - full.ipc) / full.ipc)
    return worst, digests


def traced_pass(config, counters: dict) -> tuple[list, Tracer, dict]:
    tracer = Tracer()
    patches = Patches(tracer)
    patch_common_layers(patches, counters)
    patches.function(corpus_traces.run_full, "trace.full")
    patches.function(corpus_traces.run_sampled, "trace.sampled")
    patches.function(sampling.profile_intervals, "trace.profile")
    patches.function(sampling.pick_representatives, "trace.cluster")
    patches.function(sampling.warming_ops, "trace.warming")
    try:
        traces, outputs = one_pass(config, tracer)
    finally:
        patches.restore()
    return traces, tracer, outputs


def run(ctx, expected: dict) -> Outcome:
    outcome = Outcome()
    setups = setup()
    config = apply_backend(FOUR_WIDE)
    passes, errors = [], []
    if ctx.trace:
        plan = ["untraced", "traced", "untraced"]
    else:
        plan = []
    deadline = time.perf_counter() + ctx.seconds
    counters: dict = {}
    rss = 0.0
    while plan or not passes or time.perf_counter() + _wall(passes[-1]) <= deadline:
        mode = plan.pop(0) if plan else "untraced"
        if mode == "traced":
            traced, tracer, outputs = traced_pass(config, counters)
        else:
            traces, outputs = one_pass(config)
            passes.append(traces)
        error, digests = check(outputs, expected, outcome)
        errors.append(error)
        rss = max(rss, peak_rss_mb(ctx))
        if ctx.trace and not plan:
            break
    ctx.speed.stop()
    if len(set(errors)) != 1:
        outcome.fail(f"sample_err_pct changed between passes: {errors}")
    setup_s = ctx.speed.timed(setups)
    wall = tuple(median(values) for values in zip(*(
        ctx.speed.timed(traces, sum) for traces in passes)))
    trace_ms = ctx.speed.timed([t for traces in passes for t in traces],
                               lambda x: 1000 * median(x))
    outcome.lines += [
        ("trace/setup_s", setup_s, "s"),
        ("trace/wall_s", wall, "s"),
        ("trace/trace_p50_ms", trace_ms, "ms"),
        ("trace/sample_err_pct", errors[0], "%"),
        ("trace/peak_rss_mb", rss, "MB"),
        ("trace/passes", len(errors), "count"),
        *((f"trace/{name}_{kind}_digest", value, "")
          for name, kinds in digests.items() for kind, value in kinds.items()),
    ]
    if ctx.trace:
        reports = [report for _, report in outputs.values()]
        counters["trace.coverage"] = (sum(r["simulated_insts"] for r in reports)
                                      / sum(r["insts"] for r in reports))
        counters["trace.warming_insts"] = sum(
            sample["warming_insts"] for r in reports for sample in r["samples"])
        metrics = layer_metrics(tracer, counters,
                                untraced_wall=median([_wall(t) for t in passes]),
                                traced_wall=_wall(traced))
        metrics["trace.decode_s"] = tracer.total("trace.decode")
        metrics["trace.profile_s"] = tracer.total("trace.profile")
        metrics["trace.cluster_s"] = tracer.total("trace.cluster")
        metrics["trace.warming_s"] = tracer.total("trace.warming")
        metrics["trace.window_run_s"] = (tracer.total("fastsim.build", under="trace.sampled")
                                         + tracer.total("fastsim.run", under="trace.sampled"))
        metrics["trace.full_run_s"] = (tracer.total("fastsim.build", under="trace.full")
                                       + tracer.total("fastsim.run", under="trace.full"))
        outcome.metrics = metrics
        tracer.write(OUT_DIR / f"trace-seed{ctx.seed}.json")
    else:
        outcome.metrics = {
            "setup_s": setup_s[0],
            "wall_s": wall[0],
            "p50_ms": trace_ms[0],
            "peak_rss_mb": rss,
        }
    return outcome
