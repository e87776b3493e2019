"""Real-workload trace corpus: full vs SimPoint-sampled IPC per trace.

One row per committed corpus tracefile: the full-trace IPC, the sampled
weighted IPC, the relative error and the sampled instruction coverage.
Homogeneous traces are gated at 2% error; the branchy outliers
(hash_probe, bubble_sort) fluctuate with branch-predictor window noise at
10k-instruction intervals (docs/TRACES.md) and are reported against a
looser bound rather than tightly gated here — the CI trace-smoke job
proves the 2%-at-≤10%-coverage acceptance bound on the 1M-instruction
trace.
"""

from repro.analysis.report import ExperimentResult, render
from repro.fastsim import apply_backend, available_backends
from repro.pipeline.config import FOUR_WIDE
from repro.trace import CORPUS, load_corpus_feed, run_full, run_sampled

#: Traces whose sampled error must stay within the paper-style 2% bound.
TIGHT = {"vector_sum_80k", "dotproduct_96k", "sieve_105k", "strsearch_76k"}

#: Branchy traces: predictor window noise dominates at small intervals.
LOOSE_BOUND = 0.10


def trace_corpus_table(cache=None) -> ExperimentResult:
    backends = available_backends()
    config = apply_backend(
        FOUR_WIDE, "native" if "native" in backends else backends[-1]
    )
    rows = []
    for entry in CORPUS:
        if not entry.committed:
            continue
        feed = load_corpus_feed(entry.name)
        full = run_full(feed, config, cache=cache)
        report = run_sampled(feed, config, cache=cache)
        error = abs(report["weighted_ipc"] - full.ipc) / full.ipc
        rows.append(
            [
                entry.name,
                len(feed.ops),
                round(full.ipc, 4),
                round(report["weighted_ipc"], 4),
                round(100 * error, 2),
                round(report["coverage"], 3),
            ]
        )
    return ExperimentResult(
        exp_id="Traces",
        title="Corpus traces: full vs sampled IPC (4-wide base)",
        headers=["trace", "insts", "full IPC", "sampled IPC", "err %", "coverage"],
        rows=rows,
        notes=[
            "sampled = SimPoint-style: 10k intervals, k=8, cache-state "
            "reconstruction warming (docs/TRACES.md)",
        ],
    )


def test_trace_corpus_sampling_accuracy(benchmark):
    result = benchmark.pedantic(trace_corpus_table, rounds=1, iterations=1)
    print()
    print(render(result))
    assert result.rows, "corpus tracefiles missing — run scripts/make_corpus.py"
    for name, _insts, full_ipc, sampled_ipc, error_pct, coverage in result.rows:
        # Coverage includes warmup + cache-reconstruction overhead, which is
        # amortized by trace length: it is gated (≤10%) on the 1M-instruction
        # CI trace, and only sanity-checked on these ~100k corpus entries.
        assert 0 < coverage, f"{name}: empty sample set"
        bound = 2.0 if name in TIGHT else 100 * LOOSE_BOUND
        assert error_pct <= bound, (
            f"{name}: sampled IPC {sampled_ipc} vs full {full_ipc} "
            f"({error_pct}% > {bound}%)"
        )
