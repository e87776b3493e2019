"""Shared fixtures for the benchmark harness.

``bench_claims.py`` asserts every paper claim against a session-wide
runner, whose memo serves e.g. the base-machine runs feeding Figures
4/6/10/14/15/16 exactly once.  ``repro experiment all`` prints the tables
the claims read.

At session start the runner bulk-prefetches every base-machine run through
the parallel engine (and the persistent on-disk cache under
``results/cache/``), so a repeat session serves them without simulating;
see docs/PERFORMANCE.md.

At session end the base-machine runs are exported as schema-versioned
stats JSON under ``results/stats/`` (see docs/OBSERVABILITY.md) — CI
uploads that tree as a workflow artifact, and ``repro report --baseline``
can diff it against a committed baseline.  Set ``REPRO_STATS_DIR`` to
redirect, or ``REPRO_STATS_EXPORT=0`` to skip.

Environment knobs (see repro.analysis.runner): REPRO_INSTS, REPRO_WARMUP,
REPRO_SEED, REPRO_BENCHMARKS, REPRO_JOBS, REPRO_CACHE, REPRO_CACHE_DIR,
REPRO_STATS_DIR, REPRO_STATS_EXPORT.
"""

import os
import pathlib

import pytest

from repro.analysis.runner import default_runner
from repro.pipeline.config import EIGHT_WIDE, FOUR_WIDE

_RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def _stats_export_enabled() -> bool:
    return os.environ.get("REPRO_STATS_EXPORT", "1").strip().lower() not in (
        "0", "off", "false", "no",
    )


@pytest.fixture(scope="session")
def runner():
    shared = default_runner()
    # Resolve the base-machine runs every figure shares up front: misses fan
    # out over the parallel engine, and everything lands in the disk cache.
    shared.prefetch_base()
    yield shared
    if _stats_export_enabled():
        # Manifest the base runs the session leaned on: one stats JSON per
        # (benchmark, width, seed), served straight from the memo/disk
        # layers — no extra simulation.
        stats_dir = os.environ.get("REPRO_STATS_DIR") or (_RESULTS_DIR / "stats")
        for benchmark in shared.benchmarks:
            for config in (FOUR_WIDE, EIGHT_WIDE):
                for seed in shared.seeds:
                    shared.export_run(benchmark, config, stats_dir, seed=seed)

