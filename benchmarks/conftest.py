"""Shared fixtures for the benchmark harness.

``bench_claims.py`` asserts every paper claim against a session-wide
runner, whose memo serves e.g. the base-machine runs feeding Figures
4/6/10/14/15/16 exactly once.  ``repro experiment all`` prints the tables
the claims read.

At session start the runner bulk-prefetches every base-machine run through
the parallel engine (and the persistent on-disk cache under
``results/cache/``), so a repeat session serves them without simulating;
see docs/PERFORMANCE.md.

Environment knobs (see repro.analysis.runner): REPRO_INSTS, REPRO_WARMUP,
REPRO_SEED, REPRO_BENCHMARKS, REPRO_JOBS, REPRO_CACHE, REPRO_CACHE_DIR.
"""

import pytest

from repro.analysis.runner import default_runner


@pytest.fixture(scope="session")
def runner():
    shared = default_runner()
    # Resolve the base-machine runs every figure shares up front: misses fan
    # out over the parallel engine, and everything lands in the disk cache.
    shared.prefetch_base()
    return shared
