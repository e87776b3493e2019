"""Parallel experiment execution engine.

Independent simulation jobs — one ``(benchmark, config, seed, run-length,
shadow)`` tuple each — fan out over the persistent warm worker pool
(:mod:`repro.analysis.pool`).  Results come back **in submission order**
regardless of which worker finishes first, so anything aggregated from
them is byte-identical to a serial run; each job is itself deterministic
(seeded synthetic workloads, no shared state between jobs).

Worker count resolution, in priority order:

1. the explicit ``jobs=`` argument (CLI ``--jobs`` flag lands here);
2. the ``REPRO_JOBS`` environment knob;
3. ``os.cpu_count()``.

``jobs <= 1`` (or a single job) runs inline in this process — no pool, no
pickling, no worker startup cost.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

from repro.fastsim import make_processor
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import SimulationResult
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload


def env_int(name: str, default: int) -> int:
    """Integer environment knob; warns (and falls back) on garbage values."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring {name}={raw!r}: not an integer, using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``, else the machine's CPU count."""
    return max(1, env_int("REPRO_JOBS", os.cpu_count() or 1))


@dataclass(frozen=True)
class Job:
    """One simulation's key: workload identity + machine + lengths.

    The result cache fingerprints it (:func:`repro.analysis.cache.fingerprint`),
    the runner memoizes on it and :func:`execute_job` runs it.
    ``benchmark`` is a profile name for jobs that reach
    :func:`execute_job`; keys that never do may carry a trace token
    instead (:func:`repro.trace.run.trace_job`, whose ``insts=0`` means
    the whole trace, and :func:`repro.trace.run.sampled_job`, whose token
    also spells the sampling plan).
    """

    benchmark: str
    config: MachineConfig
    seed: int
    insts: int
    warmup: int
    #: shadow-predictor table sizes, or None for no shadow bank
    shadow_sizes: tuple[int, ...] | None = None


def execute_job(job: Job) -> SimulationResult:
    """Run one job start to finish (top-level so worker processes can
    unpickle it).

    The job's config carries the already-resolved cycle-loop backend
    (the runner materializes it before building jobs), so worker
    processes never consult the environment themselves.
    """
    workload = SyntheticWorkload(get_profile(job.benchmark), seed=job.seed)
    processor = make_processor(
        workload, job.config, backend=job.config.backend, shadow_sizes=job.shadow_sizes
    )
    return processor.run(max_insts=job.insts, warmup=job.warmup)


def run_jobs(jobs: list[Job], workers: int | None = None) -> list[SimulationResult]:
    """Execute *jobs*, returning results in the same order as *jobs*.

    ``workers=None`` resolves via :func:`default_jobs`.  Submission order
    is preserved no matter how the pool schedules the work, and a job
    that raises re-raises the *first* (submission-order) failure here.

    Multi-job dispatches ride the process-wide warm pool — workers stay
    alive between calls with modules imported, so
    repeat fan-outs skip the ~100 ms spin-up cost.
    """
    if not jobs:
        return []
    count = workers if workers is not None else default_jobs()
    if count <= 1 or len(jobs) == 1:
        return [execute_job(job) for job in jobs]
    # Deferred import: the pool module imports Job/env_int from here.
    from repro.analysis.pool import get_pool

    return get_pool(workers=count).run(jobs)
