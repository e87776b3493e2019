"""Job execution for the serving layer.

Workers hand validated specs to one shared :class:`JobExecutor`, which
routes them onto the existing analysis machinery:

* ``run`` jobs go through one :class:`~repro.analysis.runner.ExperimentRunner`
  keyed on :class:`~repro.analysis.parallel.Job` (which carries each
  spec's run lengths), on the on-disk
  :class:`~repro.analysis.cache.ResultCache` — so served results ride the
  same memo → disk-cache → compute chain as the offline CLI.  Below the
  front end's coalescing, the store claim is the only dedupe: it keeps
  worker threads and worker processes alike from simulating one
  fingerprint twice.
  The result payload is the **versioned stats export**
  (:func:`repro.obs.export.build_stats_export`) — byte-identical to what
  ``repro export-stats`` writes for the same inputs.
* ``verify`` jobs replay an HPRISC program through the differential
  verification stack (:func:`repro.verify.check_source`) across the
  requested configuration matrix.
* ``trace`` jobs replay a binary tracefile (:mod:`repro.trace`) — full
  runs produce the same versioned stats export as ``run`` jobs; sampled
  runs produce the SimPoint-style sampling report.  They run inline on
  the worker thread, never on the pool.  Decoded feeds are memoized per
  content hash, so many jobs against one trace decode it once per
  worker process.
"""

from __future__ import annotations

import threading

from repro.analysis.cache import ResultCache
from repro.analysis.runner import ExperimentRunner
from repro.fastsim import apply_backend
from repro.obs.export import build_stats_export
from repro.serve.protocol import JobSpec, RunSpec, TraceSpec, VerifySpec


class JobExecutor:
    """Executes job specs; safe to call from multiple worker threads."""

    def __init__(self, cache: ResultCache | None | bool = True, jobs: int | None = None):
        #: serves every run spec; *jobs* worker processes fan out each
        #: batch's cache misses (None resolves via REPRO_JOBS / CPU count)
        self.runner = ExperimentRunner(jobs=jobs, cache=cache)
        self.cache = self.runner.cache
        #: decoded trace feeds, memoized by content hash
        self._feeds: dict[str, object] = {}
        self._lock = threading.Lock()

    def simulated(self) -> int:
        """Total simulations actually executed (not served from a cache)."""
        counter = self.runner.metrics.get("runner.simulated")
        return counter.value if counter is not None else 0

    # ------------------------------------------------------------------
    def execute(self, spec: JobSpec) -> dict:
        """Run one spec to completion; returns the result document."""
        if isinstance(spec, RunSpec):
            return self._execute_run(spec)
        if isinstance(spec, VerifySpec):
            return self._execute_verify(spec)
        if isinstance(spec, TraceSpec):
            return self._execute_trace(spec)
        raise TypeError(f"unknown spec type {type(spec).__name__}")  # pragma: no cover

    def execute_batch(self, specs: list[JobSpec]) -> list[dict | Exception]:
        """Run a batch of specs, isolating failures per spec.

        Returns one entry per spec, in order: the result document on
        success, or the exception that spec raised (so a server worker
        can settle each job individually — one bad spec never poisons
        its batchmates).

        Every run spec's job is resolved first in one
        :meth:`~repro.analysis.runner.ExperimentRunner.resolve` call, so
        the batch's cache misses fan out together over the warm worker
        pool and the per-spec ``execute`` calls below are pure memo
        lookups plus document builds.  Cache hits never reach the pool,
        and a miss another worker has claimed is waited for instead of
        simulated twice.
        """
        jobs = []
        for spec in specs:
            if isinstance(spec, RunSpec):
                try:
                    jobs.append(self._job(spec))
                except Exception:  # noqa: BLE001 - surfaced per-spec below
                    pass
        try:
            self.runner.resolve(jobs)
        except Exception:  # noqa: BLE001 - surfaced per-spec below
            pass
        outcomes: list[dict | Exception] = []
        for spec in specs:
            try:
                outcomes.append(self.execute(spec))
            except Exception as error:  # noqa: BLE001 - settled per job
                outcomes.append(error)
        return outcomes

    @staticmethod
    def _job(spec: RunSpec):
        # Materialized here (not just inside the runner) so the exported
        # document's config/fingerprint match the run when a server-side
        # REPRO_BACKEND overrides the spec's choice.
        return spec.job(apply_backend(spec.config()))

    def _execute_run(self, spec: RunSpec) -> dict:
        job = self._job(spec)
        (result,), _ = self.runner.resolve([job])
        return {"kind": "run", "stats": build_stats_export(result, job)}

    def _trace_feed(self, spec: TraceSpec):
        """The decoded feed for a trace spec, memoized by content hash."""
        # Deferred: the trace stack is needed only by trace jobs.
        from repro.trace import TraceFormatError, load_corpus_feed

        with self._lock:
            feed = self._feeds.get(spec.content_hash)
        if feed is not None:
            return feed
        feed = load_corpus_feed(spec.trace)
        if feed.content_hash != spec.content_hash:
            raise TraceFormatError(
                f"trace {spec.trace!r} has content hash "
                f"{feed.content_hash[:12]}…, but the job was submitted for "
                f"{spec.content_hash[:12]}… (stale reference?)"
            )
        with self._lock:
            return self._feeds.setdefault(spec.content_hash, feed)

    def _execute_trace(self, spec: TraceSpec) -> dict:
        from repro.trace import run_full, run_sampled

        feed = self._trace_feed(spec)
        # Materialized for the same reason as run jobs: the exported
        # fingerprint must match what actually executed under a
        # server-side REPRO_BACKEND override.
        config = apply_backend(spec.config())
        if spec.sampled:
            report = run_sampled(feed, config, cache=self.cache, **spec.run_options())
            return {"kind": "trace", "report": report}
        result = run_full(feed, config, cache=self.cache, **spec.run_options())
        return {"kind": "trace", "stats": build_stats_export(result, spec.job(config))}

    def _execute_verify(self, spec: VerifySpec) -> dict:
        # Deferred: the verify stack is needed only by verify jobs.
        from repro.verify import check_source, config_matrix

        configs = config_matrix(names=list(spec.configs) if spec.configs else None)
        failures = []
        for config in configs:
            failure = check_source(spec.source, config, budget=spec.budget)
            if failure is not None:
                failures.append(
                    {
                        "kind": failure.kind,
                        "config": failure.config_name,
                        "message": failure.message,
                    }
                )
        return {
            "kind": "verify",
            "ok": not failures,
            "checked": len(configs),
            "configs": [config.name for config in configs],
            "failures": failures,
        }
