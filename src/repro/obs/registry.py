"""Metrics registry: named counters, histograms and wall-time timers.

The registry is where the long-lived services count what they do: the
simulation pool (dispatches, chunk sizes, crash replacements), the
experiment runner (cache hits and misses) and the serve front ends
(queue depth, job latency), whose ``/metrics`` endpoint returns
:meth:`MetricsRegistry.as_dict`.  A finished simulation is not published
here: its numbers are the :class:`~repro.pipeline.stats.SimStats` record
that :func:`repro.analysis.cache.serialize_result` writes for the cache
and the stats export.

:class:`StageProfiler` times the processor's five per-cycle phase
methods.  It wraps them once at ``run()`` entry when (and only when)
profiling was requested; a non-profiled run binds the raw methods and
pays nothing.

Metric names are dotted paths (``pool.dispatches``, ``serve.batch_size``);
:meth:`MetricsRegistry.as_dict` flattens everything to a JSON-ready
mapping.
"""

from __future__ import annotations

from time import perf_counter


class CounterMetric:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the count with a value read elsewhere (a gauge)."""
        self.value = value

    def as_value(self):
        return self.value


class HistogramMetric:
    """A named bucket -> count distribution (integer buckets)."""

    __slots__ = ("name", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.buckets: dict[int, int] = {}

    def observe(self, bucket: int, count: int = 1) -> None:
        self.buckets[bucket] = self.buckets.get(bucket, 0) + count

    @property
    def total(self) -> int:
        return sum(self.buckets.values())

    def as_value(self):
        return {str(bucket): self.buckets[bucket] for bucket in sorted(self.buckets)}


class TimerMetric:
    """Accumulated wall time (seconds) and call count for one label."""

    __slots__ = ("name", "seconds", "calls", "_start")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self._start = 0.0

    def add(self, seconds: float, calls: int = 1) -> None:
        self.seconds += seconds
        self.calls += calls

    def __enter__(self) -> "TimerMetric":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.add(perf_counter() - self._start)

    def as_value(self):
        return {"seconds": self.seconds, "calls": self.calls}


class MetricsRegistry:
    """Namespace of metrics, created on first use, exported as one dict."""

    def __init__(self):
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get(name, CounterMetric)

    def histogram(self, name: str) -> HistogramMetric:
        return self._get(name, HistogramMetric)

    def timer(self, name: str) -> TimerMetric:
        return self._get(name, TimerMetric)

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def as_dict(self) -> dict:
        """Flatten to ``{name: value}`` with deterministic key order."""
        return {name: self._metrics[name].as_value() for name in sorted(self._metrics)}


class StageProfiler:
    """Lightweight wall-time wrapper for the processor's pipeline phases.

    ``wrap(name, fn)`` returns a closure timing every call of *fn* into a
    per-stage accumulator.  The processor only calls it when built with
    ``profile=True``; otherwise the raw bound methods run and the profiler
    is never constructed.  ``calls`` counts cycles: the cycles the
    processor fast-forwards over count as one call of every phase with
    zero seconds (:meth:`skip`), so ``calls[phase] == processor.now``.
    """

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def wrap(self, name: str, fn):
        seconds = self.seconds
        calls = self.calls
        seconds[name] = 0.0
        calls[name] = 0
        clock = perf_counter

        def timed():
            start = clock()
            fn()
            seconds[name] += clock() - start
            calls[name] += 1

        return timed

    def skip(self, cycles: int) -> None:
        """Count *cycles* skipped cycles as zero-second calls of each phase."""
        calls = self.calls
        for name in calls:
            calls[name] += cycles
