"""Metrics registry: named counters, histograms and wall-time timers.

The registry is the collection point for everything a run wants to report
beyond the paper's :class:`~repro.pipeline.stats.SimStats` counters —
component-level counts (selector slots, register-port arbitration, cache
traffic) and stage wall times.  Two rules keep it out of the cycle
loop's cost (measured per change in the newest ``BENCH_<n>.json``):

* **Guarded publishing** — pipeline components keep counting in bare
  integer attributes exactly as before; a ``publish_metrics(registry)``
  call *after* the run copies them in.  The hot loop never touches a
  metric object, never allocates, and never checks an "enabled" flag.
* **Timers wrap phases, not events** — :class:`StageProfiler` wraps the
  five per-cycle phase methods once at ``run()`` entry when (and only
  when) profiling was requested; a non-profiled run binds the raw methods
  and is byte-for-byte the PR-1 loop.

Metric names are dotted paths (``pipeline.issued``, ``regfile.crossbar_
rejections``); :meth:`MetricsRegistry.as_dict` flattens everything to a
JSON-ready mapping for the stats export.
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
        """Overwrite the count (guarded publishing of an external int)."""
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

    def merge(self, counts) -> None:
        """Fold a ``{bucket: count}`` mapping (e.g. a Counter) in."""
        for bucket, count in counts.items():
            self.observe(int(bucket), count)

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

    def publish(self, registry: MetricsRegistry, prefix: str = "stage") -> None:
        for name in self.seconds:
            registry.timer(f"{prefix}.{name}").add(
                self.seconds[name], self.calls[name]
            )

    def as_dict(self) -> dict:
        """``{stage: {seconds, calls}}`` for the stats export."""
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in sorted(self.seconds)
        }
