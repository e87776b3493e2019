"""Tests for the metrics registry and the stage profiler."""

import pytest

from repro.analysis.cache import serialize_result
from repro.obs.registry import (
    CounterMetric,
    HistogramMetric,
    MetricsRegistry,
    StageProfiler,
    TimerMetric,
)
from repro.pipeline.config import FOUR_WIDE
from repro.pipeline.processor import Processor
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload


class TestMetrics:
    def test_counter_inc_and_set(self):
        counter = CounterMetric("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.set(42)
        assert counter.as_value() == 42

    def test_histogram_observe(self):
        histogram = HistogramMetric("h")
        histogram.observe(0, 3)
        histogram.observe(2)
        histogram.observe(1, 5)
        assert histogram.buckets == {0: 3, 1: 5, 2: 1}
        assert histogram.total == 9
        assert histogram.as_value() == {"0": 3, "1": 5, "2": 1}

    def test_timer_context_manager(self):
        timer = TimerMetric("t")
        with timer:
            pass
        with timer:
            pass
        assert timer.calls == 2
        assert timer.seconds >= 0.0

    def test_registry_creates_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.histogram("a.h").observe(1)
        registry.timer("a.t").add(0.5)
        assert len(registry) == 3
        assert registry.names() == ["a.b", "a.h", "a.t"]
        assert "a.b" in registry and "nope" not in registry
        exported = registry.as_dict()
        assert exported["a.b"] == 1
        assert exported["a.t"] == {"seconds": 0.5, "calls": 1}

    def test_registry_rejects_type_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")


class TestStageProfiler:
    def test_wrap_accumulates(self):
        profiler = StageProfiler()
        calls = []
        timed = profiler.wrap("phase", lambda: calls.append(1))
        timed()
        timed()
        assert calls == [1, 1]
        assert profiler.calls["phase"] == 2
        assert profiler.seconds["phase"] >= 0.0


class TestProcessorObservability:
    def _run(self, profile):
        workload = SyntheticWorkload(get_profile("gzip"), seed=5)
        processor = Processor(workload, FOUR_WIDE, profile=profile)
        result = processor.run(max_insts=500, warmup=200)
        return processor, result

    def test_profile_off_by_default(self):
        processor, _ = self._run(profile=False)
        assert processor.profiler is None

    def test_profiled_run_times_all_five_stages(self):
        processor, _ = self._run(profile=True)
        assert sorted(processor.profiler.seconds) == [
            "commit", "dispatch", "fetch", "process_events", "select_and_issue",
        ]
        # Every stage counts once per cycle, fast-forwarded cycles included.
        for stage, calls in processor.profiler.calls.items():
            assert calls == processor.now, stage

    def test_profiling_does_not_change_timing(self):
        _, plain = self._run(profile=False)
        _, profiled = self._run(profile=True)
        assert plain.total_cycles == profiled.total_cycles
        assert serialize_result(plain) == serialize_result(profiled)
