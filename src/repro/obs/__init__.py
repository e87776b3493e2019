"""Observability layer: metrics registry, stats export, traces.

The subsystem has three parts, designed so the simulator's hot loop pays
nothing when observability is off:

* :mod:`repro.obs.registry` — a :class:`MetricsRegistry` of named
  counters / histograms / timers that the simulation pool, the experiment
  runner and the serve front ends count into (a simulation's own numbers
  stay on its result record), plus the :class:`StageProfiler` behind
  ``Processor(profile=True)``;
* :mod:`repro.obs.export` — the versioned run manifest
  (:data:`STATS_SCHEMA_VERSION`): one JSON per simulation carrying the
  config fingerprint, seed, workload and every paper-figure counter;
* :mod:`repro.obs.chrometrace` — a Chrome trace-event (``chrome://tracing``
  / Perfetto) exporter over ``Processor(record_schedule=True)`` data.

The committed exports under ``results/ci_baseline/`` are pinned byte for
byte by ``tests/obs/test_export.py``.

See ``docs/OBSERVABILITY.md`` for schema and usage.
"""

# Re-exports are lazy (PEP 562): ``repro.obs.export`` imports the analysis
# layer (for the shared fingerprint), whose package __init__ imports the
# runner, which publishes into this package — an eager import here would
# close that loop into a circle.  Submodules import each other directly;
# only the convenience namespace resolves on first attribute access.
_EXPORTS = {
    "export_chrome_trace": "chrometrace",
    "write_chrome_trace": "chrometrace",
    "STATS_SCHEMA_VERSION": "export",
    "build_stats_export": "export",
    "stats_filename": "export",
    "write_stats_json": "export",
    "CounterMetric": "registry",
    "HistogramMetric": "registry",
    "TimerMetric": "registry",
    "MetricsRegistry": "registry",
    "StageProfiler": "registry",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"repro.obs.{module_name}")
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "STATS_SCHEMA_VERSION",
    "CounterMetric",
    "HistogramMetric",
    "TimerMetric",
    "MetricsRegistry",
    "StageProfiler",
    "build_stats_export",
    "stats_filename",
    "write_stats_json",
    "export_chrome_trace",
    "write_chrome_trace",
]
