"""Versioned per-run stats export (the run manifest).

One JSON document per simulation, carrying everything a later consumer —
the committed baseline, a plotting notebook, a results archive — needs
to interpret the run without the code that produced it:

* ``schema_version`` (:data:`STATS_SCHEMA_VERSION`) and the timing-model
  version stamp;
* the run identity: benchmark, seed, run lengths, shadow sizes, the full
  machine config and its SHA-256 **fingerprint** (the same digest the
  result cache keys on, so a manifest can be matched to a cache record);
* every paper-figure counter (Tables 2/3, Figures 4/6/7/10) plus the
  derived ratios the figures plot.

The document holds no wall time or other host measurement, so it is a
function of the run alone.  Exports are written with sorted keys and a
trailing newline so identical runs produce **byte-identical** files —
the CI determinism job diffs the serial and parallel exports directly,
and ``tests/obs/test_export.py`` rebuilds the committed
``results/ci_baseline/`` tree and compares bytes.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from repro.analysis.cache import config_identity, fingerprint, serialize_result
from repro.analysis.parallel import Job
from repro.pipeline.processor import TIMING_MODEL_VERSION, SimulationResult

#: Bump whenever the export document gains/loses/renames fields.
STATS_SCHEMA_VERSION = 1

#: Derived ratios re-computed at export time (the figures' y-axes).
_DERIVED_PROPERTIES = (
    "ipc",
    "frac_two_pending",
    "frac_simultaneous",
    "frac_two_rf_reads",
    "predictor_accuracy",
    "branch_mispredict_rate",
)


def build_stats_export(result: SimulationResult, job: Job) -> dict:
    """Flatten one run, keyed by its *job*, to the schema-versioned export."""
    stats = result.stats
    return {
        "schema_version": STATS_SCHEMA_VERSION,
        "timing_model_version": TIMING_MODEL_VERSION,
        "fingerprint": fingerprint(job),
        "run": {
            "benchmark": job.benchmark,
            "seed": job.seed,
            "insts": job.insts,
            "warmup": job.warmup,
            "shadow_sizes": list(job.shadow_sizes) if job.shadow_sizes else None,
            "workload": result.workload_name,
            "config_name": result.config_name,
        },
        # A copy: the memoized identity is shared with every fingerprint.
        "config": copy.deepcopy(config_identity(job.config)),
        "result": serialize_result(result),
        "derived": {
            name: getattr(stats, name) for name in _DERIVED_PROPERTIES
        },
        "order_derived": {
            "frac_same": stats.order.frac_same,
            "frac_last_left": stats.order.frac_last_left,
        },
    }


def stats_filename(benchmark: str, config_name: str, seed: int) -> str:
    """Deterministic export filename for one run."""
    safe_config = config_name.replace("/", "_").replace(" ", "_")
    return f"{benchmark}__{safe_config}__s{seed}.stats.json"


def write_stats_json(document: dict, directory: Path | str) -> Path:
    """Write one export under *directory*; returns the file path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    run = document["run"]
    path = directory / stats_filename(
        run["benchmark"], run["config_name"], run["seed"]
    )
    payload = json.dumps(document, sort_keys=True, indent=1) + "\n"
    path.write_text(payload, encoding="utf-8")
    return path
