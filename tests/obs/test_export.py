"""Tests for the versioned stats export (run manifests)."""

import json
from pathlib import Path

import pytest

from repro.analysis.cache import fingerprint
from repro.analysis.parallel import Job
from repro.analysis.runner import ExperimentRunner
from repro.errors import SimulationError
from repro.fastsim import BACKENDS, native_available
from repro.obs.export import (
    STATS_SCHEMA_VERSION,
    build_stats_export,
    load_stats_json,
    stats_filename,
    write_stats_json,
)
from repro.pipeline.config import EIGHT_WIDE, FOUR_WIDE
from repro.pipeline.processor import TIMING_MODEL_VERSION, Processor
from repro.pipeline.stats import STAT_COUNTER_FIELDS
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

JOB = Job("gzip", FOUR_WIDE, 9, 400, 200)

BASELINE = Path(__file__).resolve().parents[2] / "results" / "ci_baseline"


@pytest.fixture(scope="module")
def document():
    workload = SyntheticWorkload(get_profile(JOB.benchmark), seed=JOB.seed)
    result = Processor(workload, FOUR_WIDE).run(max_insts=JOB.insts, warmup=JOB.warmup)
    return build_stats_export(result, JOB)


class TestSchema:
    def test_versioned(self, document):
        assert document["schema_version"] == STATS_SCHEMA_VERSION
        assert document["timing_model_version"] == TIMING_MODEL_VERSION

    def test_fingerprint_matches_result_cache(self, document):
        assert document["fingerprint"] == fingerprint(JOB)

    def test_run_identity(self, document):
        assert document["run"] == {
            "benchmark": "gzip", "seed": 9, "insts": 400, "warmup": 200,
            "shadow_sizes": None, "workload": "gzip", "config_name": "4-wide",
        }

    def test_every_paper_counter_present(self, document):
        """Table 2/3 and Figure 4/6/7/10 counters all land in the export."""
        counters = document["result"]["counters"]
        for name in STAT_COUNTER_FIELDS:
            assert name in counters, name
        # Figure 4 / Figure 6 distributions.
        assert "ready_at_insert" in document["result"]
        assert "wakeup_slack" in document["result"]
        # Table 3 order stability.
        assert set(document["result"]["order"]) == {
            "same_order", "diff_order", "last_left", "last_right", "simultaneous",
        }
        # Figure-level derived ratios.
        assert set(document["derived"]) == {
            "ipc", "frac_two_pending", "frac_simultaneous", "frac_two_rf_reads",
            "predictor_accuracy", "branch_mispredict_rate",
        }
        assert set(document["order_derived"]) == {"frac_same", "frac_last_left"}

    def test_config_is_fully_expanded(self, document):
        assert document["config"]["width"] == 4
        assert document["config"]["scheduler"] == "base"
        assert document["config"]["mem"]["dl1"]["size_bytes"] == 64 * 1024


class TestRoundTrip:
    def test_write_load_identity(self, document, tmp_path):
        path = write_stats_json(document, tmp_path)
        assert path.name == stats_filename("gzip", "4-wide", 9)
        assert load_stats_json(path) == document

    def test_rewrite_is_byte_identical(self, document, tmp_path):
        first = write_stats_json(document, tmp_path / "a").read_bytes()
        second = write_stats_json(document, tmp_path / "b").read_bytes()
        assert first == second

    def test_load_rejects_wrong_schema_version(self, document, tmp_path):
        path = write_stats_json(document, tmp_path)
        tampered = json.loads(path.read_text())
        tampered["schema_version"] = STATS_SCHEMA_VERSION + 1
        path.write_text(json.dumps(tampered))
        with pytest.raises(SimulationError, match="schema version"):
            load_stats_json(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.stats.json"
        path.write_text("{ truncated")
        with pytest.raises(SimulationError, match="unreadable"):
            load_stats_json(path)
        with pytest.raises(SimulationError):
            load_stats_json(tmp_path / "missing.stats.json")


@pytest.mark.parametrize("backend", BACKENDS)
def test_committed_baseline_is_reproduced(backend, monkeypatch, tmp_path):
    """Every committed export is rebuilt byte for byte from its own run fields.

    A timing-model change must bump the model version and regenerate the
    baseline (scripts/make_ci_baseline.sh); any other drift fails here.
    """
    names = {
        name: sorted(path.name for path in (BASELINE / name).glob("*.stats.json"))
        for name in BACKENDS
    }
    assert names[backend], f"no committed baseline under {BASELINE / backend}"
    assert all(files == names[backend] for files in names.values()), names
    if backend == "native" and not native_available():
        pytest.skip("native backend needs the compiled extension (pip install -e .[native])")
    monkeypatch.setenv("REPRO_BACKEND", backend)
    configs = {config.name: config for config in (FOUR_WIDE, EIGHT_WIDE)}
    for name in names[backend]:
        committed = BASELINE / backend / name
        run = load_stats_json(committed)["run"]
        runner = ExperimentRunner(
            insts=run["insts"],
            warmup=run["warmup"],
            seed=run["seed"],
            benchmarks=(run["benchmark"],),
            jobs=1,
            cache=False,
        )
        rebuilt = runner.export_run(
            run["benchmark"], configs[run["config_name"]], tmp_path
        )
        assert rebuilt.read_bytes() == committed.read_bytes(), (
            f"{backend}/{name} differs from its rebuild; after a deliberate "
            "model change, regenerate with scripts/make_ci_baseline.sh"
        )
