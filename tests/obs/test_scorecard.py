"""Tests for the regression scorecard (export -> load -> compare)."""

import json

from repro.analysis.parallel import Job
from repro.obs.export import build_stats_export, write_stats_json
from repro.obs.scorecard import (
    DEFAULT_TOLERANCES,
    compare_exports,
    compare_trees,
    render_scorecard,
)
from repro.pipeline.config import FOUR_WIDE
from repro.pipeline.processor import Processor
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

JOB = Job("gzip", FOUR_WIDE, 3, 300, 150)


def make_document():
    workload = SyntheticWorkload(get_profile(JOB.benchmark), seed=JOB.seed)
    result = Processor(workload, FOUR_WIDE).run(max_insts=JOB.insts, warmup=JOB.warmup)
    return build_stats_export(result, JOB)


def mutate(path, fn):
    document = json.loads(path.read_text())
    fn(document)
    path.write_text(json.dumps(document, sort_keys=True) + "\n")


class TestCompareExports:
    def test_identical_documents_zero_drift(self):
        document = make_document()
        card = compare_exports(document, json.loads(json.dumps(document)))
        assert card.ok and card.exit_code == 0
        assert card.failures == [] and card.problems == []
        assert card.compared_leaves > 50

    def test_ipc_drift_fails(self):
        baseline = make_document()
        current = json.loads(json.dumps(baseline))
        current["derived"]["ipc"] *= 1.02  # > 0.5% tolerance
        card = compare_exports(baseline, current)
        assert not card.ok
        assert any(d.path == "derived.ipc" for d in card.failures)

    def test_within_tolerance_passes(self):
        baseline = make_document()
        current = json.loads(json.dumps(baseline))
        current["derived"]["ipc"] *= 1.0001  # < 0.5%
        card = compare_exports(baseline, current)
        assert card.ok
        # ... but the drift is still visible in the report rows.
        assert any(d.path == "derived.ipc" and d.ok for d in card.drifts)

    def test_fingerprint_mismatch_is_a_problem(self):
        baseline = make_document()
        current = json.loads(json.dumps(baseline))
        current["fingerprint"] = "0" * 64
        card = compare_exports(baseline, current)
        assert not card.ok
        assert any("fingerprint mismatch" in p for p in card.problems)

    def test_profile_subtree_ignored(self):
        baseline = make_document()
        baseline["profile"] = {"fetch": {"seconds": 1.0, "calls": 10}}
        current = json.loads(json.dumps(baseline))
        current["profile"] = {"fetch": {"seconds": 9.0, "calls": 10}}
        card = compare_exports(baseline, current)
        assert card.ok

    def test_custom_tolerances(self):
        baseline = make_document()
        current = json.loads(json.dumps(baseline))
        current["result"]["counters"]["replayed"] = (
            baseline["result"]["counters"]["replayed"] + 10_000
        )
        loose = dict(DEFAULT_TOLERANCES)
        loose[""] = 1e9
        assert compare_exports(baseline, current, loose).ok
        assert not compare_exports(baseline, current).ok


class TestCompareTrees:
    def test_round_trip_zero_drift(self, tmp_path):
        """Export -> load -> scorecard: a re-export of the same run is clean."""
        document = make_document()
        write_stats_json(document, tmp_path / "baseline")
        write_stats_json(document, tmp_path / "current")
        card = compare_trees(tmp_path / "baseline", tmp_path / "current")
        assert card.ok and card.compared_runs == 1

    def test_injected_counter_drift_detected(self, tmp_path):
        document = make_document()
        write_stats_json(document, tmp_path / "baseline")
        path = write_stats_json(document, tmp_path / "current")

        def bump(doc):
            doc["result"]["counters"]["issued"] += max(
                10, doc["result"]["counters"]["issued"]
            )

        mutate(path, bump)
        card = compare_trees(tmp_path / "baseline", tmp_path / "current")
        assert not card.ok
        assert any("issued" in d.path for d in card.failures)
        assert "FAIL" in render_scorecard(card)

    def test_missing_and_extra_runs_are_problems(self, tmp_path):
        document = make_document()
        write_stats_json(document, tmp_path / "baseline")
        (tmp_path / "current").mkdir()
        card = compare_trees(tmp_path / "baseline", tmp_path / "current")
        assert not card.ok
        assert any("missing from current" in p for p in card.problems)
        # And the reverse direction.
        write_stats_json(document, tmp_path / "current")
        other = json.loads(json.dumps(document))
        other["run"]["benchmark"] = "gcc"
        write_stats_json(other, tmp_path / "current")
        card = compare_trees(tmp_path / "baseline", tmp_path / "current")
        assert any("no committed baseline" in p for p in card.problems)

    def test_empty_baseline_dir_is_a_problem(self, tmp_path):
        (tmp_path / "baseline").mkdir()
        (tmp_path / "current").mkdir()
        card = compare_trees(tmp_path / "baseline", tmp_path / "current")
        assert not card.ok
        assert any("no *.stats.json baselines" in p for p in card.problems)

    def test_unreadable_current_is_a_problem(self, tmp_path):
        document = make_document()
        write_stats_json(document, tmp_path / "baseline")
        path = write_stats_json(document, tmp_path / "current")
        path.write_text("{ nope")
        card = compare_trees(tmp_path / "baseline", tmp_path / "current")
        assert not card.ok

    def test_render_mentions_pass(self, tmp_path):
        document = make_document()
        write_stats_json(document, tmp_path / "baseline")
        write_stats_json(document, tmp_path / "current")
        card = compare_trees(tmp_path / "baseline", tmp_path / "current")
        assert "PASS" in render_scorecard(card)
