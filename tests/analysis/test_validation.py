"""Tests for the validation scorecard and cost summary."""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import ALL_EXPERIMENTS, cost_summary
from repro.analysis.report import ExperimentResult
from repro.analysis.runner import ExperimentRunner
from repro.analysis.validation import ALL_CHECKS, scorecard
from repro.pipeline.stats import SimStats


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(insts=1000, warmup=1500, benchmarks=("gzip",), num_seeds=1)


class TestScorecard:
    def test_every_check_produces_a_row(self, runner):
        result = scorecard(runner)
        assert len(result.rows) == len(ALL_CHECKS)
        for row in result.rows:
            assert row[1] in ("PASS", "FAIL")
            assert row[2]  # detail string populated

    def test_timing_check_passes(self, runner):
        result = scorecard(runner)
        assert result.row_for("timing-anchors")[1] == "PASS"

    def test_subset_without_mcf_skips_ordering(self, runner):
        result = scorecard(runner)
        row = result.row_for("table2-mcf-slowest")
        assert row[1] == "PASS" and "skipped" in row[2]

    def test_check_names_unique(self):
        names = [check.name for check in ALL_CHECKS]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize(
        "exp_id", [name for name in ALL_EXPERIMENTS if not name.endswith("-8w")]
    )
    def test_every_experiment_has_a_check(self, exp_id):
        assert any(
            check.name.startswith(exp_id + "-") for check in ALL_CHECKS
        ), f"no check reads {exp_id!r}"


def _failing(runner, prefix):
    """Names of the checks starting with *prefix* that FAIL on *runner*."""
    return [
        check.name
        for check in ALL_CHECKS
        if check.name.startswith(prefix) and not check.predicate(runner)[0]
    ]


class TestChecksCatchRegressions:
    def test_fig14_8w_seq_wakeup_below_bound_fails(self, runner, monkeypatch):
        def fake_fig14(runner, width=4):
            seq = 0.99 if width == 4 else 0.94
            result = ExperimentResult(
                "Figure 14", "fake", ["benchmark", "seq wakeup", "tag elim", "seq wakeup nopred"]
            )
            result.rows = [[name, seq, seq - 0.02, seq - 0.01] for name in ("gzip", "average")]
            return result

        monkeypatch.setattr(experiments, "fig14", fake_fig14)
        assert _failing(runner, "fig14") == ["fig14-seq-wakeup"]

    def test_fig3_row_without_demotions_fails(self, runner, monkeypatch):
        def fake_fig3(runner):
            result = ExperimentResult(
                "Figure 3", "fake", ["benchmark", "%2-source", "%demoted(zero/dup)", "%nops"]
            )
            result.rows = [["gzip", 12.0, 10.0, 2.0], ["mcf", 12.0, 0.0, 2.0]]
            return result

        monkeypatch.setattr(experiments, "fig3", fake_fig3)
        assert _failing(runner, "fig3") == ["fig3-demoted"]

    def test_fig6_simultaneous_share_of_all_insts_above_bound_fails(
        self, runner, monkeypatch
    ):
        # 20% of 2-pending passes the 2-pending bound; 4% of all does not.
        stats = SimStats(
            committed=1000,
            two_pending_observed=200,
            wakeup_slack=Counter({0: 40, 1: 100, 2: 60}),
        )
        monkeypatch.setattr(
            runner, "base", lambda name, width=4, shadow=False: SimpleNamespace(stats=stats)
        )
        assert _failing(runner, "fig6") == ["fig6-simultaneous-rare"]


class TestCostSummary:
    def test_hardware_rows_are_savings(self, runner):
        result = cost_summary(runner)
        by_name = {row[0]: row for row in result.rows}
        assert by_name["fast-bus comparators / entry"][3] == -50.0
        assert by_name["wakeup delay, 64 entries (ps)"][3] < 0
        assert by_name["RF access time (ns)"][3] < 0
        assert by_name["RF area (rel)"][3] < -30.0

    def test_area_normalized(self, runner):
        result = cost_summary(runner)
        row = result.row_for("RF area (rel)")
        assert row[1] == 1.0 and 0.3 < row[2] < 0.7
