"""Tests for the experiment runner, report rendering, and experiment defs."""

import pytest

from repro.analysis.report import ExperimentResult, render, render_bars
from repro.analysis.runner import ExperimentRunner
from repro.pipeline.config import FOUR_WIDE, SchedulerModel


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(insts=800, warmup=1200, benchmarks=("gzip", "mcf"))


class TestRunner:
    def test_memoization(self, runner):
        first = runner.base("gzip", 4)
        second = runner.base("gzip", 4)
        assert first is second

    def test_widths_are_distinct(self, runner):
        assert runner.base("gzip", 4) is not runner.base("gzip", 8)

    def test_memo_distinguishes_configs_that_share_a_name(self):
        """Variant names omit predictor_entries; the memo key must not."""
        base = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)
        small = base.with_techniques(predictor_entries=16)
        large = base.with_techniques(predictor_entries=4096)
        assert small.name == large.name
        runner = ExperimentRunner(insts=3000, warmup=1000, cache=False)
        first = runner.result("gcc", small)
        second = runner.result("gcc", large)
        fresh = ExperimentRunner(insts=3000, warmup=1000, cache=False)
        assert second is not first
        assert second.ipc == fresh.result("gcc", large).ipc
        assert second.ipc != first.ipc

    def test_normalized_ipc_near_one_for_base_variant(self, runner):
        config = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)
        value = runner.normalized_ipc("gzip", config)
        assert 0.7 < value < 1.2

    def test_workload_shared(self, runner):
        assert runner.workload("mcf") is runner.workload("mcf")

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTS", "123")
        monkeypatch.setenv("REPRO_BENCHMARKS", "bzip,mcf")
        fresh = ExperimentRunner()
        assert fresh.insts == 123
        assert fresh.benchmarks == ("bzip", "mcf")

    def test_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTS", "not-a-number")
        assert ExperimentRunner().insts == 15_000


class TestReport:
    def result(self):
        return ExperimentResult(
            "Table X", "demo", ["name", "value"],
            rows=[["a", 1.5], ["b", 2.0]],
            notes=["a note"],
        )

    def test_render_contains_everything(self):
        text = render(self.result())
        assert "Table X" in text and "demo" in text
        assert "1.500" in text and "a note" in text

    def test_column_accessor(self):
        assert self.result().column("value") == [1.5, 2.0]

    def test_row_for(self):
        assert self.result().row_for("b") == ["b", 2.0]
        with pytest.raises(KeyError):
            self.result().row_for("zzz")

    def test_render_bars(self):
        text = render_bars("title", {"x": 1.0, "y": 0.5})
        assert "title" in text and "#" in text
        assert text.index("x") < text.index("y")

    def test_render_bars_empty(self):
        assert render_bars("t", {}) == "t"


class TestExperimentDefinitions:
    def test_all_registered(self):
        from repro.analysis.experiments import ALL_EXPERIMENTS

        expected = {
            "table1", "table2", "fig2", "fig3", "fig4", "fig6", "table3",
            "fig7", "fig10", "fig14", "fig15", "fig16", "timing", "cost",
            "predictors",
        }
        assert expected == set(ALL_EXPERIMENTS)

    def test_table2_structure(self, runner):
        from repro.analysis.experiments import table2

        result = table2(runner)
        assert [row[0] for row in result.rows] == ["gzip", "mcf"]
        for row in result.rows:
            assert row[2] > 0 and row[4] > 0

    def test_fig2_and_fig3_read_each_program_once(self, monkeypatch):
        """Both figures read one StreamStats per benchmark, not one each."""
        from repro.analysis.experiments import fig2, fig3
        from repro.workloads.feed import StreamStats

        calls = []
        from_stream = StreamStats.from_stream.__func__

        def counting(cls, stream, limit=None):
            calls.append(limit)
            return from_stream(cls, stream, limit=limit)

        monkeypatch.setattr(StreamStats, "from_stream", classmethod(counting))
        runner = ExperimentRunner(benchmarks=("gzip", "mcf"), cache=False)
        rows = fig2(runner).rows + fig3(runner).rows
        assert len(calls) == 2
        assert [row[0] for row in rows] == ["gzip", "mcf"] * 2

    def test_fig14_has_average_row(self, runner):
        from repro.analysis.experiments import fig14

        result = fig14(runner, width=4)
        assert result.rows[-1][0] == "average"
        assert 0.5 < result.rows[-1][1] < 1.2

    def test_fig7_uses_shadow_bank(self, runner):
        from repro.analysis.experiments import fig7

        result = fig7(runner)
        assert len(result.rows) == 2
        for row in result.rows:
            for accuracy in row[1:5]:
                assert 0.0 <= accuracy <= 100.0

    def test_timing_claims_match(self, runner):
        from repro.analysis.experiments import timing_claims

        result = timing_claims(runner)
        for _, measured, paper in result.rows:
            assert measured == pytest.approx(paper, rel=0.01)
