"""Unit tests for the statistics recorder."""

import pytest

from repro.core.last_arrival import OperandSide
from repro.pipeline.config import FOUR_WIDE
from repro.pipeline.processor import Processor
from repro.pipeline.stats import SimStats, WakeupOrderStats
from tests.util import ScriptedFeed, op


def run(ops):
    processor = Processor(ScriptedFeed(ops), FOUR_WIDE)
    processor.run(max_insts=len(ops), warmup=0)
    return processor


class TestWakeupOrderStats:
    def test_first_occurrence_sets_history_only(self):
        order = WakeupOrderStats()
        order.observe(10, OperandSide.LEFT)
        assert order.same_order == 0 and order.diff_order == 0
        assert order.last_left == 1

    def test_same_and_diff_tracking(self):
        order = WakeupOrderStats()
        order.observe(10, OperandSide.LEFT)
        order.observe(10, OperandSide.LEFT)
        order.observe(10, OperandSide.RIGHT)
        assert order.same_order == 1 and order.diff_order == 1
        assert order.frac_same == pytest.approx(0.5)

    def test_simultaneous_separate(self):
        order = WakeupOrderStats()
        order.observe(10, None)
        assert order.simultaneous == 1
        assert order.last_left == 0 and order.last_right == 0

    def test_frac_last_left(self):
        order = WakeupOrderStats()
        order.observe(1, OperandSide.LEFT)
        order.observe(2, OperandSide.RIGHT)
        order.observe(3, OperandSide.RIGHT)
        assert order.frac_last_left == pytest.approx(1 / 3)

    def test_empty_fractions(self):
        order = WakeupOrderStats()
        assert order.frac_same == 0.0
        assert order.frac_last_left == 0.0

    def test_reset_keeps_history(self):
        order = WakeupOrderStats()
        order.observe(10, OperandSide.LEFT)
        order.reset()
        assert order.last_left == 0
        order.observe(10, OperandSide.LEFT)
        assert order.same_order == 1  # history survived the reset


class TestSimStats:
    def test_ipc(self):
        stats = SimStats()
        stats.cycles, stats.committed = 100, 150
        assert stats.ipc == pytest.approx(1.5)
        assert SimStats().ipc == 0.0

    def test_record_dispatch(self):
        """Dispatch counts every op, two-source ones by ready operands."""
        ops = [
            op(0, "DIV", dest=1, srcs=(20,)),
            op(1, "DIV", dest=2, srcs=(21,)),
            op(2, dest=3, srcs=(1, 2)),    # two-source, neither ready
            op(3, dest=4, srcs=(20, 21)),  # two-source, both ready
            op(4, "NOP2"),
        ]
        stats = run(ops).stats
        assert stats.dispatched == 5
        assert stats.two_source_dispatched == 2
        assert stats.ready_at_insert == {0: 1, 2: 1}
        assert stats.frac_two_pending == pytest.approx(0.5)

    def test_record_wakeup_pair_slack_capped(self):
        stats = SimStats()
        stats.record_wakeup_pair(1, 50, OperandSide.LEFT)
        assert stats.wakeup_slack[8] == 1  # capped histogram bucket

    def test_frac_simultaneous(self):
        stats = SimStats()
        stats.record_wakeup_pair(1, 0, None)
        stats.record_wakeup_pair(1, 3, OperandSide.RIGHT)
        assert stats.frac_simultaneous == pytest.approx(0.5)

    def test_rf_categories(self):
        """Commit counts each two-source instruction in its Figure 10
        category: eight consumers of one broadcast fill two issue cycles."""
        ops = (
            [op(0, "DIV", dest=1, srcs=(20,))]
            + [op(i, dest=1 + i, srcs=(1, 20)) for i in range(1, 9)]
            + [op(9, dest=10, srcs=(20, 21))]
        )
        stats = run(ops).stats
        assert stats.rf_two_ready == 1
        assert stats.rf_back_to_back == 4
        assert stats.rf_non_back_to_back == 4
        assert stats.frac_two_rf_reads == pytest.approx(0.5)

    def test_predictor_accuracy(self):
        stats = SimStats()
        stats.last_arrival_predictions = 10
        stats.last_arrival_mispredictions = 2
        assert stats.predictor_accuracy == pytest.approx(0.8)
        assert SimStats().predictor_accuracy == 0.0

    def test_reset_window_clears_counters(self):
        stats = SimStats()
        stats.cycles = 5
        stats.committed = 9
        stats.ready_at_insert[1] = 4
        stats.sequential_rf_accesses = 3
        stats.rename_port_stalls = 2
        stats.reset_window()
        assert stats.cycles == 0 and stats.committed == 0
        assert not stats.ready_at_insert
        assert stats.sequential_rf_accesses == 0
        assert stats.rename_port_stalls == 0

    def test_branch_rate(self):
        stats = SimStats()
        stats.branches, stats.branch_mispredicts = 20, 2
        assert stats.branch_mispredict_rate == pytest.approx(0.1)
