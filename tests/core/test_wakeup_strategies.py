"""Unit tests for the wakeup strategy classes (base / sequential / tag-elim)."""

import pytest

from repro.core.iq import IQEntry, Operand
from repro.core.last_arrival import LastArrivalPredictor, OperandSide, StaticLastArrival
from repro.core.scoreboard import Scoreboard
from repro.core.wakeup import (
    BaseWakeup,
    SequentialWakeup,
    TagElimination,
    make_wakeup_logic,
)
from repro.errors import ConfigurationError
from repro.isa.opcodes import OpClass
from repro.pipeline.config import FOUR_WIDE, SchedulerModel
from repro.workloads.trace import DynOp


def two_source_entry(pc=100):
    op = DynOp(0, pc, "ADD", OpClass.INT_ALU, dest=1, sched_deps=(2, 3))
    operands = [Operand(50, OperandSide.LEFT), Operand(51, OperandSide.RIGHT)]
    return IQEntry(op, 0, operands, insert_cycle=0)


def one_source_entry():
    op = DynOp(0, 0, "ADD", OpClass.INT_ALU, dest=1, sched_deps=(2,))
    return IQEntry(op, 0, [Operand(50, OperandSide.LEFT)], insert_cycle=0)


class TestFactory:
    def test_base(self):
        logic = make_wakeup_logic(FOUR_WIDE)
        assert type(logic) is BaseWakeup

    def test_seq_wakeup(self):
        config = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)
        assert isinstance(make_wakeup_logic(config), SequentialWakeup)

    def test_tag_elim(self):
        config = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.TAG_ELIM)
        assert isinstance(make_wakeup_logic(config), TagElimination)

    def test_no_predictor_gives_static_policy(self):
        config = FOUR_WIDE.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=None
        )
        logic = make_wakeup_logic(config)
        assert isinstance(logic.predictor, StaticLastArrival)

    def test_seq_wakeup_requires_policy(self):
        with pytest.raises(ConfigurationError):
            SequentialWakeup(None)
        with pytest.raises(ConfigurationError):
            TagElimination(None)


class TestBaseWakeup:
    def test_zero_delay_everywhere(self):
        logic = BaseWakeup(StaticLastArrival())
        entry = two_source_entry()
        assert logic.delivery_delay(entry, entry.operands[0]) == 0
        assert logic.delivery_delay(entry, entry.operands[1]) == 0

    def test_ready_requires_all_operands(self):
        logic = BaseWakeup()
        entry = two_source_entry()
        assert not logic.entry_ready(entry)
        entry.operands[0].wake(1)
        assert not logic.entry_ready(entry)
        entry.operands[1].wake(2)
        assert logic.entry_ready(entry)

    def test_verify_always_true(self):
        logic = BaseWakeup()
        assert logic.verify_at_issue(two_source_entry(), Scoreboard(), 0)


class TestSequentialWakeupStrategy:
    def test_fast_side_follows_prediction(self):
        predictor = LastArrivalPredictor(128)
        for _ in range(4):
            predictor.update(100, OperandSide.LEFT)
        logic = SequentialWakeup(predictor)
        entry = two_source_entry(pc=100)
        logic.assign_sides(entry)
        assert entry.fast_side is OperandSide.LEFT

    def test_slow_side_delay(self):
        logic = SequentialWakeup(StaticLastArrival())
        entry = two_source_entry()
        logic.assign_sides(entry)  # fast = RIGHT
        assert logic.delivery_delay(entry, entry.operands[1]) == 0
        assert logic.delivery_delay(entry, entry.operands[0]) == 1

    def test_single_operand_on_fast_bus(self):
        logic = SequentialWakeup(StaticLastArrival())
        entry = one_source_entry()
        logic.assign_sides(entry)
        assert logic.delivery_delay(entry, entry.operands[0]) == 0

    def test_never_issues_early(self):
        """Readiness still requires every operand: non-speculative."""
        logic = SequentialWakeup(StaticLastArrival())
        entry = two_source_entry()
        logic.assign_sides(entry)
        entry.operands[1].wake(1)  # fast side woke
        assert not logic.entry_ready(entry)

    def test_train_updates_predictor(self):
        predictor = LastArrivalPredictor(128)
        logic = SequentialWakeup(predictor)
        entry = two_source_entry(pc=100)
        for _ in range(4):
            logic.train(entry, OperandSide.LEFT)
        assert predictor.predict(100) is OperandSide.LEFT

    def test_train_skips_simultaneous(self):
        predictor = LastArrivalPredictor(128)
        logic = SequentialWakeup(predictor)
        before = predictor.predict(100)
        logic.train(two_source_entry(pc=100), None)
        assert predictor.predict(100) is before


class TestTagEliminationStrategy:
    def test_ready_on_connected_operand_alone(self):
        logic = TagElimination(StaticLastArrival())
        entry = two_source_entry()
        logic.assign_sides(entry)  # connected = RIGHT
        entry.operands[1].wake(1)
        assert logic.entry_ready(entry)  # speculating on the left operand

    def test_not_ready_before_connected(self):
        logic = TagElimination(StaticLastArrival())
        entry = two_source_entry()
        logic.assign_sides(entry)
        entry.operands[0].wake(1)  # only the eliminated side
        assert not logic.entry_ready(entry)

    def test_verify_detects_missing_operand(self):
        logic = TagElimination(StaticLastArrival())
        entry = two_source_entry()
        logic.assign_sides(entry)
        entry.operands[1].wake(1)
        assert not logic.verify_at_issue(entry, Scoreboard(), 1)

    def test_verify_passes_when_both_ready(self):
        logic = TagElimination(StaticLastArrival())
        entry = two_source_entry()
        logic.assign_sides(entry)
        board = Scoreboard()
        producer = one_source_entry()
        producer.valid = True  # tag 50 has broadcast
        board.entries[50] = producer
        entry.operands[0].wake(0)
        entry.operands[1].wake(1)
        assert logic.verify_at_issue(entry, board, 1)

    def test_full_readiness_after_replay(self):
        logic = TagElimination(StaticLastArrival())
        entry = two_source_entry()
        logic.assign_sides(entry)
        entry.replays = 1
        entry.operands[1].wake(1)
        assert not logic.entry_ready(entry)  # scoreboard path: needs both
        entry.operands[0].wake(2)
        assert logic.entry_ready(entry)

    def test_single_source_is_safe(self):
        logic = TagElimination(StaticLastArrival())
        entry = one_source_entry()
        logic.assign_sides(entry)
        assert logic.verify_at_issue(entry, Scoreboard(), 0)
