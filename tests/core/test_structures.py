"""Unit tests for issue-queue entries, the scoreboard, and select logic."""

from operator import attrgetter

from repro.core.iq import EntryState, IQEntry, Operand
from repro.core.last_arrival import OperandSide
from repro.core.scoreboard import Scoreboard
from repro.core.select import Selector
from repro.isa.opcodes import OpClass
from repro.workloads.trace import DynOp


def dynop(seq=0, opcode="ADD", op_class=OpClass.INT_ALU, deps=(2, 3), dest=1):
    return DynOp(seq, seq, opcode, op_class, dest=dest, sched_deps=tuple(deps))


def entry_with(deps=(2, 3), ready=(), insert=5, seq=0, opcode="ADD",
               op_class=OpClass.INT_ALU):
    operands = []
    for index, dep in enumerate(deps):
        side = OperandSide.LEFT if index == 0 else OperandSide.RIGHT
        operand = Operand(None if index in ready else 100 + dep, side)
        operands.append(operand)
    return IQEntry(dynop(seq, opcode, op_class, deps), seq, operands, insert)


class TestOperand:
    def test_pending_until_woken(self):
        operand = Operand(7, OperandSide.LEFT)
        assert not operand.ready
        operand.wake(10)
        assert operand.ready and operand.ready_cycle == 10

    def test_now_bit_only_in_wake_cycle(self):
        operand = Operand(7, OperandSide.LEFT)
        operand.wake(10)
        assert operand.woke_now(10)
        assert not operand.woke_now(11)

    def test_insert_ready_has_no_now_bit(self):
        operand = Operand(None, OperandSide.LEFT)
        assert operand.ready
        assert not operand.woke_now(0)

    def test_unwake_preserves_first_wake_stat(self):
        operand = Operand(7, OperandSide.LEFT)
        operand.wake(10)
        operand.unwake()
        assert not operand.ready
        assert operand.first_wake_cycle == 10
        operand.wake(20)
        assert operand.first_wake_cycle == 10


class TestIQEntry:
    def test_ready_counting(self):
        entry = entry_with(deps=(2, 3), ready=(0,))
        assert entry.stat_ready_at_insert == 1
        assert not entry.is_two_pending

    def test_two_pending(self):
        entry = entry_with(deps=(2, 3))
        assert entry.is_two_pending

    def test_operand_on_side(self):
        entry = entry_with(deps=(2, 3))
        assert entry.operand_on(OperandSide.LEFT) is entry.operands[0]
        assert entry.operand_on(OperandSide.RIGHT) is entry.operands[1]

    def test_all_ready(self):
        entry = entry_with(deps=(2, 3))
        assert not entry.all_register_operands_ready()
        for operand in entry.operands:
            operand.wake(1)
        assert entry.all_register_operands_ready()

    def test_reset_for_replay_clears_invalid_operands(self):
        entry = entry_with(deps=(2, 3))
        entry.operands[0].wake(1)
        entry.operands[1].wake(2)
        entry.state = EntryState.ISSUED
        entry.reset_for_replay(lambda tag: tag != 102)  # producer of dep 2 invalid
        assert entry.state is EntryState.WAITING
        assert not entry.operands[0].ready
        assert entry.operands[1].ready
        assert entry.replays == 1

    def test_eligible_cycle_defaults_to_insert_plus_one(self):
        assert entry_with(insert=9).eligible_cycle == 10


class TestScoreboard:
    """The scoreboard maps a tag to its producing entry, which carries the
    tag's broadcast state and consumers; the processor writes both."""

    @staticmethod
    def producing(board, tag):
        producer = entry_with(deps=(), seq=tag)
        board.entries[tag] = producer
        return producer

    def test_absent_tags_are_valid(self):
        board = Scoreboard()
        assert board.is_valid(12345)

    def test_broadcast_lifecycle(self):
        board = Scoreboard()
        producer = self.producing(board, 1)
        assert not board.is_valid(1)
        producer.valid = True  # the broadcast
        assert board.is_valid(1)

    def test_invalidate_returns_consumers(self):
        board = Scoreboard()
        producer = self.producing(board, 1)
        entry = entry_with(deps=(2,))
        producer.consumers.append((entry, 0))
        producer.valid = True
        consumers = board.invalidate(1)
        assert consumers == [(entry, 0)]
        assert not board.is_valid(1)

    def test_rebroadcast_after_invalidate(self):
        board = Scoreboard()
        producer = self.producing(board, 1)
        producer.valid = True
        board.invalidate(1)
        producer.valid = True
        assert board.is_valid(1)

    def test_consumers_survive_invalidation(self):
        board = Scoreboard()
        producer = self.producing(board, 1)
        entry = entry_with(deps=(2,))
        producer.consumers.append((entry, 0))
        board.invalidate(1)
        assert board.invalidate(1) == [(entry, 0)]

    def test_free(self):
        board = Scoreboard()
        self.producing(board, 1)
        del board.entries[1]  # the commit
        assert board.is_valid(1)

    def test_invalidate_missing_tag_is_noop(self):
        board = Scoreboard()
        assert board.invalidate(42) == []


#: the sort key the processor's select phase orders ready entries by
SELECT_KEY = attrgetter("select_key")


class TestSelectPriority:
    def test_loads_and_branches_outrank_alu(self):
        load = entry_with(deps=(), seq=10, opcode="LDQ", op_class=OpClass.LOAD)
        branch = entry_with(deps=(), seq=11, opcode="BEQ", op_class=OpClass.BRANCH)
        alu = entry_with(deps=(), seq=1, opcode="ADD", op_class=OpClass.INT_ALU)
        ordered = sorted([alu, branch, load], key=SELECT_KEY)
        assert ordered[0] is load and ordered[1] is branch and ordered[2] is alu

    def test_age_breaks_ties(self):
        older = entry_with(deps=(), seq=3)
        younger = entry_with(deps=(), seq=9)
        assert sorted([younger, older], key=SELECT_KEY)[0] is older

    def test_priority_key_shape(self):
        load = entry_with(deps=(), seq=5, opcode="LDQ", op_class=OpClass.LOAD)
        assert SELECT_KEY(load) == (0, 5)


class TestSelectorSlots:
    def test_slot_budget(self):
        selector = Selector(2)
        selector.begin_cycle()
        assert selector.take_slot() == 0
        assert selector.take_slot() == 1
        assert selector.take_slot() == -1

    def test_bubble_disables_slot_next_cycle(self):
        selector = Selector(2)
        selector.begin_cycle()
        selector.take_slot(bubble_next=True)
        selector.begin_cycle()
        assert selector.available_slots == 1
        selector.begin_cycle()
        assert selector.available_slots == 2

    def test_two_bubbles(self):
        selector = Selector(4)
        selector.begin_cycle()
        selector.take_slot(bubble_next=True)
        selector.take_slot(bubble_next=True)
        selector.begin_cycle()
        assert selector.available_slots == 2
