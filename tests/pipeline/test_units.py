"""Unit tests for functional units, ROB, LSQ and the register-port policy."""

import pytest

from repro.core.iq import EntryState, IQEntry, Operand
from repro.core.last_arrival import OperandSide
from repro.isa.opcodes import OpClass
from repro.pipeline.config import FOUR_WIDE, Latencies, RegFileModel, SchedulerModel
from repro.pipeline.fu import FunctionalUnits
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.regfile import RegisterFilePolicy
from repro.pipeline.rob import ReorderBuffer
from repro.workloads.trace import DynOp


def entry(seq=0, opcode="ADD", op_class=OpClass.INT_ALU, deps=(), mem_addr=None,
          is_store=False):
    op = DynOp(
        seq, seq, opcode, op_class, dest=1,
        sched_deps=tuple(deps), mem_addr=mem_addr,
    )
    operands = [
        Operand(100 + d, OperandSide.LEFT if i == 0 else OperandSide.RIGHT)
        for i, d in enumerate(deps)
    ]
    return IQEntry(op, seq, operands, insert_cycle=0)


class TestFunctionalUnits:
    def setup_method(self):
        self.fu = FunctionalUnits(FOUR_WIDE.fu, Latencies())

    def test_per_cycle_bandwidth(self):
        self.fu.begin_cycle(1)
        for _ in range(4):
            assert self.fu.can_issue(OpClass.INT_ALU, 1)
            self.fu.issue(OpClass.INT_ALU, 1)
        assert not self.fu.can_issue(OpClass.INT_ALU, 1)

    def test_bandwidth_resets_each_cycle(self):
        self.fu.begin_cycle(1)
        for _ in range(4):
            self.fu.issue(OpClass.INT_ALU, 1)
        self.fu.begin_cycle(2)
        assert self.fu.can_issue(OpClass.INT_ALU, 2)

    def test_branches_share_int_alus(self):
        self.fu.begin_cycle(1)
        for _ in range(4):
            self.fu.issue(OpClass.BRANCH, 1)
        assert not self.fu.can_issue(OpClass.INT_ALU, 1)

    def test_mem_ports(self):
        self.fu.begin_cycle(1)
        self.fu.issue(OpClass.LOAD, 1)
        self.fu.issue(OpClass.STORE, 1)
        assert not self.fu.can_issue(OpClass.LOAD, 1)

    def test_divider_not_pipelined(self):
        self.fu.begin_cycle(1)
        self.fu.issue(OpClass.INT_DIV, 1)
        self.fu.issue(OpClass.INT_DIV, 1)   # second divider
        self.fu.begin_cycle(2)
        assert not self.fu.can_issue(OpClass.INT_DIV, 2)  # both busy
        self.fu.begin_cycle(22)             # after 20-cycle divide latency
        assert self.fu.can_issue(OpClass.INT_DIV, 22)

    def test_multiplier_is_pipelined(self):
        self.fu.begin_cycle(1)
        self.fu.issue(OpClass.INT_MULT, 1)
        self.fu.issue(OpClass.INT_MULT, 1)
        self.fu.begin_cycle(2)
        assert self.fu.can_issue(OpClass.INT_MULT, 2)

    def test_div_blocks_mult_pool(self):
        self.fu.begin_cycle(1)
        self.fu.issue(OpClass.INT_DIV, 1)
        self.fu.issue(OpClass.INT_DIV, 1)
        self.fu.begin_cycle(2)
        assert not self.fu.can_issue(OpClass.INT_MULT, 2)

    def test_pool_size(self):
        for op_class, size in ((OpClass.INT_ALU, 4), (OpClass.LOAD, 2)):
            self.fu.begin_cycle(1)
            for _ in range(size):
                assert self.fu.can_issue(op_class, 1)
                self.fu.issue(op_class, 1)
            assert not self.fu.can_issue(op_class, 1)


class TestReorderBuffer:
    def test_fifo_commit(self):
        rob = ReorderBuffer(4)
        first, second = entry(0), entry(1)
        rob.push(first)
        rob.push(second)
        assert rob.head() is first
        first.state = EntryState.COMPLETED
        assert rob.committable()
        assert rob.commit_head() is first
        assert not rob.committable()  # second not done

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.push(entry(0))
        rob.push(entry(1))
        assert rob.full
        with pytest.raises(OverflowError):
            rob.push(entry(2))

    def test_empty(self):
        rob = ReorderBuffer(2)
        assert rob.empty and rob.head() is None
        assert not rob.committable()

    def test_iteration_in_order(self):
        rob = ReorderBuffer(4)
        for seq in range(3):
            rob.push(entry(seq))
        assert [e.tag for e in rob] == [0, 1, 2]


class TestLoadStoreQueue:
    def make_store(self, seq, addr):
        store = entry(seq, "STQ", OpClass.STORE, mem_addr=addr)
        return store

    def make_load(self, seq, addr):
        return entry(seq, "LDQ", OpClass.LOAD, mem_addr=addr)

    def test_capacity(self):
        lsq = LoadStoreQueue(1)
        lsq.insert(self.make_load(0, 0x10))
        assert lsq.full
        with pytest.raises(OverflowError):
            lsq.insert(self.make_load(1, 0x20))

    def test_forwarding_matches_same_word(self):
        lsq = LoadStoreQueue(8)
        store = self.make_store(0, 0x1004)
        lsq.insert(store)
        load = self.make_load(1, 0x1000)  # same 8-byte word
        assert lsq.forwarding_store(load) is store

    def test_no_forward_from_younger_store(self):
        lsq = LoadStoreQueue(8)
        load = self.make_load(1, 0x1000)
        lsq.insert(load)
        lsq.insert(self.make_store(2, 0x1000))
        assert lsq.forwarding_store(load) is None

    def test_youngest_older_store_wins(self):
        lsq = LoadStoreQueue(8)
        old = self.make_store(0, 0x1000)
        newer = self.make_store(1, 0x1000)
        lsq.insert(old)
        lsq.insert(newer)
        assert lsq.forwarding_store(self.make_load(2, 0x1000)) is newer

    def test_different_word_no_match(self):
        lsq = LoadStoreQueue(8)
        lsq.insert(self.make_store(0, 0x1000))
        assert lsq.forwarding_store(self.make_load(1, 0x1008)) is None

    def test_commit_head_pops_in_program_order(self):
        lsq = LoadStoreQueue(8)
        load = self.make_load(0, 0x10)
        store = self.make_store(1, 0x20)
        lsq.insert(load)
        lsq.insert(store)
        assert lsq.head() is load
        assert lsq.commit_head() is load
        assert lsq.head() is store
        assert lsq.commit_head() is store
        assert len(lsq) == 0 and lsq.head() is None

    def test_store_agen_done(self):
        store = self.make_store(0, 0x10)
        assert not LoadStoreQueue.store_agen_done(store)
        store.state = EntryState.ISSUED
        assert LoadStoreQueue.store_agen_done(store)


class TestRegisterFilePolicy:
    def ready_entry(self, n_ops=2):
        deps = (2, 3)[:n_ops]
        made = entry(0, deps=deps)
        for operand in made.operands:
            operand.tag = None
            operand.ready = True
            operand.ready_at_insert = True
        return made

    def woke_now_entry(self, cycle):
        made = entry(0, deps=(2, 3))
        made.operands[0].wake(cycle)
        made.operands[1].wake(cycle - 3)
        return made

    def test_base_never_sequential(self):
        policy = RegisterFilePolicy(FOUR_WIDE)
        assert not policy.decide_sequential_access(self.ready_entry(), 5)

    def test_sequential_two_ready(self):
        config = FOUR_WIDE.with_techniques(regfile=RegFileModel.SEQUENTIAL)
        policy = RegisterFilePolicy(config)
        assert policy.decide_sequential_access(self.ready_entry(), 5)

    def test_sequential_cleared_by_now_bit(self):
        config = FOUR_WIDE.with_techniques(regfile=RegFileModel.SEQUENTIAL)
        policy = RegisterFilePolicy(config)
        assert not policy.decide_sequential_access(self.woke_now_entry(5), 5)

    def test_single_source_never_sequential(self):
        config = FOUR_WIDE.with_techniques(regfile=RegFileModel.SEQUENTIAL)
        policy = RegisterFilePolicy(config)
        assert not policy.decide_sequential_access(self.ready_entry(n_ops=1), 5)

    def test_combined_ignores_slow_side_now(self):
        config = FOUR_WIDE.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, regfile=RegFileModel.SEQUENTIAL
        )
        policy = RegisterFilePolicy(config)
        assert policy.fast_side_now_only
        made = self.woke_now_entry(5)
        made.fast_side = OperandSide.RIGHT  # the now bit is on the LEFT
        assert policy.decide_sequential_access(made, 5)

    def test_reads_needed(self):
        policy = RegisterFilePolicy(FOUR_WIDE)
        assert policy.reads_needed(self.ready_entry(), 5) == 2
        assert policy.reads_needed(self.woke_now_entry(5), 5) == 1

    def test_crossbar_budget(self):
        config = FOUR_WIDE.with_techniques(regfile=RegFileModel.CROSSBAR)
        policy = RegisterFilePolicy(config)
        policy.begin_cycle()
        assert policy.try_reserve(self.ready_entry(), 5)   # 2 ports
        assert policy.try_reserve(self.ready_entry(), 5)   # 4 ports
        assert not policy.try_reserve(self.ready_entry(), 5)

    def test_crossbar_budget_resets(self):
        config = FOUR_WIDE.with_techniques(regfile=RegFileModel.CROSSBAR)
        policy = RegisterFilePolicy(config)
        policy.begin_cycle()
        policy.try_reserve(self.ready_entry(), 5)
        policy.try_reserve(self.ready_entry(), 5)
        policy.begin_cycle()
        assert policy.try_reserve(self.ready_entry(), 5)

    def test_base_reserve_unconstrained(self):
        policy = RegisterFilePolicy(FOUR_WIDE)
        policy.begin_cycle()
        for _ in range(100):
            assert policy.try_reserve(self.ready_entry(), 5)
