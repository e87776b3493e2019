"""Cycle-accurate scheduler scenarios (the paper's Figures 9 and 12).

These tests hand-craft tiny dynamic instruction sequences and assert exact
relative issue timing under each wakeup/register-file model.  Registers
r20..r27 are never written, so operands naming them are ready at insert.
"""

import dataclasses

from repro.pipeline.config import (
    FOUR_WIDE,
    RecoveryModel,
    RegFileModel,
    SchedulerModel,
)
from repro.pipeline.processor import Processor
from tests.util import ScriptedFeed, op, store_op

BASE = dataclasses.replace(FOUR_WIDE, name="test-4w", ruu_size=32, lsq_size=16)


def run(ops, config, max_insts=None):
    processor = Processor(ScriptedFeed(ops), config, record_schedule=True)
    processor.run(max_insts=max_insts or len(ops), warmup=0)
    return processor


def issues(processor, seq):
    return processor.trace[seq]["issues"]


class TestBaseTiming:
    def test_back_to_back_alu(self):
        """A 1-cycle producer's consumer issues exactly one cycle later."""
        processor = run([op(0, dest=1), op(1, dest=2, srcs=(1, 20))], BASE)
        assert issues(processor, 1)[0] == issues(processor, 0)[0] + 1

    def test_mul_latency_gap(self):
        """A 3-cycle multiply's consumer issues three cycles later."""
        processor = run([op(0, "MUL", dest=1, srcs=(20, 21)), op(1, dest=2, srcs=(1,))], BASE)
        assert issues(processor, 1)[0] == issues(processor, 0)[0] + 3

    def test_load_hit_latency(self):
        """A DL1-hit load's consumer issues assumed-latency cycles later."""
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x100),  # cold miss, warms
            op(1, "LDQ", dest=2, srcs=(20,), mem_addr=0x100),  # hit
            op(2, dest=3, srcs=(2,)),
        ]
        processor = run(ops, BASE)
        assert issues(processor, 2)[0] == issues(processor, 1)[0] + BASE.assumed_load_latency

    def test_independent_ops_issue_together(self):
        ops = [op(0, dest=1, srcs=(20,)), op(1, dest=2, srcs=(21,))]
        processor = run(ops, BASE)
        assert issues(processor, 0)[0] == issues(processor, 1)[0]

    def test_width_limits_issue(self):
        """Five independent ALU ops on a 4-wide machine need two cycles
        (four integer ALUs, so the FU pool also allows exactly four)."""
        ops = [op(i, dest=1 + i, srcs=(20,)) for i in range(5)]
        processor = run(ops, BASE)
        cycles = sorted(issues(processor, i)[0] for i in range(5))
        assert cycles[3] == cycles[0] and cycles[4] == cycles[0] + 1

    def test_ready_at_insert_recorded(self):
        processor = run([op(0, dest=1, srcs=(20, 21))], BASE)
        assert processor.stats.ready_at_insert[2] == 1

    def test_two_pending_recorded(self):
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, "MUL", dest=2, srcs=(20, 21)),
            op(2, dest=3, srcs=(1, 2)),
        ]
        processor = run(ops, BASE)
        assert processor.stats.ready_at_insert[0] == 1
        assert processor.stats.two_pending_observed == 1
        # ADD broadcasts 2 cycles before MUL: slack 2, MUL (right) last.
        assert processor.stats.wakeup_slack[2] == 1
        assert processor.stats.order.last_right == 1


def seq_wakeup_config(predictor_entries):
    return BASE.with_techniques(
        scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=predictor_entries
    )


class TestSequentialWakeup:
    """Static placement (no predictor): the RIGHT operand rides the fast bus."""

    def producer_consumer(self, consumer_srcs):
        return [
            op(0, dest=1, srcs=(20,)),            # ADD: broadcasts at t+1
            op(1, "MUL", dest=2, srcs=(20, 21)),  # MUL: broadcasts at t+3
            op(2, dest=3, srcs=consumer_srcs),
        ]

    def test_correct_prediction_has_no_penalty(self):
        """Last-arriving operand (MUL result) on the fast (right) side."""
        ops = self.producer_consumer((1, 2))
        base = run(ops, BASE)
        seq = run(ops, seq_wakeup_config(None))
        assert issues(seq, 2)[0] == issues(base, 2)[0]

    def test_misprediction_costs_one_cycle(self):
        """Last-arriving operand on the slow (left) side: +1 cycle."""
        ops = self.producer_consumer((2, 1))
        base = run(ops, BASE)
        seq = run(ops, seq_wakeup_config(None))
        assert issues(seq, 2)[0] == issues(base, 2)[0] + 1

    def test_simultaneous_wakeup_costs_one_cycle(self):
        """Both producers broadcast in the same cycle: always +1."""
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, dest=2, srcs=(21,)),
            op(2, dest=3, srcs=(1, 2)),
        ]
        base = run(ops, BASE)
        seq = run(ops, seq_wakeup_config(None))
        assert issues(seq, 2)[0] == issues(base, 2)[0] + 1
        assert seq.stats.simultaneous_wakeups == 1

    def test_single_source_never_penalized(self):
        ops = [op(0, "MUL", dest=1, srcs=(20, 21)), op(1, dest=2, srcs=(1,))]
        base = run(ops, BASE)
        seq = run(ops, seq_wakeup_config(None))
        assert issues(seq, 1)[0] == issues(base, 1)[0]

    def test_no_replays_ever(self):
        """Sequential wakeup is non-speculative: nothing is ever replayed
        because of operand readiness."""
        ops = self.producer_consumer((2, 1))
        seq = run(ops, seq_wakeup_config(None))
        assert seq.stats.tag_elim_misschedules == 0

    def test_predictor_learns_and_removes_penalty(self):
        """With a bimodal predictor, repeating the same PC trains the fast
        side onto the true last-arriving operand."""
        ops = []
        seq_no = 0
        for repeat in range(8):
            ops.append(op(seq_no, dest=1, srcs=(20,), pc=100)); seq_no += 1
            ops.append(op(seq_no, "MUL", dest=2, srcs=(20, 21), pc=101)); seq_no += 1
            ops.append(op(seq_no, dest=3, srcs=(2, 1), pc=102)); seq_no += 1  # left last
        base = run(ops, BASE)
        seq = run(ops, seq_wakeup_config(1024))
        # The last repetition should issue with no penalty.
        assert issues(seq, seq_no - 1)[-1] == issues(base, seq_no - 1)[-1]


class TestTagElimination:
    def tag_elim_config(self):
        return BASE.with_techniques(
            scheduler=SchedulerModel.TAG_ELIM, predictor_entries=None
        )

    def test_correct_prediction_matches_base(self):
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, "MUL", dest=2, srcs=(20, 21)),
            op(2, dest=3, srcs=(1, 2)),  # right (connected) arrives last
        ]
        base = run(ops, BASE)
        te = run(ops, self.tag_elim_config())
        assert issues(te, 2)[0] == issues(base, 2)[0]
        assert te.stats.tag_elim_misschedules == 0

    def test_misprediction_triggers_misschedule_and_replay(self):
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, "MUL", dest=2, srcs=(20, 21)),
            op(2, dest=3, srcs=(2, 1)),  # left (eliminated) arrives last
        ]
        te = run(ops, self.tag_elim_config())
        assert te.stats.tag_elim_misschedules == 1
        assert len(issues(te, 2)) == 2  # issued speculatively, then replayed
        # The re-issue cannot precede the eliminated operand's readiness.
        assert issues(te, 2)[-1] >= issues(te, 1)[0] + 3

    def test_misschedule_squashes_shadow_victims(self):
        """Non-selective recovery also replays independent instructions
        issued in the detection shadow."""
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, "MUL", dest=2, srcs=(20, 21)),
            op(2, dest=3, srcs=(2, 1)),            # misscheduled at t+1
            op(3, "ADDF", dest=40, srcs=(41, 63)),  # 2-cycle independent
            op(4, "ADDF", dest=42, srcs=(40,)),     # wakes at t+2: in shadow
        ]
        te = run(ops, self.tag_elim_config())
        assert te.stats.tag_elim_misschedules >= 1
        assert te.stats.replayed >= 2  # the mis-issue plus at least one victim
        assert len(issues(te, 4)) == 2


class TestLoadMissReplay:
    def miss_then_consumers(self):
        return [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x5000),  # cold: miss
            op(1, dest=2, srcs=(1,)),             # dependent
            op(2, "MUL", dest=3, srcs=(22, 23)),  # independent producer
            op(3, dest=4, srcs=(3,)),             # independent consumer
        ]

    def test_dependent_replays_on_miss(self):
        processor = run(self.miss_then_consumers(), BASE)
        assert processor.stats.load_miss_replays >= 1
        assert len(issues(processor, 1)) == 2
        # Final issue aligns with the real data broadcast, not the assumed hit.
        load_issue = issues(processor, 0)[0]
        assert issues(processor, 1)[-1] > load_issue + BASE.assumed_load_latency + 10

    def test_non_selective_squashes_independents_in_window(self):
        processor = run(self.miss_then_consumers(), BASE)
        # MUL consumer wakes exactly in the load's speculative window
        # (both producers issue together; 3 = assumed load latency).
        assert len(issues(processor, 3)) == 2

    def test_selective_spares_independents(self):
        config = BASE.with_techniques(recovery=RecoveryModel.SELECTIVE)
        processor = run(self.miss_then_consumers(), config)
        assert len(issues(processor, 1)) == 2   # dependent still replays
        assert len(issues(processor, 3)) == 1   # independent untouched

    def test_load_itself_not_squashed(self):
        processor = run(self.miss_then_consumers(), BASE)
        assert len(issues(processor, 0)) == 1

    def test_transitive_chain_replays(self):
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x7000),
            op(1, dest=2, srcs=(1,)),
            op(2, dest=3, srcs=(2,)),
        ]
        config = BASE.with_techniques(recovery=RecoveryModel.SELECTIVE)
        processor = run(ops, config)
        assert len(issues(processor, 1)) == 2
        assert len(issues(processor, 2)) == 2

    def test_committed_results_are_correct_order(self):
        processor = run(self.miss_then_consumers(), BASE)
        assert processor.stats.committed == 4


class TestSequentialRegisterAccess:
    def seq_rf(self, width=4):
        config = BASE if width == 4 else dataclasses.replace(BASE, width=width)
        return config.with_techniques(regfile=RegFileModel.SEQUENTIAL)

    def test_two_ready_operands_pay_one_cycle(self):
        """Figure 12: both sources ready at insert -> +1 result latency."""
        ops = [
            op(0, dest=1, srcs=(20, 21)),  # 2 ready at insert: seq access
            op(1, dest=2, srcs=(1,)),      # dependent sees +1
        ]
        base = run(ops, BASE)
        seq = run(ops, self.seq_rf())
        assert issues(seq, 1)[0] == issues(base, 1)[0] + 1
        assert seq.trace[0]["seq_reg_access"] is True
        assert seq.stats.sequential_rf_accesses == 1

    def test_back_to_back_issue_clears_seq_access(self):
        """A now-bit operand comes off the bypass: no penalty."""
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, dest=2, srcs=(1, 21)),   # woken by op0, issues back-to-back
            op(2, dest=3, srcs=(2,)),
        ]
        base = run(ops, BASE)
        seq = run(ops, self.seq_rf())
        assert seq.trace[1]["seq_reg_access"] is False
        assert issues(seq, 2)[0] == issues(base, 2)[0]

    def test_single_source_never_seq(self):
        ops = [op(0, dest=1, srcs=(20,))]
        seq = run(ops, self.seq_rf())
        assert seq.trace[0]["seq_reg_access"] is False

    def test_issue_slot_bubble(self):
        """The slot that issued a sequential access is disabled next cycle
        (1-wide machine: the next instruction slips one cycle)."""
        narrow = dataclasses.replace(BASE, width=1, name="test-1w")
        ops = [
            op(0, dest=1, srcs=(20, 21)),  # seq access
            op(1, dest=2, srcs=(22,)),     # independent
        ]
        base = run(ops, narrow)
        seq = run(ops, narrow.with_techniques(regfile=RegFileModel.SEQUENTIAL))
        gap_base = issues(base, 1)[0] - issues(base, 0)[0]
        gap_seq = issues(seq, 1)[0] - issues(seq, 0)[0]
        assert gap_seq == gap_base + 1

    def test_non_back_to_back_needs_two_reads(self):
        """An operand woken earlier than the select cycle must be read from
        the register file (1-cycle bypass window)."""
        ops = [
            op(0, "MUL", dest=1, srcs=(20, 21)),
            op(1, "MUL", dest=2, srcs=(22, 23)),
            # consumer of both MULs; delay its issue by saturating the ALUs
            op(2, dest=3, srcs=(1, 2)),
        ]
        seq = run(ops, self.seq_rf())
        # Both MULs broadcast in the same cycle -> consumer's operands both
        # woke in its select cycle -> bypass covers them (no seq access).
        assert seq.trace[2]["seq_reg_access"] is False


class TestCombinedTechniques:
    def combined(self):
        return BASE.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP,
            regfile=RegFileModel.SEQUENTIAL,
            predictor_entries=None,
        )

    def test_slow_bus_wakeup_forces_seq_access(self):
        """Section 5.3: only nowL exists; a last-arriving operand delivered
        by the slow bus cannot clear seq_reg_access."""
        ops = [
            op(0, dest=1, srcs=(20,)),
            # Duplicate sources: one sched operand, so the MUL itself pays
            # no sequential-access penalty and stays a pure slow producer.
            op(1, "MUL", dest=2, srcs=(20, 20)),
            op(2, dest=3, srcs=(2, 1)),  # last (MUL) on LEFT = slow side
            op(3, dest=4, srcs=(3,)),
        ]
        base = run(ops, BASE)
        combined = run(ops, self.combined())
        assert combined.trace[2]["seq_reg_access"] is True
        # Penalty: +1 (slow wakeup) +1 (sequential register access).
        assert issues(combined, 3)[0] == issues(base, 3)[0] + 2

    def test_fast_side_now_still_clears(self):
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, "MUL", dest=2, srcs=(20, 21)),
            op(2, dest=3, srcs=(1, 2)),  # last (MUL) on RIGHT = fast side
        ]
        combined = run(ops, self.combined())
        assert combined.trace[2]["seq_reg_access"] is False


class TestCrossbarPorts:
    def test_port_contention_delays_youngest(self):
        """Width 4 -> 4 shared read ports; three 2-ready instructions need
        6 reads, so the youngest waits a cycle."""
        config = BASE.with_techniques(regfile=RegFileModel.CROSSBAR)
        ops = [
            op(0, dest=1, srcs=(20, 21)),
            op(1, dest=2, srcs=(22, 23)),
            op(2, dest=3, srcs=(24, 25)),
        ]
        base = run(ops, BASE)
        xbar = run(ops, config)
        assert issues(xbar, 0)[0] == issues(base, 0)[0]
        assert issues(xbar, 1)[0] == issues(base, 1)[0]
        assert issues(xbar, 2)[0] == issues(base, 2)[0] + 1

    def test_bypassed_operands_use_no_ports(self):
        config = BASE.with_techniques(regfile=RegFileModel.CROSSBAR)
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, dest=2, srcs=(1, 21)),  # one operand off the bypass
            op(2, dest=3, srcs=(1, 22)),
        ]
        xbar = run(ops, config)
        # Both consumers issue together: 2 bypass + 2 RF reads = 4 ports.
        assert issues(xbar, 1)[0] == issues(xbar, 2)[0]


class TestExtraStage:
    def test_load_use_latency_grows(self):
        config = BASE.with_techniques(regfile=RegFileModel.EXTRA_STAGE)
        assert config.assumed_load_latency == BASE.assumed_load_latency + 1
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x100),
            op(1, "LDQ", dest=2, srcs=(20,), mem_addr=0x100),  # hit
            op(2, dest=3, srcs=(2,)),
        ]
        base = run(ops, BASE)
        extra = run(ops, config)
        gap_base = issues(base, 2)[0] - issues(base, 1)[0]
        gap_extra = issues(extra, 2)[0] - issues(extra, 1)[0]
        assert gap_extra == gap_base + 1

    def test_alu_back_to_back_unaffected(self):
        """Bypass still covers ALU chains in the deeper pipeline."""
        config = BASE.with_techniques(regfile=RegFileModel.EXTRA_STAGE)
        ops = [op(0, dest=1, srcs=(20,)), op(1, dest=2, srcs=(1,))]
        extra = run(ops, config)
        assert issues(extra, 1)[0] == issues(extra, 0)[0] + 1


class TestStoreHandling:
    def test_store_schedules_on_base_only(self):
        """A store whose data register is pending still issues (agen)."""
        ops = [
            op(0, "MUL", dest=1, srcs=(20, 21)),       # slow data producer
            store_op(1, data_reg=1, base_reg=22, mem_addr=0x900),
        ]
        processor = run(ops, BASE)
        # Store issues with the MUL still in flight: no wait on data.
        assert issues(processor, 1)[0] <= issues(processor, 0)[0] + 1

    def test_store_to_load_forwarding(self):
        """A load matching an older in-flight store forwards at hit latency
        and never misses (no replay) even on a cold address."""
        ops = [
            store_op(0, data_reg=20, base_reg=21, mem_addr=0x8000),
            op(1, "LDQ", dest=1, srcs=(22,), mem_addr=0x8000),
            op(2, dest=2, srcs=(1,)),
        ]
        processor = run(ops, BASE)
        assert processor.stats.load_miss_replays == 0
        assert len(issues(processor, 2)) == 1

    def test_unrelated_store_does_not_forward(self):
        ops = [
            store_op(0, data_reg=20, base_reg=21, mem_addr=0x8000),
            op(1, "LDQ", dest=1, srcs=(22,), mem_addr=0x9000),  # cold: miss
            op(2, dest=2, srcs=(1,)),
        ]
        processor = run(ops, BASE)
        assert processor.stats.load_miss_replays >= 1
