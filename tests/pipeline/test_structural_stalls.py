"""Tests for structural stall behaviour: ROB/LSQ capacity, IL1 misses."""

import dataclasses

from repro.pipeline.config import FOUR_WIDE
from repro.pipeline.processor import Processor
from tests.util import CountingHierarchy, ScriptedFeed, op


def run(ops, config, max_insts=None):
    processor = Processor(ScriptedFeed(ops), config, record_schedule=True)
    processor.memory = CountingHierarchy(config.mem)
    processor.run(max_insts=max_insts or len(ops), warmup=0)
    return processor


class TestROBCapacity:
    def test_small_rob_throttles_dispatch(self):
        """A long-latency head instruction blocks commit; a tiny ROB then
        stalls dispatch of younger instructions until it drains."""
        tiny = dataclasses.replace(FOUR_WIDE, ruu_size=4, lsq_size=4, name="tiny")
        ops = [op(0, "DIV", dest=1, srcs=(20, 21))] + [
            op(i, dest=2 + (i % 8), srcs=(22,)) for i in range(1, 12)
        ]
        small = run(ops, tiny)
        large = run(ops, FOUR_WIDE)
        # With 4 ROB entries the 12th instruction must dispatch much later.
        assert small.trace[11]["insert"] > large.trace[11]["insert"]
        assert small.stats.committed == 12

    def test_dispatch_never_overflows_rob(self):
        tiny = dataclasses.replace(FOUR_WIDE, ruu_size=4, lsq_size=4, name="tiny")
        ops = [op(i, dest=1 + (i % 8), srcs=(20,)) for i in range(40)]
        processor = run(ops, tiny)
        assert processor.stats.committed == 40


class TestLSQCapacity:
    def test_small_lsq_throttles_memory_ops(self):
        tiny = dataclasses.replace(FOUR_WIDE, lsq_size=2, name="tiny-lsq")
        ops = []
        for i in range(12):
            ops.append(op(i, "LDQ", dest=1 + (i % 8), srcs=(24,), mem_addr=0x100 + 16 * i))
        small = run(ops, tiny)
        large = run(ops, FOUR_WIDE)
        assert small.stats.committed == 12
        assert small.trace[11]["insert"] >= large.trace[11]["insert"]

    def test_non_memory_ops_do_not_consume_lsq(self):
        tiny = dataclasses.replace(FOUR_WIDE, lsq_size=1, name="tiny-lsq")
        ops = [op(i, dest=1 + (i % 8), srcs=(20,)) for i in range(10)]
        processor = run(ops, tiny)
        assert processor.stats.committed == 10


class TestInstructionCacheStalls:
    def test_il1_misses_slow_fetch(self):
        """Spreading the code over many lines makes cold fetch slower than
        fetching from one line."""
        dense = [op(i, dest=1 + (i % 8), srcs=(20,), pc=0) for i in range(8)]
        sparse = [
            op(i, dest=1 + (i % 8), srcs=(20,), pc=i * 64)  # 256B apart
            for i in range(8)
        ]
        dense_run = run(dense, FOUR_WIDE)
        sparse_run = run(sparse, FOUR_WIDE)
        assert sparse_run.now > dense_run.now
        assert sparse_run.memory.misses["IL1"] > dense_run.memory.misses["IL1"]


class TestTagElimRecoveryPolicy:
    def test_tag_elim_misschedule_always_uses_window(self):
        """Section 3.1: tag elimination cannot use selective recovery; the
        misschedule window applies even on a selective-recovery machine."""
        from repro.pipeline.config import RecoveryModel, SchedulerModel

        config = FOUR_WIDE.with_techniques(
            scheduler=SchedulerModel.TAG_ELIM,
            recovery=RecoveryModel.SELECTIVE,
            predictor_entries=None,
        )
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, "MUL", dest=2, srcs=(20, 21)),
            op(2, dest=3, srcs=(2, 1)),            # misscheduled
            op(3, "ADDF", dest=40, srcs=(41, 63)),  # independent, in shadow
            op(4, "ADDF", dest=42, srcs=(40,)),
        ]
        processor = run(ops, config)
        assert processor.stats.tag_elim_misschedules >= 1
        # The independent FP consumer is still squashed by the window.
        assert len(processor.trace[4]["issues"]) == 2
