"""Regression tests for in-flight fill (MSHR) semantics across replays.

A load squashed after issuing must not access the cache again on re-issue:
the original line fill stays in flight.  Without this, squashed loads act
as self-prefetches, converting their misses into hits and systematically
flattering whichever recovery scheme squashes more loads.
"""

import dataclasses

from repro.pipeline.config import FOUR_WIDE, RecoveryModel
from repro.pipeline.processor import Processor
from repro.workloads import SyntheticWorkload, get_profile
from tests.util import CountingHierarchy, ScriptedFeed, op

BASE = dataclasses.replace(FOUR_WIDE, name="mshr-4w", ruu_size=32, lsq_size=16)


def run(ops, config=BASE):
    processor = Processor(ScriptedFeed(ops), config, record_schedule=True)
    processor.memory = CountingHierarchy(config.mem)
    processor.run(max_insts=len(ops), warmup=0)
    return processor


class TestSingleAccessPerLoad:
    def test_squashed_load_does_not_reaccess(self):
        """A dependent load issued in a miss shadow is squashed and
        re-issued; the cache must see exactly one access per load."""
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x5000),   # cold miss
            # dependent load: address depends on the missing load
            op(1, "LDQ", dest=2, srcs=(1,), mem_addr=0x6000),
            op(2, dest=3, srcs=(2,)),
        ]
        processor = run(ops)
        assert processor.stats.load_miss_replays >= 1
        # Two loads, two DL1 accesses — no replay re-access.
        assert processor.memory.accesses["DL1"] == 2

    def test_refill_timing_preserved_across_replay(self):
        """The re-issued dependent load's data still arrives no earlier
        than its own memory latency from its first access."""
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x5000),
            op(1, "LDQ", dest=2, srcs=(1,), mem_addr=0x6000),   # also misses
            op(2, dest=3, srcs=(2,)),
        ]
        processor = run(ops)
        trace = processor.trace
        first_issue_b = trace[1]["issues"][0]
        # B missed to memory: 2 + 8 + 50 cycles after its AGEN.
        assert trace[1]["complete"] >= first_issue_b + 1 + 60

    def test_no_deadlock_when_fill_lands_in_kill_shadow(self):
        """A re-issued load whose fill falls inside its own kill shadow
        must still re-broadcast (regression: the kill used to invalidate
        the real broadcast, deadlocking consumers)."""
        workload = SyntheticWorkload(get_profile("mcf"), seed=42)
        processor = Processor(workload, BASE)
        result = processor.run(max_insts=4000, warmup=4000)
        assert result.stats.committed >= 4000 - BASE.width


class TestRecoverySchemesSeeSameMemory:
    def test_dl1_miss_rate_independent_of_recovery(self):
        """Recovery policy reorders issues but must not change which loads
        miss: every load accesses the cache exactly once, in issue order of
        its first issue."""
        workload = SyntheticWorkload(get_profile("mcf"), seed=42)
        rates = {}
        for recovery in (RecoveryModel.NON_SELECTIVE, RecoveryModel.SELECTIVE):
            config = dataclasses.replace(BASE, recovery=recovery, name=f"r-{recovery.value}")
            processor = Processor(workload, config)
            memory = processor.memory = CountingHierarchy(config.mem)
            processor.run(max_insts=6000, warmup=6000)
            rates[recovery] = memory.misses["DL1"] / memory.accesses["DL1"]
        non_sel = rates[RecoveryModel.NON_SELECTIVE]
        sel = rates[RecoveryModel.SELECTIVE]
        assert abs(non_sel - sel) < 0.02, rates

    def test_selective_not_worse_on_miss_heavy_workload(self):
        workload = SyntheticWorkload(get_profile("mcf"), seed=42)
        ipcs = {}
        for recovery in (RecoveryModel.NON_SELECTIVE, RecoveryModel.SELECTIVE):
            config = dataclasses.replace(BASE, recovery=recovery, name=f"r-{recovery.value}")
            processor = Processor(workload, config)
            ipcs[recovery] = processor.run(max_insts=6000, warmup=6000).ipc
        assert ipcs[RecoveryModel.SELECTIVE] >= ipcs[RecoveryModel.NON_SELECTIVE] * 0.97
