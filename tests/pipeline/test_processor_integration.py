"""End-to-end processor tests: kernels, front end, invariants, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.pipeline.config import EIGHT_WIDE, FOUR_WIDE, RecoveryModel, SchedulerModel
from repro.pipeline.processor import Processor, simulate
from repro.workloads import (
    EmulatorFeed,
    SyntheticWorkload,
    get_profile,
    kernel_program,
)
from tests.util import ScriptedFeed, op


def run_kernel(name, config=FOUR_WIDE, **kwargs):
    feed = EmulatorFeed(kernel_program(name, **kwargs), name=name)
    return simulate(feed, config, max_insts=1_000_000, warmup=0)


class TestKernelExecution:
    @pytest.mark.parametrize(
        "name", ["vector_sum", "fibonacci", "dotproduct", "branchy_max"]
    )
    def test_kernels_complete(self, name):
        result = run_kernel(name)
        assert result.stats.committed > 0
        assert 0.05 < result.ipc <= FOUR_WIDE.width

    def test_all_instructions_commit_exactly_once(self):
        program = kernel_program("vector_sum", n=64)
        feed = EmulatorFeed(program)
        expected = sum(1 for _ in feed)
        result = simulate(feed, FOUR_WIDE, max_insts=10**6, warmup=0)
        assert result.stats.committed == expected

    def test_serial_chain_has_low_ipc(self):
        """Fibonacci's 2-op serial chain per 5-instruction iteration bounds
        IPC at 2.5 regardless of machine width."""
        result = run_kernel("fibonacci", n=2000)
        assert result.ipc < 2.6

    def test_pointer_chase_is_memory_bound(self):
        chase = run_kernel("pointer_chase", n=400, stride=4096)
        streaming = run_kernel("vector_sum", n=400)
        assert chase.ipc < streaming.ipc

    def test_wider_machine_not_slower(self):
        narrow = run_kernel("dotproduct", FOUR_WIDE, n=512)
        wide = run_kernel("dotproduct", EIGHT_WIDE, n=512)
        assert wide.ipc >= narrow.ipc * 0.95


class TestFrontEnd:
    def test_branch_mispredict_counted(self):
        """A never-taken branch behind a taken-biased cold predictor."""
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, "BEQ", srcs=(1,), taken=False, next_pc=2, static_target=0, pc=50),
            op(2, dest=2, srcs=(21,)),
        ]
        processor = Processor(ScriptedFeed(ops), FOUR_WIDE)
        processor.run(max_insts=3, warmup=0)
        assert processor.stats.branches == 1

    def test_mispredict_stalls_fetch(self):
        """Instructions after a mispredicted branch arrive much later."""
        taken = [
            op(0, dest=1, srcs=(20,)),
            op(1, "BEQ", srcs=(20,), taken=True, next_pc=2, static_target=2, pc=50),
            op(2, dest=2, srcs=(21,)),
        ]
        fallthrough = [
            op(0, dest=1, srcs=(20,)),
            op(1, "BEQ", srcs=(20,), taken=False, next_pc=2, static_target=9, pc=50),
            op(2, dest=2, srcs=(21,)),
        ]
        good = Processor(ScriptedFeed(taken), FOUR_WIDE, record_schedule=True)
        good.run(max_insts=3, warmup=0)
        bad = Processor(ScriptedFeed(fallthrough), FOUR_WIDE, record_schedule=True)
        bad.run(max_insts=3, warmup=0)
        assert bad.stats.branch_mispredicts == 1
        gap_good = good.trace[2]["commit"] - good.trace[1]["commit"]
        gap_bad = bad.trace[2]["commit"] - bad.trace[1]["commit"]
        assert gap_bad >= gap_good + FOUR_WIDE.front_depth

    def test_eliminated_nops_commit_without_issuing(self):
        ops = [
            op(0, dest=1, srcs=(20,)),
            op(1, "NOP2", srcs=(1, 2)),
            op(2, dest=2, srcs=(21,)),
        ]
        processor = Processor(ScriptedFeed(ops), FOUR_WIDE)
        processor.run(max_insts=3, warmup=0)
        assert processor.stats.committed == 3
        assert processor.stats.issued == 2


class TestWatchdog:
    def test_deadlock_raises(self):
        """An operand with no producer and no architectural value would
        hang; the watchdog must turn that into a diagnosable error."""

        class BrokenFeed:
            name = "broken"

            def __iter__(self):
                # Dependency on r5 which nothing produces and which is not
                # in the rename map: rename treats it as architectural, so
                # craft a real deadlock instead: a load depending on its own
                # result is impossible to express; use an LSQ-full stall by
                # never completing...  Simplest true deadlock: none exists
                # by construction, so simulate one via an op that the FU
                # pool can never issue.
                yield op(0, dest=1, srcs=(20,))

        # The honest deadlock test: force the watchdog threshold low and
        # use a feed that stops committing because max_insts exceeds the
        # feed length (the run loop exits cleanly instead) -- so instead we
        # check the watchdog fires on an artificial stall.
        processor = Processor(BrokenFeed(), FOUR_WIDE)
        # Sabotage: block commit forever by monkeypatching committable.
        processor.rob.committable = lambda: False
        import repro.pipeline.processor as proc_mod

        old = proc_mod._WATCHDOG_CYCLES
        proc_mod._WATCHDOG_CYCLES = 200
        try:
            with pytest.raises(SimulationError):
                processor.run(max_insts=1, warmup=0)
        finally:
            proc_mod._WATCHDOG_CYCLES = old


class TestSyntheticIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        workload = SyntheticWorkload(get_profile("gcc"), seed=5)
        return simulate(workload, FOUR_WIDE, max_insts=4000, warmup=4000)

    def test_ipc_in_sane_band(self, result):
        assert 0.3 < result.ipc < 4.0

    def test_committed_matches_budget(self, result):
        # The warmup boundary lands within one commit group, so the
        # measured window can be short by up to (width - 1) instructions.
        assert result.stats.committed >= 4000 - FOUR_WIDE.width

    def test_characterization_populated(self, result):
        stats = result.stats
        assert stats.two_source_dispatched > 0
        assert stats.branches > 0
        assert sum(stats.ready_at_insert.values()) >= stats.two_source_dispatched

    def test_rf_categories_cover_two_source_commits(self, result):
        stats = result.stats
        total = stats.rf_back_to_back + stats.rf_two_ready + stats.rf_non_back_to_back
        assert total > 0


class TestInvariantProperties:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_ipc_bounded_by_width(self, seed):
        workload = SyntheticWorkload(get_profile("gzip"), seed=seed)
        result = simulate(workload, FOUR_WIDE, max_insts=1500, warmup=500)
        assert 0.0 < result.ipc <= FOUR_WIDE.width

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sequential_wakeup_never_beats_base_much(self, seed):
        """Sequential wakeup only ever removes scheduling opportunities, so
        it cannot be meaningfully faster than the base machine."""
        workload = SyntheticWorkload(get_profile("eon"), seed=seed)
        base = simulate(workload, FOUR_WIDE, max_insts=1500, warmup=1500)
        config = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)
        seq = simulate(workload, config, max_insts=1500, warmup=1500)
        assert seq.ipc <= base.ipc * 1.05  # small noise tolerance

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_selective_recovery_not_worse(self, seed):
        """Selective replay squashes a subset of non-selective's victims."""
        workload = SyntheticWorkload(get_profile("mcf"), seed=seed)
        non_sel = simulate(workload, FOUR_WIDE, max_insts=1200, warmup=800)
        config = FOUR_WIDE.with_techniques(recovery=RecoveryModel.SELECTIVE)
        sel = simulate(workload, config, max_insts=1200, warmup=800)
        assert sel.stats.replayed <= non_sel.stats.replayed * 1.1 + 20

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_determinism(self, seed):
        workload = SyntheticWorkload(get_profile("twolf"), seed=seed)
        first = simulate(workload, FOUR_WIDE, max_insts=1000, warmup=200)
        second = simulate(workload, FOUR_WIDE, max_insts=1000, warmup=200)
        assert first.ipc == second.ipc
        assert first.stats.issued == second.stats.issued
