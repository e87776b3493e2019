"""Tests for the Figure 5 dependence-matrix machinery.

The matrix is cross-checked against the scoreboard cascade during
selective-recovery kills: for bus-delivered wakeup schemes the two must
agree (zero mismatches), while tag elimination's removed comparator makes
the matrix blind — executable proof of the paper's Section 3.1 argument.
"""

import dataclasses

from repro.core.dependence_matrix import DependenceMatrix
from repro.pipeline.config import FOUR_WIDE, RecoveryModel, SchedulerModel
from repro.pipeline.processor import Processor
from repro.workloads import SyntheticWorkload, get_profile
from tests.util import ScriptedFeed, op

BASE = dataclasses.replace(
    FOUR_WIDE,
    name="matrix-4w",
    ruu_size=32,
    lsq_size=16,
    recovery=RecoveryModel.SELECTIVE,
    use_dependence_matrix=True,
)


def run(ops, config=BASE, max_insts=None):
    processor = Processor(ScriptedFeed(ops), config, record_schedule=True)
    processor.run(max_insts=max_insts or len(ops), warmup=0)
    return processor


class TestMatrixUnit:
    def test_merge_and_match(self):
        a = DependenceMatrix(6)
        a.add_ancestor(10, 2)
        b = DependenceMatrix(6)
        b.add_ancestor(11, 0)
        b.merge(a)
        assert b.matches(10, 2) and b.matches(11, 0)
        assert not b.matches(10, 0)

    def test_prune_phases_out_old_bits(self):
        matrix = DependenceMatrix(4)
        matrix.add_ancestor(10, 1)
        matrix.prune(14)
        assert matrix.matches(10, 1)
        matrix.prune(15)
        assert not matrix.matches(10, 1)

    def test_snapshot_is_independent(self):
        matrix = DependenceMatrix(4)
        matrix.add_ancestor(1, 1)
        copy = matrix.snapshot()
        matrix.add_ancestor(2, 2)
        assert not copy.matches(2, 2)
        assert copy.matches(1, 1)

    def test_len_and_contains(self):
        matrix = DependenceMatrix(4, [(1, 0), (2, 1)])
        assert len(matrix) == 2
        assert (1, 0) in matrix
        matrix.clear()
        assert len(matrix) == 0


class TestMatrixAgreesWithCascade:
    def test_direct_dependent(self):
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x5000),  # cold miss
            op(1, dest=2, srcs=(1,)),
        ]
        processor = run(ops)
        assert processor.stats.load_miss_replays >= 1
        assert processor.matrix_mismatches == 0

    def test_transitive_chain(self):
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x6000),
            op(1, dest=2, srcs=(1,)),
            op(2, dest=3, srcs=(2,)),
            op(3, dest=4, srcs=(3, 21)),
        ]
        processor = run(ops)
        assert processor.matrix_mismatches == 0
        assert len(processor.trace[2]["issues"]) == 2  # replayed transitively

    def test_two_parent_merge(self):
        """A child of the load through BOTH operands; matrices must merge."""
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x7000),
            op(1, dest=2, srcs=(1,)),
            op(2, dest=3, srcs=(1, 2)),
        ]
        processor = run(ops)
        assert processor.matrix_mismatches == 0

    def test_sequential_wakeup_compatible(self):
        """Section 3.3: slow-bus operands still observe the matrices, so
        sequential wakeup + selective recovery cross-checks cleanly."""
        config = BASE.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=None
        )
        config = dataclasses.replace(config, use_dependence_matrix=True)
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x8000),
            op(1, "MUL", dest=2, srcs=(21, 22)),
            op(2, dest=3, srcs=(2, 1)),  # load result on the slow side
            op(3, dest=4, srcs=(3,)),
        ]
        processor = run(ops, config)
        assert processor.stats.load_miss_replays >= 1
        assert processor.matrix_mismatches == 0

    def test_synthetic_workload_cross_check(self):
        """Whole-program cross-check on a miss-heavy synthetic benchmark."""
        config = dataclasses.replace(
            FOUR_WIDE,
            name="matrix-mcf",
            recovery=RecoveryModel.SELECTIVE,
            use_dependence_matrix=True,
        )
        workload = SyntheticWorkload(get_profile("mcf"), seed=11)
        processor = Processor(workload, config)
        processor.run(max_insts=3000, warmup=2000)
        assert processor.stats.load_miss_replays > 10
        assert processor.matrix_mismatches == 0


class TestTagEliminationIncompatibility:
    def test_eliminated_operand_blinds_matrix(self):
        """The removed comparator never receives the dependence broadcast,
        so matrix-based selective recovery would miss invalidations —
        the paper's impracticality argument, observed as mismatches."""
        config = dataclasses.replace(
            FOUR_WIDE.with_techniques(
                scheduler=SchedulerModel.TAG_ELIM, predictor_entries=None
            ),
            recovery=RecoveryModel.SELECTIVE,
            use_dependence_matrix=True,
            ruu_size=32,
            lsq_size=16,
        )
        # The load result arrives at the consumer's ELIMINATED (left) side:
        # the consumer issues on the connected right operand, the load
        # misses, and the cascade must invalidate an operand whose matrix
        # never saw the broadcast.
        ops = [
            op(0, "LDQ", dest=1, srcs=(20,), mem_addr=0x9000),  # cold miss
            op(1, dest=2, srcs=(21,)),
            op(2, dest=3, srcs=(1, 2)),  # left operand = load (eliminated)
            op(3, dest=4, srcs=(3,)),
        ]
        processor = run(ops, config)
        assert processor.matrix_mismatches > 0
