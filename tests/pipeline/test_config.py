"""Tests for machine configuration (Table 1)."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.isa.opcodes import OpClass
from repro.pipeline.config import (
    EIGHT_WIDE,
    FOUR_WIDE,
    Latencies,
    MachineConfig,
    RecoveryModel,
    RegFileModel,
    SchedulerModel,
)
from repro.pipeline.fu import pool_index


class TestTable1:
    def test_four_wide(self):
        assert FOUR_WIDE.width == 4
        assert FOUR_WIDE.ruu_size == 64
        assert FOUR_WIDE.lsq_size == 32
        assert FOUR_WIDE.fu.int_alu == 4
        assert FOUR_WIDE.fu.fp_alu == 2
        assert FOUR_WIDE.fu.int_mult == 2
        assert FOUR_WIDE.fu.mem_ports == 2

    def test_eight_wide(self):
        assert EIGHT_WIDE.width == 8
        assert EIGHT_WIDE.ruu_size == 128
        assert EIGHT_WIDE.lsq_size == 64
        assert EIGHT_WIDE.fu.int_alu == 8
        assert EIGHT_WIDE.fu.mem_ports == 4

    def test_latencies(self):
        lat = Latencies()
        assert lat.for_class(OpClass.INT_ALU) == 1
        assert lat.for_class(OpClass.FP_ALU) == 2
        assert lat.for_class(OpClass.INT_MULT) == 3
        assert lat.for_class(OpClass.INT_DIV) == 20
        assert lat.for_class(OpClass.FP_MULT) == 4
        assert lat.for_class(OpClass.FP_DIV) == 12

    def test_memory_latencies(self):
        assert FOUR_WIDE.mem.dl1_latency == 2
        assert FOUR_WIDE.mem.l2_latency == 8
        assert FOUR_WIDE.mem.memory_latency == 50

    def test_phys_regs(self):
        assert FOUR_WIDE.num_phys_regs == 160


class TestDerivedProperties:
    def test_assumed_load_latency(self):
        assert FOUR_WIDE.assumed_load_latency == 3

    def test_extra_stage_deepens(self):
        config = FOUR_WIDE.with_techniques(regfile=RegFileModel.EXTRA_STAGE)
        assert config.exec_offset == FOUR_WIDE.exec_offset + 1
        assert config.assumed_load_latency == 4

    def test_total_read_ports(self):
        assert FOUR_WIDE.total_read_ports == 8
        seq = FOUR_WIDE.with_techniques(regfile=RegFileModel.SEQUENTIAL)
        assert seq.total_read_ports == 4
        xbar = FOUR_WIDE.with_techniques(regfile=RegFileModel.CROSSBAR)
        assert xbar.total_read_ports == 4

    def test_fu_count_lookup(self):
        # Branches share the integer ALUs' issue bandwidth, loads and
        # stores the memory ports; a NOP needs no unit.
        assert pool_index(OpClass.BRANCH) == pool_index(OpClass.INT_ALU)
        assert pool_index(OpClass.LOAD) == pool_index(OpClass.STORE)
        assert (FOUR_WIDE.fu.int_alu, FOUR_WIDE.fu.mem_ports) == (4, 2)
        assert pool_index(OpClass.NOP) is None


class TestVariants:
    def test_with_techniques_names(self):
        config = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)
        assert "seq_wakeup" in config.name
        assert config.scheduler is SchedulerModel.SEQ_WAKEUP

    def test_nopred_name(self):
        config = FOUR_WIDE.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=None
        )
        assert "nopred" in config.name

    def test_combined_name(self):
        config = FOUR_WIDE.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, regfile=RegFileModel.SEQUENTIAL
        )
        assert "seq_wakeup" in config.name and "sequential" in config.name

    def test_explicit_name(self):
        config = FOUR_WIDE.with_techniques(name="my-machine")
        assert config.name == "my-machine"

    def test_base_unchanged(self):
        FOUR_WIDE.with_techniques(scheduler=SchedulerModel.TAG_ELIM)
        assert FOUR_WIDE.scheduler is SchedulerModel.BASE

    def test_recovery_variant(self):
        config = FOUR_WIDE.with_techniques(recovery=RecoveryModel.SELECTIVE)
        assert config.recovery is RecoveryModel.SELECTIVE

    def test_cached_hash_stays_out_of_pickles(self):
        """str hashes differ between processes, so a config shipped to a
        worker must rehash there instead of carrying the cached value."""
        config = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)
        assert hash(config) != hash(config.with_techniques(predictor_entries=16))
        clone = pickle.loads(pickle.dumps(config))
        assert "_hash" not in clone.__dict__
        assert clone == config and hash(clone) == hash(config)


class TestValidation:
    def test_zero_width_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig("bad", 0, 64, 32, FOUR_WIDE.fu)

    def test_window_smaller_than_width_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig("bad", 8, 4, 32, FOUR_WIDE.fu)

    def test_non_power_of_two_predictor_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig("bad", 4, 64, 32, FOUR_WIDE.fu, predictor_entries=1000)
