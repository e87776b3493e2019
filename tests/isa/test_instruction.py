"""Tests for static instruction classification (paper Section 2.3)."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_BY_NAME
from repro.isa.registers import F31, R31


def make(name, dest=None, srcs=(), imm=0, target=None):
    return Instruction(OPCODE_BY_NAME[name], dest=dest, srcs=srcs, imm=imm, target=target)


class TestTwoSourceFormat:
    def test_operate_register_form_is_two_source_format(self):
        assert make("ADD", dest=1, srcs=(2, 3)).is_two_source_format

    def test_operate_immediate_form_is_not(self):
        assert not make("ADD", dest=1, srcs=(2,), imm=4).is_two_source_format

    def test_load_is_not(self):
        assert not make("LDQ", dest=1, srcs=(2,), imm=8).is_two_source_format

    def test_store_is_two_source_format(self):
        assert make("STQ", srcs=(1, 2), imm=0).is_two_source_format


class TestUniqueSources:
    def test_two_distinct_sources(self):
        assert make("ADD", dest=1, srcs=(2, 3)).unique_nonzero_sources == (2, 3)

    def test_duplicate_sources_count_once(self):
        assert make("ADD", dest=1, srcs=(2, 2)).unique_nonzero_sources == (2,)

    def test_zero_register_source_is_ignored(self):
        assert make("ADD", dest=1, srcs=(2, R31)).unique_nonzero_sources == (2,)

    def test_fp_zero_register_is_ignored(self):
        assert make("ADDF", dest=33, srcs=(F31, 34)).unique_nonzero_sources == (34,)

    def test_both_zero(self):
        assert make("ADD", dest=1, srcs=(R31, R31)).unique_nonzero_sources == ()


class TestTwoSourceClassification:
    def test_plain_two_source(self):
        assert make("ADD", dest=1, srcs=(2, 3)).is_two_source

    def test_store_is_excluded(self):
        assert not make("STQ", srcs=(1, 2)).is_two_source

    def test_zero_reg_demotes(self):
        assert not make("ADD", dest=1, srcs=(2, R31)).is_two_source

    def test_duplicate_demotes(self):
        assert not make("ADD", dest=1, srcs=(5, 5)).is_two_source

    def test_eliminated_nop_is_excluded(self):
        assert not make("NOP2", dest=R31, srcs=(2, 3)).is_two_source

    def test_operate_writing_zero_reg_is_eliminated_nop(self):
        inst = make("ADD", dest=R31, srcs=(2, 3))
        assert inst.is_eliminated_nop
        assert not inst.is_two_source


class TestProperties:
    def test_writes_register(self):
        assert make("ADD", dest=1, srcs=(2, 3)).writes_register
        assert not make("ADD", dest=R31, srcs=(2, 3)).writes_register
        assert not make("STQ", srcs=(1, 2)).writes_register

    def test_class_flags(self):
        assert make("LDQ", dest=1, srcs=(2,)).is_load
        assert make("STQ", srcs=(1, 2)).is_store
        assert make("BEQ", srcs=(1,), target=0).is_branch
        assert make("JMP", srcs=(1,)).is_control
        assert make("HALT").is_halt

    def test_too_many_sources_rejected(self):
        with pytest.raises(ValueError):
            make("ADD", dest=1, srcs=(2, 3, 4))
