"""Tests for the two-pass assembler and disassembler."""

import pytest

from repro.errors import AssemblyError
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.isa.opcodes import OpClass
from repro.isa.registers import FP_REG_BASE, R31
from tests.util import labelled_source


class TestBasicAssembly:
    def test_empty_source(self):
        assert len(assemble("")) == 0

    def test_comments_and_blank_lines(self):
        program = assemble("; only a comment\n\n// another\n   NOP\n")
        assert len(program) == 1

    def test_operate_register_form(self):
        inst = assemble("ADD r1, r2, r3").instructions[0]
        assert inst.dest == 1 and inst.srcs == (2, 3)

    def test_operate_immediate_form(self):
        inst = assemble("ADD r1, r2, #42").instructions[0]
        assert inst.srcs == (2,) and inst.imm == 42

    def test_negative_immediate(self):
        inst = assemble("ADD r1, r2, #-5").instructions[0]
        assert inst.imm == -5

    def test_ldi(self):
        inst = assemble("LDI r7, 1000").instructions[0]
        assert inst.dest == 7 and inst.imm == 1000 and inst.srcs == ()

    def test_mov(self):
        inst = assemble("MOV r1, r2").instructions[0]
        assert inst.dest == 1 and inst.srcs == (2,)

    def test_fp_registers(self):
        inst = assemble("ADDF f1, f2, f3").instructions[0]
        assert inst.dest == FP_REG_BASE + 1
        assert inst.srcs == (FP_REG_BASE + 2, FP_REG_BASE + 3)


class TestMemoryFormat:
    def test_load(self):
        inst = assemble("LDQ r4, 8(r2)").instructions[0]
        assert inst.dest == 4 and inst.srcs == (2,) and inst.imm == 8

    def test_load_no_offset(self):
        inst = assemble("LDQ r4, (r2)").instructions[0]
        assert inst.imm == 0

    def test_store_sources_are_data_then_base(self):
        inst = assemble("STQ r4, -16(r2)").instructions[0]
        assert inst.dest is None and inst.srcs == (4, 2) and inst.imm == -16

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblyError):
            assemble("LDQ r4, r2")


class TestControlFlow:
    def test_label_resolution(self):
        program = assemble("loop: NOP\nBR loop")
        assert program.instructions[1].target == 0

    def test_forward_reference(self):
        program = assemble("BR done\nNOP\ndone: HALT")
        assert program.instructions[0].target == 2

    def test_conditional_branch(self):
        program = assemble("top: BEQ r1, top")
        inst = program.instructions[0]
        assert inst.srcs == (1,) and inst.target == 0

    def test_undefined_label(self):
        with pytest.raises(AssemblyError):
            assemble("BR nowhere")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            assemble("a: NOP\na: NOP")

    def test_jsr_and_ret(self):
        program = assemble("JSR r26, (r5)\nRET (r26)")
        jsr, ret = program.instructions
        assert jsr.dest == 26 and jsr.srcs == (5,)
        assert ret.dest is None and ret.srcs == (26,)

    def test_label_on_same_line(self):
        program = assemble("start: NOP\nBR start")
        assert program.labels["start"] == 0


class TestNops:
    def test_nop2_is_two_source_format_nop(self):
        inst = assemble("NOP2 r1, r2").instructions[0]
        assert inst.op_class is OpClass.NOP
        assert inst.is_two_source_format
        assert inst.is_eliminated_nop
        assert inst.dest == R31


class TestDataDirectives:
    def test_words(self):
        program = assemble(".data 4096\n.word 1 2 3")
        assert program.data == {4096: 1, 4104: 2, 4112: 3}

    def test_word_before_data_is_error(self):
        with pytest.raises(AssemblyError):
            assemble(".word 1")

    def test_unknown_directive(self):
        with pytest.raises(AssemblyError):
            assemble(".bogus 1")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "FROB r1, r2, r3",
            "ADD r1, r2",
            "ADDF f1, f2, #3",  # FP has no immediate form
            "LDI r1",
            "BR a, b",
            "NOP r1",
            "ADD r1, r2, r99",
        ],
    )
    def test_malformed_lines(self, bad):
        with pytest.raises(AssemblyError):
            assemble(bad + "\n" + ("a: NOP" if "a" in bad else ""))

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblyError) as excinfo:
            assemble("NOP\nFROB r1\n")
        assert "line 2" in str(excinfo.value)


class TestDisassembler:
    SOURCE = "\n".join(
        [
            "loop: ADD r1, r2, r3",
            "ADD r1, r2, #7",
            "LDI r5, 9",
            "MOV r6, r5",
            "LDQ r4, 8(r2)",
            "STQ r4, 0(r2)",
            "BEQ r1, loop",
            "BR loop",
            "JSR r26, (r5)",
            "RET (r26)",
            "NOP2 r1, r2",
            "NOP",
            "HALT",
        ]
    )

    def test_roundtrip(self):
        """Disassembling and reassembling yields identical instructions."""
        program = assemble(self.SOURCE)
        text = labelled_source(program)
        again = assemble(text)
        assert again.instructions == program.instructions

    def test_single_instruction_render(self):
        inst = assemble("ADD r1, r2, r3").instructions[0]
        assert disassemble(inst) == "ADD r1, r2, r3"

    def test_str_uses_disassembler(self):
        inst = assemble("LDQ r4, 8(r2)").instructions[0]
        assert str(inst) == "LDQ r4, 8(r2)"
