"""Floating-point emulator coverage and miscellaneous ISA edges."""

import pytest

from repro.errors import EmulationError
from repro.isa.assembler import assemble
from repro.isa.emulator import Emulator
from repro.isa.registers import FP_REG_BASE


def run(source, max_steps=10_000):
    emu = Emulator(assemble(source))
    emu.run(max_steps)
    return emu


class TestFloatingPoint:
    def test_fp_memory_roundtrip_and_arith(self):
        emu = run(
            ".data 4096\n.word 6\n"
            "LDI r1, 4096\n"
            "LDF f1, 0(r1)\n"      # f1 = 6
            "MOVF f2, f1\n"
            "ADDF f3, f1, f2\n"    # 12
            "SUBF f4, f3, f1\n"    # 6
            "MULF f5, f3, f4\n"    # 72
            "STF  f5, 8(r1)\n"
            "HALT"
        )
        assert emu.read_reg(FP_REG_BASE + 3) == pytest.approx(12.0)
        assert emu.read_mem(4104) == pytest.approx(72.0)

    def test_fp_division(self):
        emu = run(
            ".data 4096\n.word 7 2\n"
            "LDI r1, 4096\nLDF f1, 0(r1)\nLDF f2, 8(r1)\n"
            "DIVF f3, f1, f2\nHALT"
        )
        assert emu.read_reg(FP_REG_BASE + 3) == pytest.approx(3.5)

    def test_fp_divide_by_zero_raises(self):
        with pytest.raises(EmulationError):
            run("DIVF f1, f2, f31\nHALT")

    def test_fp_compares(self):
        emu = run(
            ".data 4096\n.word 3 5\n"
            "LDI r1, 4096\nLDF f1, 0(r1)\nLDF f2, 8(r1)\n"
            "CMPFLT r2, f1, f2\nCMPFEQ r3, f1, f1\nHALT"
        )
        assert emu.read_reg(2) == 1
        assert emu.read_reg(3) == 1

    def test_f31_reads_zero(self):
        emu = run("ADDF f1, f31, f31\nHALT")
        assert emu.read_reg(FP_REG_BASE + 1) == 0.0

    def test_f31_write_discarded(self):
        emu = run(
            ".data 4096\n.word 9\nLDI r1, 4096\nLDF f31, 0(r1)\n"
            "MOVF f2, f31\nHALT"
        )
        assert emu.read_reg(FP_REG_BASE + 2) == 0.0


class TestMiscEdges:
    def test_jmp_register_indirect(self):
        emu = run("LDI r5, 3\nJMP (r5)\nLDI r1, 99\nHALT")
        assert emu.read_reg(1) == 0  # the LDI was jumped over

    def test_shift_by_more_than_63_masks(self):
        emu = run("LDI r1, 8\nSLL r2, r1, #65\nHALT")
        assert emu.read_reg(2) == 16  # shift count masked to 1

    def test_large_immediate(self):
        emu = run("LDI r1, 1103515245\nHALT")
        assert emu.read_reg(1) == 1103515245

    def test_negative_displacement_load(self):
        emu = run(
            ".data 4096\n.word 42\nLDI r1, 4104\nLDQ r2, -8(r1)\nHALT"
        )
        assert emu.read_reg(2) == 42

    def test_steps_counter(self):
        emu = run("NOP\nNOP\nHALT")
        assert emu.steps == 3
