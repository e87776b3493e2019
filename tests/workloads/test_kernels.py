"""Functional-correctness tests for the hand-written kernels."""

import pytest

from repro.isa.emulator import Emulator
from repro.workloads.kernels import KERNELS, kernel_program


class TestKernelCorrectness:
    def test_vector_sum(self):
        program = kernel_program("vector_sum", n=16)
        for i in range(16):
            program.data[4096 + 8 * i] = i + 1
        emu = Emulator(program)
        emu.run()
        assert emu.read_reg(1) == sum(range(1, 17))

    def test_fibonacci(self):
        emu = Emulator(kernel_program("fibonacci", n=10))
        emu.run()
        assert emu.read_reg(1) == 55

    def test_memcpy(self):
        program = kernel_program("memcpy", n=8)
        for i in range(8):
            program.data[4096 + 8 * i] = 100 + i
        emu = Emulator(program)
        emu.run()
        for i in range(8):
            assert emu.read_mem(16384 + 8 * i) == 100 + i

    def test_pointer_chase_counts_nodes(self):
        emu = Emulator(kernel_program("pointer_chase", n=10, stride=64))
        emu.run()
        assert emu.read_reg(1) == 10

    def test_dotproduct(self):
        program = kernel_program("dotproduct", n=4)
        for i in range(4):
            program.data[4096 + 8 * i] = i + 1
            program.data[32768 + 8 * i] = 2
        emu = Emulator(program)
        emu.run()
        assert emu.read_reg(1) == 2 * (1 + 2 + 3 + 4)

    def test_branchy_max_in_range(self):
        emu = Emulator(kernel_program("branchy_max", n=50))
        emu.run()
        assert 0 <= emu.read_reg(1) <= 1023

    def test_call_tree(self):
        emu = Emulator(kernel_program("call_tree", depth=4, rounds=3))
        emu.run()
        assert emu.read_reg(1) == 12  # depth * rounds calls

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_all_kernels_assemble_and_halt(self, name):
        emu = Emulator(kernel_program(name))
        emu.run(max_steps=5_000_000)
        assert emu.halted
