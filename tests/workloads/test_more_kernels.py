"""Correctness tests for the second batch of kernels."""

import pytest

from repro.isa.emulator import Emulator
from repro.workloads.kernels import kernel_program


class TestBubbleSort:
    def test_sorts_ascending(self):
        emu = Emulator(kernel_program("bubble_sort", n=16))
        emu.run(max_steps=2_000_000)
        values = [emu.read_mem(4096 + 8 * i) for i in range(16)]
        assert values == sorted(values)

    def test_values_preserved(self):
        emu = Emulator(kernel_program("bubble_sort", n=12))
        emu.run(max_steps=2_000_000)
        values = [emu.read_mem(4096 + 8 * i) for i in range(12)]
        assert len(values) == 12 and all(0 <= v <= 8191 for v in values)


class TestMatmul:
    def test_matches_python(self):
        n = 4
        program = kernel_program("matmul", n=n)
        a = [[(i * n + j + 1) % 7 for j in range(n)] for i in range(n)]
        b = [[(i + 2 * j + 1) % 5 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                program.data[4096 + (i * n + j) * 8] = a[i][j]
                program.data[16384 + (i * n + j) * 8] = b[i][j]
        emu = Emulator(program)
        emu.run(max_steps=2_000_000)
        for i in range(n):
            for j in range(n):
                expected = sum(a[i][k] * b[k][j] for k in range(n))
                assert emu.read_mem(28672 + (i * n + j) * 8) == expected, (i, j)

    def test_zero_inputs(self):
        emu = Emulator(kernel_program("matmul", n=3))
        emu.run(max_steps=2_000_000)
        assert all(emu.read_mem(28672 + k * 8) == 0 for k in range(9))


class TestHashProbe:
    def test_hit_count_matches_reference(self):
        n, bits = 120, 8
        emu = Emulator(kernel_program("hash_probe", n=n, table_bits=bits))
        emu.run(max_steps=2_000_000)
        # Reference model of the same LCG + table behaviour.
        mask = (1 << bits) - 1
        state, table, hits = 98765, {}, 0
        for _ in range(n):
            state = (state * 1103515245 + 12345) & ((1 << 64) - 1)
            if state >= (1 << 63):
                state -= 1 << 64
            slot = ((state & ((1 << 64) - 1)) >> 9) & mask
            if table.get(slot, 0) != 0:
                hits += 1
            table[slot] = state or 1
        assert emu.read_reg(1) == hits


class TestMemscan:
    def test_finds_needle_at_end(self):
        n = 64
        emu = Emulator(kernel_program("memscan", n=n, needle=99))
        emu.run(max_steps=1_000_000)
        assert emu.read_reg(1) == n - 1

    def test_finds_earlier_occurrence(self):
        program = kernel_program("memscan", n=64, needle=55)
        program.data[4096 + 8 * 10] = 55
        emu = Emulator(program)
        emu.run(max_steps=1_000_000)
        assert emu.read_reg(1) == 10


class TestOnTimingSimulator:
    @pytest.mark.parametrize("name", ["bubble_sort", "matmul", "hash_probe", "memscan"])
    def test_kernels_simulate(self, name):
        from repro.pipeline import FOUR_WIDE, simulate
        from repro.workloads import EmulatorFeed

        kwargs = {"n": 10} if name != "hash_probe" else {"n": 50}
        feed = EmulatorFeed(kernel_program(name, **kwargs), name=name)
        result = simulate(feed, FOUR_WIDE, max_insts=10**6, warmup=0)
        assert result.stats.committed > 0
        assert 0.05 < result.ipc <= 4.0
