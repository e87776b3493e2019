"""Tests for the branch target buffer and return address stack."""

import pytest

from repro.errors import ConfigurationError
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.ras import ReturnAddressStack


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(16, 4)
        assert btb.lookup(100) is None
        btb.install(100, 7)
        assert btb.lookup(100) == 7

    def test_update_existing(self):
        btb = BranchTargetBuffer(16, 4)
        btb.install(100, 7)
        btb.install(100, 9)
        assert btb.lookup(100) == 9

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(8, 4)  # 2 sets; even PCs map to set 0
        for pc in (0, 2, 4, 6):
            btb.install(pc, pc + 1)
        btb.lookup(0)          # refresh PC 0
        btb.install(8, 9)      # evicts PC 2 (LRU)
        assert btb.lookup(0) == 1
        assert btb.lookup(2) is None

    def test_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer(10, 4)

    def test_sets_partition_pcs(self):
        btb = BranchTargetBuffer(8, 4)
        btb.install(0, 1)
        btb.install(1, 2)
        assert btb.lookup(0) == 1
        assert btb.lookup(1) == 2

    def test_sets_are_built_on_first_install(self):
        btb = BranchTargetBuffer()  # 256 sets
        assert len(btb._sets) == 0
        assert btb.lookup(100) is None
        assert len(btb._sets) == 0
        btb.install(100, 7)
        btb.install(101, 8)
        assert len(btb._sets) == 2


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10

    def test_empty_pop_returns_none(self):
        assert ReturnAddressStack(4).pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_peek_and_len(self):
        ras = ReturnAddressStack(4)
        assert ras.peek() is None
        ras.push(5)
        assert ras.peek() == 5
        assert len(ras) == 1

    def test_clear(self):
        ras = ReturnAddressStack(4)
        ras.push(1)
        ras.clear()
        assert len(ras) == 0
