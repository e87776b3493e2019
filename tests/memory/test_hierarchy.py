"""Tests for the IL1/DL1/L2/memory hierarchy.

Each access answers with its latency: an L1 hit costs the L1 latency
(2), an L2 hit adds the L2's (8), and a miss everywhere adds memory's
(50).
"""

import pytest

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig


@pytest.fixture
def hierarchy():
    return MemoryHierarchy()


class TestLatencies:
    def test_dl1_hit_latency(self, hierarchy):
        hierarchy.load(0x1000)
        assert hierarchy.load(0x1000) == 2

    def test_l2_hit_latency(self):
        """A line a conflict evicted from a 1-way DL1 still hits in L2."""
        hierarchy = MemoryHierarchy(
            MemoryHierarchyConfig(dl1=CacheConfig("DL1", 1024, 1, 16))
        )
        hierarchy.load(0x1000)          # fills DL1 and L2
        hierarchy.load(0x1000 + 1024)   # same DL1 set: evicts 0x1000
        assert hierarchy.load(0x1000) == 2 + 8

    def test_memory_latency(self, hierarchy):
        assert hierarchy.load(0x1000) == 2 + 8 + 50

    def test_fetch_uses_il1(self, hierarchy):
        assert hierarchy.fetch(0x0) == 2 + 8 + 50
        assert hierarchy.fetch(0x0) == 2

    def test_is_miss_flag(self, hierarchy):
        """A miss is any latency other than the L1's."""
        assert hierarchy.load(0x99) != 2
        assert hierarchy.load(0x99) == 2


class TestInclusionBehaviour:
    def test_l2_is_unified(self, hierarchy):
        """An instruction fetch warms the L2, not the DL1, for a later
        data access."""
        hierarchy.fetch(0x4000)
        assert hierarchy.load(0x4000) == 2 + 8

    def test_store_allocates(self, hierarchy):
        assert hierarchy.store(0x2000) == 2 + 8 + 50
        assert hierarchy.load(0x2000) == 2

    def test_flush(self, hierarchy):
        """A hierarchy built from the same config starts cold."""
        hierarchy.load(0x1000)
        hierarchy.fetch(0x1000)
        assert MemoryHierarchy(hierarchy.config).load(0x1000) == 2 + 8 + 50
        assert hierarchy.load(0x1000) == 2


class TestConfigDefaults:
    def test_table1_geometry(self):
        config = MemoryHierarchyConfig()
        assert config.il1.size_bytes == 64 * 1024
        assert config.il1.associativity == 2
        assert config.il1.line_bytes == 32
        assert config.dl1.associativity == 4
        assert config.dl1.line_bytes == 16
        assert config.l2.size_bytes == 512 * 1024
        assert config.l2.line_bytes == 64
        assert config.memory_latency == 50

    def test_custom_config(self):
        config = MemoryHierarchyConfig(
            dl1=CacheConfig("DL1", 1024, 2, 16), dl1_latency=1
        )
        hierarchy = MemoryHierarchy(config)
        hierarchy.load(0)
        assert hierarchy.load(0) == 1
