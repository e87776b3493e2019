"""Two-level cache hierarchy with the paper's Table 1 latencies."""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import Cache, CacheConfig


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Geometry and latency of the whole memory system (Table 1)."""

    il1: CacheConfig = CacheConfig("IL1", 64 * 1024, 2, 32)
    dl1: CacheConfig = CacheConfig("DL1", 64 * 1024, 4, 16)
    l2: CacheConfig = CacheConfig("L2", 512 * 1024, 4, 64)
    il1_latency: int = 2
    dl1_latency: int = 2
    l2_latency: int = 8
    memory_latency: int = 50


class MemoryHierarchy:
    """IL1 + DL1 backed by a unified L2 and main memory.

    Latencies accumulate down the hierarchy: an access that misses everywhere
    costs ``l1 + l2 + memory`` cycles, mirroring sim-outorder's serial lookup
    model.  Each access answers with its latency alone; it hit in its L1
    exactly when that is the L1's latency.
    """

    __slots__ = ("config", "il1", "dl1", "l2")

    def __init__(self, config: MemoryHierarchyConfig | None = None):
        self.config = config or MemoryHierarchyConfig()
        self.il1 = Cache(self.config.il1)
        self.dl1 = Cache(self.config.dl1)
        self.l2 = Cache(self.config.l2)

    # ------------------------------------------------------------------
    def fetch(self, pc_addr: int) -> int:
        """Instruction fetch of the line holding *pc_addr*."""
        return self._access(self.il1, self.config.il1_latency, pc_addr)

    def load(self, addr: int) -> int:
        """Data load from *addr*."""
        return self._access(self.dl1, self.config.dl1_latency, addr)

    def store(self, addr: int) -> int:
        """Data store to *addr* (write-allocate: the same walk as a load)."""
        return self._access(self.dl1, self.config.dl1_latency, addr)

    # ------------------------------------------------------------------
    def _access(self, l1: Cache, l1_latency: int, addr: int) -> int:
        if l1.access(addr):
            return l1_latency
        config = self.config
        if self.l2.access(addr):
            return l1_latency + config.l2_latency
        return l1_latency + config.l2_latency + config.memory_latency
