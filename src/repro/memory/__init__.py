"""Memory system substrate: set-associative caches and the paper's hierarchy.

A cache keeps only its resident tags in LRU order, and the hierarchy answers
each access with its latency; nothing is counted.

Table 1 of the paper specifies:

* 64 KB 2-way, 32 B line IL1 (2-cycle latency)
* 64 KB 4-way, 16 B line DL1 (2-cycle latency)
* 512 KB 4-way, 64 B line unified L2 (8-cycle latency)
* main memory at 50 cycles
"""

from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import MemoryHierarchy, MemoryHierarchyConfig

__all__ = [
    "Cache",
    "CacheConfig",
    "MemoryHierarchy",
    "MemoryHierarchyConfig",
]
