"""Set-associative cache model with true-LRU replacement.

A cache holds only what timing reads: the resident tags of each set in LRU
order (no data, no dirty bits, no counters).  LRU is implemented with
per-set ordered dictionaries: a hit moves the line to the MRU position, a
fill evicts the LRU line.  A set's dictionary is built the first time an
access lands in it: a short simulation touches a small fraction of the
sets, and building thousands of empty containers per processor costs more
than the accesses do.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass

from repro.errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int

    def __post_init__(self):
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ConfigurationError(f"{self.name}: non-positive cache parameter")
        if not _is_power_of_two(self.line_bytes):
            raise ConfigurationError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line = {self.associativity * self.line_bytes}"
            )
        if not _is_power_of_two(self.num_sets):
            raise ConfigurationError(f"{self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


class Cache:
    """One level of set-associative cache with LRU replacement."""

    __slots__ = ("config", "_line_shift", "_set_mask", "_sets")

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        # set index -> resident tags in LRU order (the values are unused)
        self._sets: defaultdict[int, OrderedDict[int, None]] = defaultdict(
            OrderedDict
        )

    def line_address(self, addr: int) -> int:
        """Align *addr* down to its cache-line address."""
        return (addr >> self._line_shift) << self._line_shift

    def access(self, addr: int) -> bool:
        """Look up *addr*; fill on miss, evicting the LRU line of a full
        set.  Returns True on a hit."""
        tag = addr >> self._line_shift
        cache_set = self._sets[tag & self._set_mask]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            return True
        if len(cache_set) >= self.config.associativity:
            cache_set.popitem(last=False)
        cache_set[tag] = None
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        cfg = self.config
        return (
            f"Cache({cfg.name}: {cfg.size_bytes}B {cfg.associativity}-way "
            f"{cfg.line_bytes}B lines)"
        )
