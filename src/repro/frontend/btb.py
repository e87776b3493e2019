"""Branch target buffer: a small set-associative cache of branch targets."""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from repro.errors import ConfigurationError


class BranchTargetBuffer:
    """Set-associative, LRU-replaced PC -> target map (Table 1: 1k 4-way)."""

    def __init__(self, entries: int = 1024, associativity: int = 4):
        if entries <= 0 or associativity <= 0 or entries % associativity:
            raise ConfigurationError("BTB entries must divide by associativity")
        num_sets = entries // associativity
        if num_sets & (num_sets - 1):
            raise ConfigurationError("BTB set count must be a power of two")
        self.entries = entries
        self.associativity = associativity
        self._set_mask = num_sets - 1
        # set index -> pc -> target in LRU order, built on first install
        # (as in repro.memory.cache.Cache); lookups use .get() and never
        # create a set
        self._sets: defaultdict[int, OrderedDict[int, int]] = defaultdict(
            OrderedDict
        )

    def lookup(self, pc: int) -> int | None:
        """Return the stored target for *pc*, or None on a BTB miss."""
        btb_set = self._sets.get(pc & self._set_mask)
        if btb_set is None:
            return None
        target = btb_set.get(pc)
        if target is not None:
            btb_set.move_to_end(pc)
        return target

    def install(self, pc: int, target: int) -> None:
        """Record that the branch at *pc* last went to *target*."""
        btb_set = self._sets[pc & self._set_mask]
        if pc not in btb_set and len(btb_set) >= self.associativity:
            btb_set.popitem(last=False)
        btb_set[pc] = target
        btb_set.move_to_end(pc)

