"""Select logic: oldest-first with load/branch priority, per-slot bubbles.

The paper's scheduler (Section 2.1) selects with an oldest-instruction-first
policy, loads and branches outranking other instruction types, older
instructions first within each priority group — mirroring the base
SimpleScalar model.  Each issue slot has its own select logic, so a
sequential register access disables exactly one slot for one cycle
(Section 4.3, Figure 11b).
"""

from __future__ import annotations

from repro.core.iq import PRIORITY_CLASSES, IQEntry

#: Instruction classes with elevated select priority (defined next to the
#: entry so IQEntry can precompute its sort key without an import cycle).
_PRIORITY_CLASSES = tuple(PRIORITY_CLASSES)


def select_priority(entry: IQEntry) -> tuple[int, int]:
    """Sort key implementing the paper's selection policy.

    The key is precomputed at insert (:attr:`IQEntry.select_key`); the
    per-cycle sort in the processor uses the attribute directly.
    """
    return entry.select_key


class Selector:
    """Issue-slot bookkeeping for one machine width.

    Tracks which slots are disabled in the current cycle (by sequential
    register accesses issued the previous cycle) and hands out free slots
    in order.
    """

    __slots__ = ("width", "_disabled_now", "_disable_next",
                 "slots_taken", "bubbles_scheduled")

    def __init__(self, width: int):
        self.width = width
        self._disabled_now = 0
        self._disable_next = 0
        #: lifetime tallies (published post-run, see ``publish_metrics``)
        self.slots_taken = 0
        self.bubbles_scheduled = 0

    # ------------------------------------------------------------------
    def begin_cycle(self) -> None:
        """Rotate slot-disable state at the start of each cycle."""
        self._disabled_now = self._disable_next
        self._disable_next = 0

    def skip_cycles(self) -> None:
        """The clock jumped over cycles that issued nothing.

        A slot disabled by the last issuing cycle is re-enabled after one
        idle cycle, so no slot is disabled when the clock lands.
        """
        self._disabled_now = 0
        self._disable_next = 0

    @property
    def available_slots(self) -> int:
        return self.width - self._disabled_now

    def take_slot(self, bubble_next: bool = False) -> int:
        """Claim one issue slot; optionally disable it for the next cycle.

        Returns the claimed slot index, or -1 when every slot this cycle is
        already claimed or disabled.
        """
        if self._disabled_now >= self.width:
            return -1
        slot = self._disabled_now
        self._disabled_now += 1
        self.slots_taken += 1
        if bubble_next:
            self._disable_next += 1
            self.bubbles_scheduled += 1
        return slot

    def order(self, ready_entries: list[IQEntry]) -> list[IQEntry]:
        """Return candidates in selection order."""
        return sorted(ready_entries, key=select_priority)

    def publish_metrics(self, registry, prefix: str = "select") -> None:
        """Copy the select-logic tallies into a MetricsRegistry (post-run)."""
        registry.counter(f"{prefix}.slots_taken").set(self.slots_taken)
        registry.counter(f"{prefix}.bubbles_scheduled").set(self.bubbles_scheduled)
