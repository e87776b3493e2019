"""Select logic: oldest-first with load/branch priority, per-slot bubbles.

The paper's scheduler (Section 2.1) selects with an oldest-instruction-first
policy, loads and branches outranking other instruction types, older
instructions first within each priority group — mirroring the base
SimpleScalar model.  That order is one sort key, precomputed per entry at
insert (:attr:`repro.core.iq.IQEntry.select_key`), by which the processor
sorts its ready set.  Each issue slot has its own select logic, so a
sequential register access disables exactly one slot for one cycle
(Section 4.3, Figure 11b).
"""

from __future__ import annotations


class Selector:
    """Issue-slot bookkeeping for one machine width.

    Tracks which slots are disabled in the current cycle (by sequential
    register accesses issued the previous cycle) and hands out free slots
    in order.
    """

    __slots__ = ("width", "_disabled_now", "_disable_next")

    def __init__(self, width: int):
        self.width = width
        self._disabled_now = 0
        self._disable_next = 0

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
        if bubble_next:
            self._disable_next += 1
        return slot
