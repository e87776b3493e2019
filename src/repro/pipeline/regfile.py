"""Register file read-port policies (Sections 4 and 5.2).

Four organizations are modelled, matching Figure 15's competitors:

* **BASE** — two read ports per issue slot; reads are never a constraint.
* **SEQUENTIAL** — one port per slot.  A 2-source instruction whose two
  operands both need the register file (no ``now`` bit: neither value will
  be on the bypass) performs two sequential reads: +1 cycle of latency and
  a one-cycle bubble in its own issue slot.
* **EXTRA_STAGE** — two ports per slot but one extra RF pipeline stage
  (handled by ``MachineConfig.exec_offset``); no port constraints here.
* **CROSSBAR** — half the total ports (``width``) shared by all slots
  through a crossbar with *global* arbitration: selection is throttled when
  the aggregate read demand of selected instructions exceeds the ports.
"""

from __future__ import annotations

from repro.core.iq import IQEntry
from repro.pipeline.config import MachineConfig, RegFileModel, SchedulerModel


class RegisterFilePolicy:
    """Issue-time read-port accounting for one machine configuration."""

    __slots__ = ("width", "crossbar", "sequential", "fast_side_now_only",
                 "_ports_used")

    def __init__(self, config: MachineConfig):
        self.width = config.width
        #: the only models with issue-time work (the loop skips the calls
        #: for the others: :meth:`try_reserve` always grants, and
        #: :meth:`decide_sequential_access` always says no)
        self.crossbar = config.regfile is RegFileModel.CROSSBAR
        self.sequential = config.regfile is RegFileModel.SEQUENTIAL
        #: in the combined machine only the fast-side ``now`` bit exists
        #: (Section 5.3: the wakeup logic drops ``nowR``)
        self.fast_side_now_only = (
            config.scheduler is SchedulerModel.SEQ_WAKEUP
            and config.regfile is RegFileModel.SEQUENTIAL
        )
        self._ports_used = 0

    def begin_cycle(self) -> None:
        self._ports_used = 0

    # ------------------------------------------------------------------
    def reads_needed(self, entry: IQEntry, now: int) -> int:
        """Register-file reads this instruction needs if issued at *now*.

        An operand woken in the select cycle is guaranteed to come off the
        bypass network (one-cycle bypass window); anything else — ready at
        insert, or woken earlier than the select cycle — must be read from
        the register file.
        """
        return sum(1 for operand in entry.operands if not operand.woke_now(now))

    def has_now_bit(self, entry: IQEntry, now: int) -> bool:
        """Is any (visible) ``now`` bit set for this entry at select time?"""
        for operand in entry.operands:
            if self.fast_side_now_only and operand.side is not entry.fast_side:
                continue  # nowR removed in the combined machine
            if operand.woke_now(now):
                return True
        return False

    def decide_sequential_access(self, entry: IQEntry, now: int) -> bool:
        """Figure 11a: does this instruction need two sequential reads?"""
        if not self.sequential:
            return False
        if len(entry.operands) < 2:
            return False
        return not self.has_now_bit(entry, now)

    # ------------------------------------------------------------------
    def try_reserve(self, entry: IQEntry, now: int) -> bool:
        """Crossbar arbitration: claim global read ports for this issue."""
        if not self.crossbar:
            return True
        needed = self.reads_needed(entry, now)
        if self._ports_used + needed > self.width:
            return False
        self._ports_used += needed
        return True
