"""Wakeup-logic strategies: conventional, sequential wakeup, tag elimination.

The processor delegates three decisions to the active strategy:

* **side placement** — at insert, which operand sits on the fast wakeup bus
  (sequential wakeup) or keeps its comparator (tag elimination), driven by
  the last-arriving operand predictor;
* **delivery delay** — how many cycles after a tag broadcast each operand's
  comparator observes it (0 on the fast bus, 1 on the slow bus);
* **readiness and issue-time verification** — when an entry may be
  selected, and (for tag elimination) whether an issue was actually legal.

Sequential wakeup never issues an instruction before its operands are
ready, so it needs no verification or recovery; tag elimination does
(Section 3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.iq import IQEntry, Operand
from repro.core.last_arrival import LastArrivalPredictor, OperandSide, StaticLastArrival
from repro.core.scoreboard import Scoreboard
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.pipeline.config import MachineConfig


class WakeupLogic:
    """Base class: conventional wakeup (both comparators on one bus)."""

    name = "base"

    def __init__(self, predictor: LastArrivalPredictor | StaticLastArrival | None = None):
        self.predictor = predictor

    # ------------------------------------------------------------------
    def assign_sides(self, entry: IQEntry) -> None:
        """Fix the fast-bus operand at insert time.

        The base scheduler has no fast/slow distinction; keeping the
        predicted side recorded anyway is free and feeds the statistics.
        """
        if self.predictor is not None and entry.is_two_source:
            entry.predicted_last = self.predictor.predict(entry.op.pc)
            entry.fast_side = entry.predicted_last

    def delivery_delay(self, entry: IQEntry, operand: Operand) -> int:
        """Cycles after broadcast at which *operand* sees the tag."""
        return 0

    def entry_ready(self, entry: IQEntry) -> bool:
        # Flattened all_register_operands_ready() + mem_dep_ready: this is
        # the single most-called predicate in the simulator.
        if not entry.mem_dep_ready:
            return False
        for operand in entry.operands:
            if not operand.ready:
                return False
        return True

    def verify_at_issue(self, entry: IQEntry, scoreboard: Scoreboard, cycle: int) -> bool:
        """Return True if the issue is legal (always, for non-speculative
        wakeup schemes)."""
        return True

    # ------------------------------------------------------------------
    def train(self, entry: IQEntry, last_side: OperandSide | None) -> None:
        """Train the predictor with the observed last-arriving side."""
        if self.predictor is None or last_side is None:
            return
        self.predictor.update(entry.op.pc, last_side)


class SequentialWakeup(WakeupLogic):
    """The paper's sequential wakeup (Section 3.3).

    Only the fast-side comparator is wired to the fast wakeup bus; tags are
    latched and re-broadcast one cycle later on the slow bus for the other
    operand.  A correct last-arriving prediction hides the slow bus behind
    the wakeup slack; mispredictions and simultaneous wakeups cost exactly
    one cycle of issue delay.  Nothing is ever issued before its operands
    are ready, so no detection or recovery machinery exists.
    """

    name = "seq_wakeup"

    def __init__(self, predictor):
        if predictor is None:
            raise ConfigurationError("sequential wakeup needs a placement policy")
        super().__init__(predictor)

    def assign_sides(self, entry: IQEntry) -> None:
        if entry.is_two_source:
            entry.predicted_last = self.predictor.predict(entry.op.pc)
            entry.fast_side = entry.predicted_last

    def delivery_delay(self, entry: IQEntry, operand: Operand) -> int:
        if not entry.is_two_source:
            return 0  # single-operand entries sit on the fast bus
        return 0 if operand.side is entry.fast_side else 1


class TagElimination(WakeupLogic):
    """Tag elimination (Ernst & Austin, ISCA 2002) — the compared baseline.

    The comparator of the predicted-last operand remains; the other
    operand's comparator is removed.  The entry becomes issue-eligible when
    the remaining comparator fires, *speculating* that the eliminated
    operand is already ready.  A scoreboard check after issue detects
    mispredictions, which cost a non-selective replay.

    Modelling note: the eliminated operand's ready bit is still tracked
    internally (standing in for the scoreboard's knowledge); it is ignored
    by the readiness test until the entry has been replayed once, after
    which the scoreboard services readiness, as in the original scheme.
    """

    name = "tag_elim"

    def __init__(self, predictor):
        if predictor is None:
            raise ConfigurationError("tag elimination needs a placement policy")
        super().__init__(predictor)

    def assign_sides(self, entry: IQEntry) -> None:
        if entry.is_two_source:
            entry.predicted_last = self.predictor.predict(entry.op.pc)
            entry.fast_side = entry.predicted_last

    def delivery_delay(self, entry: IQEntry, operand: Operand) -> int:
        # Scoreboard state is modelled by tracking the bit either way; the
        # readiness test below decides whether the bit participates.
        return 0

    def entry_ready(self, entry: IQEntry) -> bool:
        if not entry.mem_dep_ready:
            return False
        if not entry.is_two_source or entry.replays > 0:
            # After a misschedule the scoreboard provides full readiness.
            return entry.all_register_operands_ready()
        # Issue-eligible as soon as the connected comparator fires; the
        # eliminated operand is *speculated* ready (verified after issue).
        connected = entry.operand_on(entry.fast_side)
        return connected.ready

    def verify_at_issue(self, entry: IQEntry, scoreboard: Scoreboard, cycle: int) -> bool:
        if not entry.is_two_source:
            return True
        eliminated = entry.operand_on(entry.fast_side.other)
        if eliminated.ready_at_insert:
            return True
        # The scoreboard checks whether the eliminated operand's value is
        # actually available now.
        return eliminated.ready and scoreboard.is_valid(eliminated.tag)


def make_wakeup_logic(config: "MachineConfig") -> WakeupLogic:
    """Build the wakeup strategy (and predictor) a config asks for."""
    # Imported here to break the core <-> pipeline import cycle.
    from repro.pipeline.config import SchedulerModel

    if config.predictor_entries is None:
        predictor: LastArrivalPredictor | StaticLastArrival = StaticLastArrival()
    else:
        predictor = LastArrivalPredictor(config.predictor_entries)
    if config.scheduler is SchedulerModel.BASE:
        return BaseWakeup(predictor)
    if config.scheduler is SchedulerModel.SEQ_WAKEUP:
        return SequentialWakeup(predictor)
    if config.scheduler is SchedulerModel.TAG_ELIM:
        return TagElimination(predictor)
    raise ConfigurationError(f"unknown scheduler model {config.scheduler}")


#: Alias making the conventional strategy's role explicit in imports.
BaseWakeup = WakeupLogic
