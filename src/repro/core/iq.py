"""Issue queue entries and per-operand wakeup state.

An :class:`IQEntry` models one scheduler entry: up to two register source
operands (each with ready/now bits and a fast/slow side assignment), plus an
optional memory dependence (store-to-load forwarding) that real hardware
tracks in the LSQ rather than on the wakeup bus.
"""

from __future__ import annotations

import enum

from repro.core.last_arrival import OperandSide
from repro.isa.opcodes import OpClass
from repro.workloads.trace import DynOp

#: Instruction classes with elevated select priority (the paper's
#: oldest-first policy with loads and branches outranking the rest; the
#: select logic in :mod:`repro.core.select` re-exports this).
PRIORITY_CLASSES = frozenset((OpClass.LOAD, OpClass.BRANCH, OpClass.JUMP))

#: OpClass.idx -> select-key rank (0 = priority class, 1 = the rest).
_RANK_BY_IDX: tuple[int, ...] = tuple(
    0 if op_class in PRIORITY_CLASSES else 1 for op_class in OpClass
)


class EntryState(enum.Enum):
    """Lifecycle of an issue-queue entry."""

    WAITING = "waiting"      # in the scheduler, not yet selected
    ISSUED = "issued"        # selected; replayable until freed
    COMPLETED = "completed"  # executed; result architecturally final
    SQUASHED = "squashed"    # transient: pulled back, about to re-wait


# Members bound once as module constants for the cycle loop: on CPython
# 3.11 ``EntryState.WAITING`` goes through ``EnumType.__getattr__``
# (over 100 ns) where a global load costs a few.
WAITING = EntryState.WAITING
ISSUED = EntryState.ISSUED
COMPLETED = EntryState.COMPLETED


class Operand:
    """One register source operand of an issue queue entry."""

    __slots__ = (
        "tag",
        "side",
        "ready",
        "ready_cycle",
        "ready_at_insert",
        "first_wake_cycle",
        "arrival_cycle",
        "matrix",
    )

    def __init__(self, tag: int | None, side: OperandSide):
        #: producing instruction's tag, or None if the value was already
        #: valid at rename time (architectural value)
        self.tag = tag
        self.side = side
        self.ready = tag is None
        #: cycle the ready bit was (last) set; insert cycle for insert-ready
        self.ready_cycle = -1
        self.ready_at_insert = tag is None
        #: first cycle a wakeup was delivered (stats; never reset by replay)
        self.first_wake_cycle: int | None = None
        #: first cycle the producing tag broadcast (stats; side-independent)
        self.arrival_cycle: int | None = None
        #: Figure 5 dependence matrix delivered with the wakeup (None when
        #: the machinery is off or the operand has no bus comparator)
        self.matrix = None

    def wake(self, cycle: int) -> None:
        self.ready = True
        self.ready_cycle = cycle
        if self.first_wake_cycle is None:
            self.first_wake_cycle = cycle

    def unwake(self) -> None:
        """Clear readiness after the producing broadcast was invalidated."""
        self.ready = False
        self.ready_cycle = -1
        self.matrix = None

    def woke_now(self, cycle: int) -> bool:
        """The Figure 11 ``now`` bit: tag matched in this very cycle."""
        return self.ready and self.ready_cycle == cycle and not self.ready_at_insert


class IQEntry:
    """One instruction in the scheduler window."""

    __slots__ = (
        "op",
        "tag",
        "operands",
        "mem_dep_tag",
        "mem_dep_ready",
        "state",
        "insert_cycle",
        "issue_cycle",
        "complete_cycle",
        "predicted_last",
        "fast_side",
        "replays",
        "forwarded",
        "mem_fill_cycle",
        "stat_ready_at_insert",
        "stat_wakeup_recorded",
        "epoch",
        "eligible_cycle",
        "in_ready",
        "rf_category",
        "slot",
        "select_key",
        "is_two_source",
    )

    def __init__(
        self,
        op: DynOp,
        tag: int,
        operands: list[Operand],
        insert_cycle: int,
        predicted_last: OperandSide = OperandSide.RIGHT,
    ):
        self.op = op
        self.tag = tag
        self.operands = operands
        #: the operand list is fixed for the entry's lifetime, so this is a
        #: plain attribute rather than a property (hot in wakeup logic)
        self.is_two_source = len(operands) == 2
        self.mem_dep_tag: int | None = None
        self.mem_dep_ready = True
        self.state = WAITING
        self.insert_cycle = insert_cycle
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.predicted_last = predicted_last
        #: which operand side sits on the fast wakeup bus (sequential
        #: wakeup) or keeps its comparator (tag elimination)
        self.fast_side = predicted_last
        self.replays = 0
        #: load got its value from an older in-flight store (LSQ forward)
        self.forwarded = False
        #: absolute cycle the load's data arrives (loads only; set at the
        #: first issue — the line fill stays in flight across replays)
        self.mem_fill_cycle: int | None = None
        # -- statistics captured once, at first events ------------------
        ready_at_insert = 0
        for operand in operands:
            if operand.ready_at_insert:
                ready_at_insert += 1
        self.stat_ready_at_insert = ready_at_insert
        self.stat_wakeup_recorded = False
        #: incremented on every (re)issue; guards stale scheduled events
        self.epoch = 0
        #: earliest cycle the entry may be selected (post-replay throttle)
        self.eligible_cycle = insert_cycle + 1
        #: whether the entry currently sits in the scheduler's ready set
        self.in_ready = False
        #: Figure 10 category stamped at (final) issue
        self.rf_category: str | None = None
        #: issue slot taken at the most recent issue (Figure 5 column)
        self.slot = -1
        #: precomputed selection-order key (priority class, then age);
        #: immutable over the entry's lifetime, so the per-cycle candidate
        #: sort avoids recomputing it
        self.select_key = (_RANK_BY_IDX[op.op_class.idx], tag)

    # ------------------------------------------------------------------
    @property
    def is_two_pending(self) -> bool:
        """Two operands, neither ready at insert (Figure 4 bottom bars)."""
        return self.is_two_source and self.stat_ready_at_insert == 0

    def operand_on(self, side: OperandSide) -> Operand | None:
        for operand in self.operands:
            if operand.side is side:
                return operand
        return None

    def all_register_operands_ready(self) -> bool:
        # Explicit loop: a generator expression costs a frame per call, and
        # this sits on the wakeup/select critical path.
        for operand in self.operands:
            if not operand.ready:
                return False
        return True

    def reset_for_replay(self, scoreboard_valid) -> None:
        """Return the entry to WAITING after a scheduling replay.

        ``scoreboard_valid(tag, ready_cycle)`` reports whether the broadcast
        that satisfied an operand is still valid; operands satisfied by
        squashed producers lose their ready bits.
        """
        self.state = WAITING
        self.issue_cycle = -1
        self.replays += 1
        for operand in self.operands:
            if operand.ready and operand.tag is not None:
                if not scoreboard_valid(operand.tag):
                    operand.unwake()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"IQEntry(tag={self.tag}, {self.op.opcode}, state={self.state.value}, "
            f"ops={[(o.tag, o.ready) for o in self.operands]})"
        )
