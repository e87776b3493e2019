"""Simulation statistics: every counter the paper's figures need.

The recorder is fed by the processor at well-defined points:

* dispatch — Figure 4 (ready operands at insert) and stream composition;
* wakeup — Figure 6 (wakeup slack), Table 3 (order stability, left/right),
  Figure 7 (shadow predictor bank);
* issue — Figure 10 (register access categories), technique penalties;
* commit — IPC and final per-instruction categories.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.last_arrival import (
    LEFT,
    DesignComparisonBank,
    OperandSide,
    ShadowPredictorBank,
)

#: Canonical list of the plain-integer counters on :class:`SimStats`.
#: Single source of truth for the result cache's record format and the
#: stats export (:mod:`repro.obs.export`) — a counter added here is
#: persisted, exported and gated automatically.
STAT_COUNTER_FIELDS = (
    "cycles",
    "committed",
    "fetched",
    "dispatched",
    "issued",
    "replayed",
    "load_miss_replays",
    "tag_elim_misschedules",
    "branch_mispredicts",
    "branches",
    "two_source_dispatched",
    "two_pending_observed",
    "rf_back_to_back",
    "rf_two_ready",
    "rf_non_back_to_back",
    "seq_wakeup_slow_initiations",
    "simultaneous_wakeups",
    "last_arrival_mispredictions",
    "last_arrival_predictions",
    "sequential_rf_accesses",
    "rename_port_stalls",
    "double_bypass_delays",
)


@dataclass
class WakeupOrderStats:
    """Table 3: wakeup-order stability and last-arriving side split."""

    same_order: int = 0
    diff_order: int = 0
    last_left: int = 0
    last_right: int = 0
    simultaneous: int = 0
    _history: dict[int, OperandSide] = field(default_factory=dict, repr=False)

    def observe(self, pc: int, last_side: OperandSide | None) -> None:
        if last_side is None:
            self.simultaneous += 1
            return
        if last_side is LEFT:
            self.last_left += 1
        else:
            self.last_right += 1
        previous = self._history.get(pc)
        if previous is not None:
            if previous is last_side:
                self.same_order += 1
            else:
                self.diff_order += 1
        self._history[pc] = last_side

    @property
    def frac_same(self) -> float:
        total = self.same_order + self.diff_order
        return self.same_order / total if total else 0.0

    @property
    def frac_last_left(self) -> float:
        total = self.last_left + self.last_right
        return self.last_left / total if total else 0.0

    def reset(self) -> None:
        """Zero the counters but keep the per-PC history warm."""
        self.same_order = self.diff_order = 0
        self.last_left = self.last_right = self.simultaneous = 0


@dataclass
class SimStats:
    """All counters for one simulation run."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    dispatched: int = 0
    issued: int = 0
    replayed: int = 0          # issue slots consumed then squashed
    load_miss_replays: int = 0  # kill events from load latency misses
    tag_elim_misschedules: int = 0
    branch_mispredicts: int = 0
    branches: int = 0

    # ---- Figure 4: ready operands of 2-source instructions at insert ----
    two_source_dispatched: int = 0
    ready_at_insert: Counter = field(default_factory=Counter)  # 0/1/2 -> count

    # ---- Figure 6: wakeup slack of 2-pending-source instructions --------
    wakeup_slack: Counter = field(default_factory=Counter)     # slack -> count
    two_pending_observed: int = 0

    # ---- Table 3 --------------------------------------------------------
    order: WakeupOrderStats = field(default_factory=WakeupOrderStats)

    # ---- Figure 7: shadow predictor bank (optional) ----------------------
    shadow_bank: ShadowPredictorBank | None = None
    # ---- Section 3.2 predictor design comparison (optional) --------------
    design_bank: "DesignComparisonBank | None" = None

    # ---- Figure 10: register access categories of 2-source instructions -
    rf_back_to_back: int = 0
    rf_two_ready: int = 0
    rf_non_back_to_back: int = 0

    # ---- technique penalty accounting ------------------------------------
    seq_wakeup_slow_initiations: int = 0   # issue initiated by the slow bus
    simultaneous_wakeups: int = 0
    last_arrival_mispredictions: int = 0
    last_arrival_predictions: int = 0
    sequential_rf_accesses: int = 0        # instructions paying the 2-read penalty
    # ---- Section 6 future-work extensions --------------------------------
    rename_port_stalls: int = 0            # dispatches deferred by rename ports
    double_bypass_delays: int = 0          # half-bypass +1 latency events

    # ----------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def frac_two_pending(self) -> float:
        """Fraction of 2-source instructions with 0 ready operands at insert."""
        if not self.two_source_dispatched:
            return 0.0
        return self.ready_at_insert[0] / self.two_source_dispatched

    @property
    def frac_simultaneous(self) -> float:
        """Figure 6: simultaneous wakeups / 2-pending-source instructions."""
        if not self.two_pending_observed:
            return 0.0
        return self.wakeup_slack[0] / self.two_pending_observed

    @property
    def frac_two_rf_reads(self) -> float:
        """Figure 10 bottom bars: instructions needing two RF port reads,
        as a fraction of committed instructions."""
        if not self.committed:
            return 0.0
        return (self.rf_two_ready + self.rf_non_back_to_back) / self.committed

    @property
    def predictor_accuracy(self) -> float:
        if not self.last_arrival_predictions:
            return 0.0
        return 1.0 - self.last_arrival_mispredictions / self.last_arrival_predictions

    @property
    def branch_mispredict_rate(self) -> float:
        return self.branch_mispredicts / self.branches if self.branches else 0.0

    # ----------------------------------------------------------------------
    def record_dispatch(self, is_two_source: bool, ready_count: int) -> None:
        self.dispatched += 1
        if is_two_source:
            self.two_source_dispatched += 1
            self.ready_at_insert[ready_count] += 1

    def record_wakeup_pair(
        self,
        pc: int,
        slack: int,
        last_side: OperandSide | None,
    ) -> None:
        """Both operands of a 2-pending-source instruction have arrived."""
        self.two_pending_observed += 1
        self.wakeup_slack[min(slack, 8)] += 1
        self.order.observe(pc, last_side)
        if self.shadow_bank is not None:
            self.shadow_bank.observe(pc, last_side)

    def record_rf_category(self, category: str) -> None:
        if category == "back_to_back":
            self.rf_back_to_back += 1
        elif category == "two_ready":
            self.rf_two_ready += 1
        elif category == "non_back_to_back":
            self.rf_non_back_to_back += 1
        else:
            raise ValueError(f"unknown register access category {category!r}")

    def reset_window(self) -> None:
        """Reset measurement counters at the warmup boundary.

        Structural state that should stay warm (per-PC order history, shadow
        predictors' tables) is preserved; only counters restart.
        """
        self.cycles = 0
        self.committed = 0
        self.fetched = 0
        self.dispatched = 0
        self.issued = 0
        self.replayed = 0
        self.load_miss_replays = 0
        self.tag_elim_misschedules = 0
        self.branch_mispredicts = 0
        self.branches = 0
        self.two_source_dispatched = 0
        self.ready_at_insert.clear()
        self.wakeup_slack.clear()
        self.two_pending_observed = 0
        self.order.reset()
        self.rf_back_to_back = 0
        self.rf_two_ready = 0
        self.rf_non_back_to_back = 0
        self.seq_wakeup_slow_initiations = 0
        self.simultaneous_wakeups = 0
        self.last_arrival_mispredictions = 0
        self.last_arrival_predictions = 0
        self.sequential_rf_accesses = 0
        self.rename_port_stalls = 0
        self.double_bypass_delays = 0
