"""Cycle-level out-of-order processor (the paper's Figure 1 base machine).

The simulator is execution/trace-driven: it pulls a correct-path
:class:`~repro.workloads.trace.DynOp` stream and models timing — fetch with
branch prediction and IL1, dispatch/rename into an RUU-style window,
atomic wakeup+select scheduling with **speculative load scheduling** and
configurable replay, functional-unit and register-port constraints, and
in-order commit.

Scheduling timing convention: an instruction selected in cycle *t* with
issue-to-use latency *L* broadcasts its destination tag in cycle *t + L*;
consumers woken by that broadcast may be selected in the same cycle (atomic
wakeup+select), so dependent issue distance equals *L* exactly, as in the
paper's Figure 9/12 examples.

Implementation note: the inner loop is written for CPython speed — event
calendars are :class:`~repro.core.event_ring.EventRing` buckets instead of
dicts, selection sorts on a precomputed key, and hot methods hoist
attribute lookups into locals.  Enum members are module constants
(``WAITING``, ``LEFT``, ...) and configuration enums become booleans
here, because an ``EnumType`` attribute lookup costs over 100 ns on
CPython 3.11.  The phases skip work that cannot matter: a cycle with an
empty ready set leaves the functional units' per-cycle state alone, and
the rarely used kill and slow-wakeup calendars are popped only while
they hold events; ``run()`` still calls all five phases on every cycle
it does not skip.  After a cycle that leaves nothing ready and nothing
to commit, :meth:`Processor._fast_forward` jumps the clock to the next
cycle in which an event, a dispatch, a fetch or the watchdog can act, as
the native loop does; most cycles of a short run are such dead cycles.
None of this changes simulated timing;
``tests/analysis/test_parallel_and_cache.py`` pins cycle-exact
determinism, ``tests/trace/test_corpus.py`` pins the results of every
committed trace, and ``tests/pipeline/test_fast_forward.py`` checks the
fast-forward against a loop that steps every cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from repro.core.dependence_matrix import DependenceMatrix
from repro.core.event_ring import EventRing
from repro.core.iq import COMPLETED, ISSUED, WAITING, IQEntry, Operand
from repro.core.last_arrival import (
    LEFT,
    RIGHT,
    DesignComparisonBank,
    OperandSide,
    ShadowPredictorBank,
)
from repro.core.scoreboard import Scoreboard
from repro.core.select import Selector
from repro.core.wakeup import make_wakeup_logic
from repro.errors import SimulationError
from repro.frontend.branch_unit import BranchUnit
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import (
    BypassModel,
    MachineConfig,
    RecoveryModel,
    RenameModel,
    SchedulerModel,
)
from repro.pipeline.fu import FunctionalUnits
from repro.pipeline.lsq import LoadStoreQueue
from repro.pipeline.regfile import RegisterFilePolicy
from repro.pipeline.rob import ReorderBuffer
from repro.pipeline.stats import SimStats
from repro.workloads.trace import DynOp

#: Version stamp of the timing model, embedded in persisted result-cache
#: fingerprints (see :mod:`repro.analysis.cache`).  **Bump this whenever a
#: change alters simulated timing or statistics**, so stale on-disk results
#: are never served.
TIMING_MODEL_VERSION = 1

#: Abort if no instruction commits for this many cycles (deadlock guard).
_WATCHDOG_CYCLES = 50_000

_SELECT_KEY = attrgetter("select_key")


class _Kill:
    """A scheduled replay event (load miss or tag-elim misschedule)."""

    __slots__ = ("root", "epoch", "window", "squash_root")

    def __init__(self, root: IQEntry, epoch: int, window: tuple[int, int] | None, squash_root: bool):
        self.root = root
        self.epoch = epoch
        self.window = window
        self.squash_root = squash_root


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    config_name: str
    workload_name: str
    stats: SimStats
    total_committed: int
    total_cycles: int

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class Processor:
    """One simulated machine instance bound to one instruction feed."""

    __slots__ = (
        "config",
        "feed",
        "stats",
        "scoreboard",
        "wakeup",
        "selector",
        "fu",
        "rf_policy",
        "branch_unit",
        "memory",
        "rob",
        "lsq",
        "now",
        "_rename",
        "_ready",
        "_frontend",
        "_predictions",
        "_feed_iter",
        "_next_op",
        "_next_tag",
        "_feed_done",
        "_fetch_stalled_until",
        "_fetch_blocked_on",
        "_last_fetch_line",
        "_pc_address",
        "_broadcasts",
        "_slow_wakeups",
        "_completions",
        "_kills",
        "_total_committed",
        "_last_commit_cycle",
        "_non_selective",
        "_half_rename",
        "_half_bypass",
        "_use_matrix",
        "_tag_elim",
        "_seq_wakeup",
        "_crossbar_rf",
        "_sequential_rf",
        "_matrix_depth",
        "_active_kill_bit",
        "matrix_mismatches",
        "trace",
        "profiler",
        "checker",
        # -- hoisted hot-path bindings (see end of __init__) -------------
        "_entry_ready",
        "_verify_at_issue",
        "_lat_for_class",
        "_width",
        "_front_depth",
        "_exec_offset",
        "_agen_lat",
        "_assumed_load_latency",
        "_load_spec_window",
        "_tag_elim_detect",
        "_dl1_latency",
        "_pop_broadcasts",
        "_pop_completions",
    )

    def __init__(
        self,
        feed,
        config: MachineConfig,
        shadow_sizes: tuple[int, ...] | None = None,
        record_schedule: bool = False,
        profile: bool = False,
        check: bool = False,
    ):
        self.config = config
        self.feed = feed
        self.stats = SimStats()
        if shadow_sizes:
            self.stats.shadow_bank = ShadowPredictorBank(shadow_sizes)
            self.stats.design_bank = DesignComparisonBank()
        self.scoreboard = Scoreboard()
        self.wakeup = make_wakeup_logic(config)
        self.selector = Selector(config.width)
        self.fu = FunctionalUnits(config.fu, config.lat)
        self.rf_policy = RegisterFilePolicy(config)
        self.branch_unit = BranchUnit()
        self.memory = MemoryHierarchy(config.mem)
        self.rob = ReorderBuffer(config.ruu_size)
        self.lsq = LoadStoreQueue(config.lsq_size)

        self.now = 0
        self._rename: dict[int, int | None] = {}
        self._ready: dict[int, IQEntry] = {}
        # (arrive_cycle, tag, op); the tag is the op's fetch-order number
        self._frontend: deque[tuple[int, int, DynOp]] = deque()
        self._predictions: dict[int, object] = {}

        self._feed_iter = iter(feed)
        self._next_op: DynOp | None = None
        self._next_tag = 0
        self._feed_done = False
        self._fetch_stalled_until = 0
        self._fetch_blocked_on: int | None = None
        self._last_fetch_line = -1
        self._pc_address = getattr(feed, "pc_address", lambda pc: pc * 4)

        # Event calendars: one ring bucket per future cycle up to the
        # config's event horizon; later events spill into overflow dicts.
        horizon = config.event_horizon
        self._broadcasts = EventRing(horizon)
        self._slow_wakeups = EventRing(horizon)
        self._completions = EventRing(horizon)
        self._kills = EventRing(horizon)

        self._total_committed = 0
        self._last_commit_cycle = 0
        self._non_selective = config.recovery is RecoveryModel.NON_SELECTIVE
        self._half_rename = config.rename is RenameModel.HALF_PORTS
        self._half_bypass = config.bypass is BypassModel.HALF
        self._tag_elim = config.scheduler is SchedulerModel.TAG_ELIM
        self._seq_wakeup = config.scheduler is SchedulerModel.SEQ_WAKEUP
        self._crossbar_rf = self.rf_policy.crossbar
        self._sequential_rf = self.rf_policy.sequential
        # Figure 5 dependence-matrix machinery (cross-checked vs cascade).
        self._use_matrix = config.use_dependence_matrix
        self._matrix_depth = config.exec_offset + config.load_spec_window + 2
        self._active_kill_bit: tuple[int, int] | None = None
        self.matrix_mismatches = 0
        #: per-instruction timing trace (tests and debugging), keyed by
        #: fetch-order tag: tag -> event dict
        self.trace: dict[int, dict] | None = {} if record_schedule else None
        #: per-stage wall-time profiler; built (and the phase methods
        #: wrapped) only when asked for, so the default loop pays nothing.
        if profile:
            from repro.obs.registry import StageProfiler

            self.profiler: "StageProfiler | None" = StageProfiler()
        else:
            self.profiler = None
        #: differential/invariant checker (repro.verify); built only when
        #: asked for — the default loop pays one ``is not None`` test at
        #: issue, commit and kill, nothing per cycle.
        if check:
            from repro.verify.checker import PipelineChecker

            self.checker: "PipelineChecker | None" = PipelineChecker(self)
        else:
            self.checker = None

        # Hot-path bindings: pre-resolved bound methods and config scalars,
        # saving an attribute-chain walk per use inside the cycle loop.
        self._entry_ready = self.wakeup.entry_ready
        self._verify_at_issue = self.wakeup.verify_at_issue
        self._lat_for_class = config.lat.for_class
        self._width = config.width
        self._front_depth = config.front_depth
        self._exec_offset = config.exec_offset
        self._agen_lat = config.lat.agen
        self._assumed_load_latency = config.assumed_load_latency
        self._load_spec_window = config.load_spec_window
        self._tag_elim_detect = config.tag_elim_detect_delay
        self._dl1_latency = config.mem.dl1_latency
        self._pop_broadcasts = self._broadcasts.pop
        self._pop_completions = self._completions.pop

    # ==================================================================
    # Main loop.
    # ==================================================================
    def run(self, max_insts: int, warmup: int = 0) -> SimulationResult:
        """Simulate until *max_insts* instructions commit after warmup."""
        measured_started = warmup == 0
        budget = max_insts + warmup
        stats = self.stats
        process_events = self._process_events
        select_and_issue = self._select_and_issue
        dispatch = self._dispatch
        fetch = self._fetch
        commit = self._commit
        if self.profiler is not None:
            # Wall-time the five phases.  Only the profiled path pays the
            # perf_counter pair per phase call; the bindings above stay the
            # raw bound methods otherwise.
            wrap = self.profiler.wrap
            process_events = wrap("process_events", process_events)
            select_and_issue = wrap("select_and_issue", select_and_issue)
            dispatch = wrap("dispatch", dispatch)
            fetch = wrap("fetch", fetch)
            commit = wrap("commit", commit)
        rob = self.rob
        frontend = self._frontend
        ready = self._ready
        fast_forward = self._fast_forward
        while True:
            self.now += 1
            process_events()
            select_and_issue()
            dispatch()
            fetch()
            commit()
            stats.cycles += 1
            committed = self._total_committed
            if not measured_started and committed >= warmup:
                stats.reset_window()
                measured_started = True
            if committed >= budget:
                break
            if self._feed_done and not frontend and rob.empty:
                break
            if self.now - self._last_commit_cycle > _WATCHDOG_CYCLES:
                error = SimulationError(
                    f"no commit for {_WATCHDOG_CYCLES} cycles at cycle {self.now} "
                    f"(head={self.rob.head()!r})"
                )
                # Deadlock *cycle* is part of the cross-backend parity
                # surface (messages differ in head formatting, the cycle
                # must not).
                error.cycle = self.now
                raise error
            if not ready and not rob.committable():
                fast_forward()
        return SimulationResult(
            config_name=self.config.name,
            workload_name=getattr(self.feed, "name", "workload"),
            stats=self.stats,
            total_committed=self._total_committed,
            total_cycles=self.now,
        )

    def _fast_forward(self) -> None:
        """Move the clock over cycles in which nothing can happen.

        Called after a cycle that left the ready set empty and the ROB head
        unable to commit.  The next live cycle is the earliest of: the
        first due event, the arrival of the frontend head, the end of a
        fetch stall (when fetch is neither blocked nor done) and the
        watchdog deadline.  Every cycle before it would run the five
        phases without changing any state but the cycle count and the
        selector's slot-disable rotation, so the clock jumps there, as
        the native loop does.
        """
        now = self.now
        target = self._last_commit_cycle + _WATCHDOG_CYCLES + 1
        frontend = self._frontend
        if frontend:
            target = min(target, frontend[0][0])
        if not self._feed_done and self._fetch_blocked_on is None:
            target = min(target, self._fetch_stalled_until)
        if target <= now + 1:
            return
        for ring in (self._completions, self._broadcasts, self._slow_wakeups,
                     self._kills):
            if ring.pending:
                target = ring.next_due(now, target)
        if target <= now + 1:
            return  # an event is due next cycle
        skipped = target - now - 1
        self.now = target - 1
        self.stats.cycles += skipped
        self.selector.skip_cycles()
        if self.profiler is not None:
            self.profiler.skip(skipped)

    # ==================================================================
    # Phase 1: event delivery (kills, wakeups, completions).
    # ==================================================================
    def _process_events(self) -> None:
        now = self.now
        # Kills and slow-bus wakeups are rare: most cycles find both
        # calendars empty without a call.
        kills = self._kills
        if kills.pending:
            for kill in kills.pop(now):
                self._process_kill(kill)
        slow_wakeups = self._slow_wakeups
        if slow_wakeups.pending:
            for entry, op_index, tag in slow_wakeups.pop(now):
                self._deliver_slow(entry, op_index, tag)
        for entry, epoch in self._pop_broadcasts(now):
            if entry.epoch == epoch:
                self._broadcast(entry)
        for entry, epoch in self._pop_completions(now):
            if entry.epoch == epoch and entry.state is ISSUED:
                entry.state = COMPLETED
                entry.complete_cycle = now
                if entry.op.is_control:
                    self._resolve_branch(entry)

    def _broadcast_matrix(self, producer: IQEntry) -> DependenceMatrix:
        """Figure 5 bus payload: ancestors of *producer*, plus itself."""
        payload = DependenceMatrix(self._matrix_depth)
        for operand in producer.operands:
            if operand.matrix is not None:
                payload.merge(operand.matrix)
        payload.add_ancestor(producer.issue_cycle, producer.slot)
        payload.prune(self.now)
        return payload

    def _operand_has_comparator(self, entry: IQEntry, operand: Operand) -> bool:
        """Does this operand observe the bus (and thus receive matrices)?

        Under tag elimination the non-predicted operand's comparator is
        removed — the exact reason the paper gives for its incompatibility
        with selective recovery (Section 3.1).
        """
        if not self._tag_elim:
            return True
        if not entry.is_two_source:
            return True
        return operand.side is entry.fast_side

    def _broadcast(self, producer: IQEntry) -> None:
        """Deliver a destination-tag broadcast to all registered consumers."""
        now = self.now
        tag = producer.tag
        record = self.scoreboard.mark_broadcast(tag, now)
        if record is None:
            return
        use_matrix = self._use_matrix
        if use_matrix:
            record.matrix_payload = self._broadcast_matrix(producer)
        # Only sequential wakeup has a slow bus; elsewhere every operand
        # sees the tag now.
        delivery_delay = self.wakeup.delivery_delay if self._seq_wakeup else None
        entry_ready = self._entry_ready
        ready = self._ready
        for entry, op_index in record.consumers:
            if op_index < 0:
                if entry.mem_dep_tag == tag and not entry.mem_dep_ready:
                    entry.mem_dep_ready = True
                    self._maybe_ready(entry)
                continue
            operand = entry.operands[op_index]
            if operand.tag != tag:
                continue
            if operand.arrival_cycle is None:
                operand.arrival_cycle = now
                if entry.is_two_source and not entry.stat_wakeup_recorded:
                    self._maybe_record_wakeup_pair(entry)
            if operand.ready:
                continue
            if delivery_delay is not None:
                delay = delivery_delay(entry, operand)
                if delay:
                    self._slow_wakeups.schedule(now, now + delay, (entry, op_index, tag))
                    continue
            # Operand.wake and _maybe_ready, inlined (once per wakeup).
            operand.ready = True
            operand.ready_cycle = now
            if operand.first_wake_cycle is None:
                operand.first_wake_cycle = now
            if use_matrix and self._operand_has_comparator(entry, operand):
                operand.matrix = record.matrix_payload
            if (
                entry.state is WAITING
                and not entry.in_ready
                and entry.mem_dep_ready
                and entry_ready(entry)
            ):
                entry.in_ready = True
                ready[entry.tag] = entry

    def _deliver_slow(self, entry: IQEntry, op_index: int, tag: int) -> None:
        """Slow-bus delivery, one cycle after the fast broadcast.

        Slow-side operands still observe the full bus payload — this is the
        paper's point that sequential wakeup stays compatible with
        selective recovery.
        """
        operand = entry.operands[op_index]
        if operand.ready or operand.tag != tag:
            return
        if not self.scoreboard.is_valid(tag):
            return  # the broadcast was invalidated in the meantime
        operand.wake(self.now)
        if self._use_matrix:
            record = self.scoreboard.get(tag)
            if record is not None:
                operand.matrix = record.matrix_payload
        self._maybe_ready(entry)

    def _maybe_record_wakeup_pair(self, entry: IQEntry) -> None:
        """Record wakeup-order data once the last operand has arrived.

        2-pending entries feed the Figure 6 / Table 3 statistics and train
        the last-arriving predictor.  Entries with one operand ready at
        insert train the predictor only: their pending operand is by
        definition last-arriving, which is exactly what the hardware's
        last-tag history observes.  Called for two-source entries not
        yet recorded.
        """
        if entry.stat_ready_at_insert == 1:
            pending = [o for o in entry.operands if not o.ready_at_insert]
            if not pending or pending[0].arrival_cycle is None:
                return
            entry.stat_wakeup_recorded = True
            last_side = pending[0].side
            self.stats.last_arrival_predictions += 1
            if entry.predicted_last is not last_side:
                self.stats.last_arrival_mispredictions += 1
            if self.stats.design_bank is not None:
                self.stats.design_bank.observe(entry.op.pc, last_side)
            self.wakeup.train(entry, last_side)
            return
        if not entry.is_two_pending:
            return
        arrivals = [operand.arrival_cycle for operand in entry.operands]
        if any(cycle is None for cycle in arrivals):
            return
        entry.stat_wakeup_recorded = True
        slack = abs(arrivals[0] - arrivals[1])
        if slack == 0:
            last_side: OperandSide | None = None
            self.stats.simultaneous_wakeups += 1
        else:
            last_index = 0 if arrivals[0] > arrivals[1] else 1
            last_side = entry.operands[last_index].side
        self.stats.record_wakeup_pair(entry.op.pc, slack, last_side)
        if self.stats.design_bank is not None:
            self.stats.design_bank.observe(entry.op.pc, last_side)
        if last_side is not None:
            self.stats.last_arrival_predictions += 1
            if entry.predicted_last is not last_side:
                self.stats.last_arrival_mispredictions += 1
        self.wakeup.train(entry, last_side)

    # ==================================================================
    # Phase 2: wakeup/select (atomic) — issue.
    # ==================================================================
    def _select_and_issue(self) -> None:
        selector = self.selector
        selector.begin_cycle()
        ready = self._ready
        if not ready:
            return  # nothing can issue: the units' per-cycle state may wait
        now = self.now
        fu = self.fu
        fu.begin_cycle(now)
        rf_policy = self.rf_policy
        crossbar = self._crossbar_rf
        if crossbar:
            rf_policy.begin_cycle()
        sequential = self._sequential_rf
        entry_ready = self._entry_ready
        for entry in sorted(ready.values(), key=_SELECT_KEY):
            if selector.available_slots <= 0:
                break
            if entry.state is not WAITING or entry.eligible_cycle > now:
                continue
            if not entry_ready(entry):
                # Stale ready-set entry (e.g. un-woken by a replay).
                ready.pop(entry.tag, None)
                entry.in_ready = False
                continue
            op_class = entry.op.op_class
            if not fu.can_issue(op_class, now):
                continue
            if crossbar and not rf_policy.try_reserve(entry, now):
                continue
            seq_access = sequential and rf_policy.decide_sequential_access(entry, now)
            slot = selector.take_slot(seq_access)
            fu.issue(op_class, now)
            self._issue(entry, seq_access, slot)

    def _issue(self, entry: IQEntry, seq_access: bool, slot: int = 0) -> None:
        now = self.now
        self._ready.pop(entry.tag, None)
        entry.in_ready = False
        entry.state = ISSUED
        entry.issue_cycle = now
        entry.epoch += 1
        entry.slot = slot
        self.stats.issued += 1
        if entry.is_two_source:
            self._record_issue_stats(entry)
        if self.trace is not None:
            record = self.trace.setdefault(entry.tag, {"issues": []})
            record["issues"].append(now)
            record["seq_reg_access"] = seq_access
            record["opcode"] = entry.op.opcode
            record["pc"] = entry.op.pc

        # Only tag elimination issues speculatively and verifies.
        verify_ok = not self._tag_elim or self._verify_at_issue(entry, self.scoreboard, now)
        if not verify_ok:
            # Tag elimination misschedule: scoreboard flags it after the
            # detection delay; the replay window covers everything issued
            # in the shadow, the mis-issued instruction included.
            detect = self._tag_elim_detect
            self.stats.tag_elim_misschedules += 1
            self._kills.schedule(
                now,
                now + detect,
                _Kill(entry, entry.epoch, (now, now + detect - 1), squash_root=True),
            )
        if self.checker is not None:
            self.checker.on_issue(entry, now, seq_access, verify_ok)

        if entry.op.is_load:
            self._issue_load(entry)
            return
        latency = self._lat_for_class(entry.op.op_class)
        if seq_access:
            latency += 1
            self.stats.sequential_rf_accesses += 1
        if self._half_bypass and len(entry.operands) == 2:
            # Half-price bypass (Section 6 extension): only one value can
            # be caught off the bypass per cycle; a double catch latches
            # one operand and starts execution a cycle later.
            if all(operand.woke_now(now) for operand in entry.operands):
                latency += 1
                self.stats.double_bypass_delays += 1
        self._broadcasts.schedule(now, now + latency, (entry, entry.epoch))
        self._completions.schedule(
            now, now + self._exec_offset + latency, (entry, entry.epoch)
        )

    def _issue_load(self, entry: IQEntry) -> None:
        now = self.now
        assumed = self._assumed_load_latency
        if entry.mem_fill_cycle is None:
            # First issue: perform the cache access.  The fill stays in
            # flight even if this load is later squashed (MSHR semantics):
            # a replayed issue re-uses the fill time instead of touching
            # the cache again, so replays never act as self-prefetches.
            if entry.forwarded:
                actual_mem = self._dl1_latency  # store queue data
            else:
                actual_mem = self.memory.load(entry.op.mem_addr).latency
            entry.mem_fill_cycle = now + self._agen_lat + actual_mem
        fill = max(entry.mem_fill_cycle, now + assumed)
        completion = fill + self._exec_offset - self._agen_lat
        # Broadcast at the assumed-hit time (speculative when the data is late).
        self._broadcasts.schedule(now, now + assumed, (entry, entry.epoch))
        if fill <= now + assumed:
            # Data arrives within the assumed-hit schedule.
            self._completions.schedule(now, completion, (entry, entry.epoch))
            return
        # Latency misprediction: kill after the resolution shadow, real
        # broadcast at fill.
        kill_cycle = now + assumed + self._load_spec_window
        window = (now + assumed, kill_cycle - 1)
        self._kills.schedule(
            now,
            kill_cycle,
            _Kill(entry, entry.epoch, window if self._non_selective else None,
                  squash_root=False),
        )
        # A re-issued load's in-flight fill can land inside the kill shadow;
        # the re-broadcast must follow the kill or it would be invalidated.
        rebroadcast = max(fill, kill_cycle + 1)
        self._broadcasts.schedule(now, rebroadcast, (entry, entry.epoch))
        self._completions.schedule(
            now, max(completion, rebroadcast), (entry, entry.epoch)
        )

    def _record_issue_stats(self, entry: IQEntry) -> None:
        """Figure 10 category of a two-source entry's issue."""
        now = self.now
        left, right = entry.operands
        if left.ready_at_insert and right.ready_at_insert:
            entry.rf_category = "two_ready"
        elif left.woke_now(now) or right.woke_now(now):
            entry.rf_category = "back_to_back"
        else:
            entry.rf_category = "non_back_to_back"
        if self._seq_wakeup:
            slow = entry.operand_on(entry.fast_side.other)
            if slow is not None and slow.ready_cycle == now and not slow.ready_at_insert:
                self.stats.seq_wakeup_slow_initiations += 1

    # ==================================================================
    # Replay machinery.
    # ==================================================================
    def _process_kill(self, kill: _Kill) -> None:
        if kill.root.epoch != kill.epoch:
            return  # the root was itself squashed; this shadow is void
        if not kill.squash_root:
            self.stats.load_miss_replays += 1
        if self._use_matrix and not kill.squash_root and kill.window is None:
            # Selective recovery kill: the kill bus names the faulty issue
            # (row = pipeline bottom, column = slot) — cross-check every
            # cascade invalidation against the Figure 5 matrices.
            self._active_kill_bit = (kill.root.issue_cycle, kill.root.slot)
        self._invalidate_tag(kill.root.tag)
        self._active_kill_bit = None
        if kill.squash_root and kill.root.state is ISSUED:
            self._squash(kill.root)
        if kill.window is not None:
            start, end = kill.window
            for entry in self.rob:
                if (
                    entry.state is ISSUED
                    and entry is not kill.root
                    and start <= entry.issue_cycle <= end
                ):
                    self._squash(entry)
        if self.checker is not None:
            self.checker.on_kill(kill)

    def _invalidate_tag(self, tag: int) -> None:
        """Invalidate a broadcast and cascade through its consumers."""
        for entry, op_index in self.scoreboard.invalidate(tag):
            if op_index < 0:
                if entry.mem_dep_tag == tag and entry.mem_dep_ready:
                    entry.mem_dep_ready = False
                    if entry.state is ISSUED:
                        self._squash(entry)
                continue
            operand = entry.operands[op_index]
            if operand.ready and operand.tag == tag:
                if self._active_kill_bit is not None:
                    matched = operand.matrix is not None and operand.matrix.matches(
                        *self._active_kill_bit
                    )
                    if not matched:
                        # The matrix missed an operand the cascade caught:
                        # this operand never saw the dependence broadcast
                        # (e.g. an eliminated comparator).
                        self.matrix_mismatches += 1
                operand.unwake()
                if entry.state is ISSUED:
                    self._squash(entry)
                elif entry.in_ready:
                    self._ready.pop(entry.tag, None)
                    entry.in_ready = False

    def _squash(self, entry: IQEntry) -> None:
        """Pull an issued instruction back into the scheduler."""
        self.stats.replayed += 1
        entry.reset_for_replay(self.scoreboard.is_valid)
        entry.epoch += 1
        entry.eligible_cycle = self.now + 1
        self._invalidate_tag(entry.tag)
        self._maybe_ready(entry)

    # ==================================================================
    # Phase 3: dispatch (rename + scheduler insert).
    # ==================================================================
    def _dispatch(self) -> None:
        frontend = self._frontend
        now = self.now
        if not frontend or frontend[0][0] > now:
            return  # nothing has reached the end of the front pipe
        width = self._width
        rob = self.rob
        lsq = self.lsq
        rob_free = rob.capacity - len(rob)
        lsq_free = lsq.capacity - len(lsq)
        dispatched = 0
        # Half-price rename (Section 6 extension): one source-lookup port
        # per dispatch slot; a 2-source instruction consumes two tokens.
        rename_tokens = width if self._half_rename else None
        while frontend and frontend[0][0] <= now and dispatched < width:
            arrive, tag, op = frontend[0]
            if rob_free <= 0:
                break
            is_memory = op.is_load or op.is_store
            if is_memory and lsq_free <= 0:
                break
            if rename_tokens is not None and not op.is_eliminated_nop:
                needed = max(1, len(op.sched_deps))
                if needed > rename_tokens:
                    self.stats.rename_port_stalls += 1
                    break
                rename_tokens -= needed
            frontend.popleft()
            self._insert(op, tag)
            dispatched += 1
            rob_free -= 1
            if is_memory:
                lsq_free -= 1

    def _insert(self, op: DynOp, tag: int) -> None:
        now = self.now
        if op.is_eliminated_nop:
            entry = IQEntry(op, tag, [], now)
            entry.state = COMPLETED
            self.rob.push(entry)
            self.stats.record_dispatch(False, 0)
            return
        # Rename: each source's producer record is looked up once, and the
        # new entry joins its consumers once the entry exists.
        scoreboard = self.scoreboard
        rename_get = self._rename.get
        scoreboard_get = scoreboard.get
        operands: list[Operand] = []
        producers = []
        for position, arch in enumerate(op.sched_deps):
            side = LEFT if position == 0 else RIGHT
            producer_tag = rename_get(arch)
            # No producer tag or no record: the producer has committed and
            # the value is architectural.
            record = None if producer_tag is None else scoreboard_get(producer_tag)
            if record is None:
                operands.append(Operand(None, side))
                continue
            if record.valid and record.broadcast_cycle is not None and (
                record.broadcast_cycle <= now
            ):
                # Ready bit set at insert; the producer may still be
                # squashed later, so the tag reference is kept for the
                # invalidation cascade.
                operand = Operand(None, side)
                operand.tag = producer_tag
                if self._use_matrix:
                    operand.matrix = record.matrix_payload
            else:
                operand = Operand(producer_tag, side)
            operands.append(operand)
            producers.append((record, position))
        entry = IQEntry(op, tag, operands, now)
        scoreboard.allocate(tag)
        for record, position in producers:
            record.consumers.append((entry, position))
        if op.dest is not None:
            self._rename[op.dest] = tag
        if entry.is_two_source:
            self.wakeup.assign_sides(entry)
        self.rob.push(entry)
        if op.is_load:
            self._setup_load_forwarding(entry)
            self.lsq.insert(entry)
        elif op.is_store:
            self.lsq.insert(entry)
        self.stats.record_dispatch(entry.is_two_source, entry.stat_ready_at_insert)
        # A new entry is waiting and outside the ready set.
        if entry.mem_dep_ready and self._entry_ready(entry):
            entry.in_ready = True
            self._ready[tag] = entry

    def _setup_load_forwarding(self, entry: IQEntry) -> None:
        store = self.lsq.forwarding_store(entry)
        if store is None:
            return
        entry.forwarded = True
        if not self.lsq.store_agen_done(store):
            entry.mem_dep_tag = store.tag
            entry.mem_dep_ready = False
            self.scoreboard.add_consumer(store.tag, entry, -1)

    def _maybe_ready(self, entry: IQEntry) -> None:
        if (
            entry.state is WAITING
            and not entry.in_ready
            and entry.mem_dep_ready
            and self._entry_ready(entry)
        ):
            entry.in_ready = True
            self._ready[entry.tag] = entry

    # ==================================================================
    # Phase 4: fetch.
    # ==================================================================
    def _fetch(self) -> None:
        now = self.now
        if (
            self._feed_done
            or self._fetch_blocked_on is not None
            or now < self._fetch_stalled_until
        ):
            return
        memory = self.memory
        line_address = memory.il1.line_address
        pc_address = self._pc_address
        frontend_append = self._frontend.append
        arrive = now + self._front_depth
        feed_iter = self._feed_iter
        # Fetch-order tags are dense: the group takes first..end-1 at most.
        first = tag = self._next_tag
        end = first + self._width
        op = self._next_op
        while tag < end:
            if op is None:
                op = next(feed_iter, None)
                if op is None:
                    self._feed_done = True
                    break
            address = pc_address(op.pc)
            line = line_address(address)
            if line != self._last_fetch_line:
                result = memory.fetch(address)
                self._last_fetch_line = line
                if result.is_miss:
                    # The op stays next in line until the stall ends.
                    self._fetch_stalled_until = now + result.latency
                    break
            frontend_append((arrive, tag, op))
            tag += 1
            if op.is_control and self._fetch_control(op, tag - 1):
                op = None
                break
            op = None
        self._next_op = op
        self._next_tag = tag
        self.stats.fetched += tag - first

    def _fetch_control(self, op: DynOp, tag: int) -> bool:
        """Predict a control instruction; return True if fetch must stop."""
        prediction = self.branch_unit.predict(op.pc, op.opcode, op.static_target)
        self._predictions[tag] = prediction
        predicted_next = prediction.next_pc(op.pc + 1)
        if predicted_next != op.next_pc:
            # Misprediction: fetch stalls until the branch resolves.
            self._fetch_blocked_on = tag
            return True
        # Correct prediction: fetch stops at the first taken branch.
        return bool(prediction.predicted_taken)

    def _resolve_branch(self, entry: IQEntry) -> None:
        op = entry.op
        prediction = self._predictions.pop(entry.tag, None)
        if prediction is None:
            return
        self.stats.branches += 1
        mispredicted = self.branch_unit.resolve(
            op.pc, op.opcode, prediction, op.taken, op.next_pc, fallthrough=op.pc + 1
        )
        if mispredicted:
            self.stats.branch_mispredicts += 1
        if self._fetch_blocked_on == entry.tag:
            self._fetch_blocked_on = None
            self._fetch_stalled_until = max(self._fetch_stalled_until, self.now + 1)
            self._last_fetch_line = -1

    # ==================================================================
    # Phase 5: commit.
    # ==================================================================
    def _commit(self) -> None:
        rob = self.rob
        if not rob.committable():
            return
        now = self.now
        width = self._width
        stats = self.stats
        rename = self._rename
        lsq = self.lsq
        scoreboard_free = self.scoreboard.free
        trace = self.trace
        checker = self.checker
        committed = 0
        while True:
            entry = rob.commit_head()
            if checker is not None:
                checker.on_commit(entry, now)
            op = entry.op
            if op.is_store:
                self.memory.store(op.mem_addr)
                lsq.remove(entry)
            elif op.is_load:
                lsq.remove(entry)
            dest = op.dest
            if dest is not None and rename.get(dest) == entry.tag:
                rename[dest] = None
            scoreboard_free(entry.tag)
            if entry.rf_category is not None:
                stats.record_rf_category(entry.rf_category)
            if trace is not None:
                record = trace.setdefault(entry.tag, {"issues": []})
                record["insert"] = entry.insert_cycle
                record["complete"] = entry.complete_cycle
                record["commit"] = now
                record["replays"] = entry.replays
                record["rf_category"] = entry.rf_category
                record["opcode"] = entry.op.opcode
                record["pc"] = entry.op.pc
            stats.committed += 1
            self._total_committed += 1
            committed += 1
            if committed >= width or not rob.committable():
                break
        self._last_commit_cycle = now


def simulate(
    feed,
    config: MachineConfig,
    max_insts: int = 15_000,
    warmup: int = 15_000,
    shadow_sizes: tuple[int, ...] | None = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Processor` and run it."""
    processor = Processor(feed, config, shadow_sizes=shadow_sizes)
    return processor.run(max_insts=max_insts, warmup=warmup)
