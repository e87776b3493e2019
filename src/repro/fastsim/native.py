"""Compiled cycle-loop backend: a thin driver over ``repro.fastsim._native``.

The C extension owns the whole struct-of-arrays machine state (per-tag
arrays, event rings, ROB/LSQ/frontend rings, rename table, the three
true-LRU caches) and runs the python reference's five-phase cycle loop.
This wrapper keeps bit-parity with the python backend by reusing the
*same stateful Python components* — the
branch unit, the last-arrival predictor, the shadow/design banks and the
SimStats wakeup-order tracker — through five cold-path callbacks:

``predict(t)``
    Run the branch unit's predict for op *t*; returns 0 (not taken),
    1 (predicted taken) or 2 (mispredicted — fetch must stall).
``resolve(t)``
    Resolve the branch for op *t*; returns 0 (no prediction pending),
    1 (correct) or 2 (mispredicted).
``pair(case, t, j, slack)``
    Apply the predictor/design-bank/wakeup-tracker side effects of a
    recorded wakeup pair (case 1: one-pending-operand, case 2: full
    pair; ``j`` is the last side, -1 for simultaneous).
``warmup(stats24)``
    Flush the C stat accumulators into SimStats at the warmup boundary
    and reset the measurement window.
``ingest()``
    Pull the next chunk of the feed; returns ``None`` when drained, else
    a 12-tuple of int64 ``array('q')`` columns.  Every feed (generator or
    materialized list) arrives this way.  A chunk holds what the run can
    still use (the instruction budget not yet pulled plus the in-flight
    window), at least one fetch group and at most ``_CHUNK`` ops, so a
    short run encodes (and, for a generator, builds) few ops it never
    fetches.

The last-arrival predictor's ``_table`` list is read in place by the C
loop, so ``pair`` updates are visible to later dispatches exactly as in
the reference.  Everything on the hot path stays in C; the
callbacks fire only for control instructions, recorded wakeup pairs, the
single warmup boundary and the ingest chunks.
"""

from __future__ import annotations

from array import array
from itertools import islice

from repro.core.event_ring import ring_size
from repro.core.iq import PRIORITY_CLASSES
from repro.core.last_arrival import (
    DesignComparisonBank,
    LastArrivalPredictor,
    OperandSide,
    ShadowPredictorBank,
    StaticLastArrival,
)
from repro.errors import ConfigurationError, SimulationError
from repro.frontend.branch_unit import BranchUnit
from repro.isa.opcodes import OpClass
from repro.isa.registers import NUM_ARCH_REGS
from repro.pipeline.config import (
    BypassModel,
    MachineConfig,
    RecoveryModel,
    RegFileModel,
    RenameModel,
    SchedulerModel,
)
from repro.pipeline.fu import is_non_pipelined, pool_index
from repro.pipeline.processor import _WATCHDOG_CYCLES, SimulationResult
from repro.pipeline.stats import SimStats

try:  # pragma: no cover - exercised via native_available()
    from repro.fastsim import _native
except ImportError:  # pragma: no cover - no compiled artifact present
    _native = None

#: The wire protocol this wrapper speaks; a prebuilt _native.so from a
#: different revision is refused rather than driven wrong.
_ABI_VERSION = 4

_RANK_BY_IDX = tuple(0 if c in PRIORITY_CLASSES else 1 for c in OpClass)
_POOL_BY_IDX = tuple(
    -1 if pool_index(c) is None else pool_index(c) for c in OpClass
)
_NONPIPE_BY_IDX = tuple(
    1 if is_non_pipelined(c) else 0 for c in OpClass
)

_SIDES = (OperandSide.LEFT, OperandSide.RIGHT)

_CHUNK = 2048


def native_available() -> bool:
    """True when the compiled extension is importable and ABI-compatible."""
    return (
        _native is not None
        and getattr(_native, "ABI_VERSION", 0) == _ABI_VERSION
    )


class NativeProcessor:
    """Compiled-cycle-loop twin of :class:`Processor` (one run per instance).

    Build it through :func:`repro.fastsim.make_processor`, which refuses a
    missing extension and the python-only features before constructing one.
    """

    backend_name = "native"

    def __init__(
        self,
        feed,
        config: MachineConfig,
        shadow_sizes: tuple[int, ...] | None = None,
    ):
        self.config = config
        self.feed = feed
        self.stats = SimStats()
        if shadow_sizes:
            self.stats.shadow_bank = ShadowPredictorBank(shadow_sizes)
            self.stats.design_bank = DesignComparisonBank()
        # Shared, stateful components reused verbatim from the python
        # backend: identical call order keeps their state bit-identical.
        if config.predictor_entries is None:
            self.predictor: LastArrivalPredictor | StaticLastArrival = (
                StaticLastArrival()
            )
        else:
            self.predictor = LastArrivalPredictor(config.predictor_entries)
        self.branch_unit = BranchUnit()
        self.now = 0
        self.trace = None
        self.profiler = None
        self._ran = False
        lat = []
        for op_class in OpClass:
            try:
                lat.append(config.lat.for_class(op_class))
            except ConfigurationError:
                lat.append(0)
        self._lat_by_idx = tuple(lat)

    # ==================================================================
    def run(self, max_insts: int, warmup: int = 0) -> SimulationResult:
        """Simulate until *max_insts* instructions commit after warmup."""
        if self._ran:
            raise SimulationError("NativeProcessor instances are single-run")
        self._ran = True

        config = self.config
        stats = self.stats
        predictor = self.predictor
        predictor_update = predictor.update
        record_wakeup_pair = stats.record_wakeup_pair
        branch_predict = self.branch_unit.predict
        branch_resolve = self.branch_unit.resolve
        pc_address = getattr(self.feed, "pc_address", None)
        design_bank = stats.design_bank
        sides = _SIDES
        if type(predictor) is LastArrivalPredictor:
            p_tab = predictor._table
            p_mask = predictor._mask
            p_mid = predictor._mid
        else:
            p_tab, p_mask, p_mid = [1], 0, 0

        # ---- config scalars ------------------------------------------
        seq_mode = config.scheduler is SchedulerModel.SEQ_WAKEUP
        tag_elim_mode = config.scheduler is SchedulerModel.TAG_ELIM
        sequential_rf = config.regfile is RegFileModel.SEQUENTIAL
        crossbar_rf = config.regfile is RegFileModel.CROSSBAR
        mem_cfg = config.mem
        scalars = (
            config.width,
            config.ruu_size,
            config.lsq_size,
            config.front_depth,
            config.exec_offset,
            config.lat.agen,
            config.assumed_load_latency,
            config.load_spec_window,
            config.tag_elim_detect_delay,
            1 if seq_mode else 0,
            1 if tag_elim_mode else 0,
            1 if sequential_rf else 0,
            1 if crossbar_rf else 0,
            1 if (seq_mode and sequential_rf) else 0,
            1 if config.recovery is RecoveryModel.NON_SELECTIVE else 0,
            1 if config.rename is RenameModel.HALF_PORTS else 0,
            1 if config.bypass is BypassModel.HALF else 0,
            _WATCHDOG_CYCLES,
            ring_size(config.event_horizon),
            NUM_ARCH_REGS,
            p_mask,
            p_mid,
        )
        fu_counts = (
            config.fu.int_alu,
            config.fu.fp_alu,
            config.fu.int_mult,
            config.fu.fp_mult,
            config.fu.mem_ports,
        )
        geom = tuple(
            field
            for cache in (mem_cfg.il1, mem_cfg.dl1, mem_cfg.l2)
            for field in (
                cache.line_bytes.bit_length() - 1,  # line shift
                cache.num_sets - 1,                 # set mask
                cache.associativity,
            )
        ) + (
            mem_cfg.il1_latency, mem_cfg.dl1_latency,
            mem_cfg.l2_latency, mem_cfg.memory_latency,
        )
        tables = (
            _RANK_BY_IDX, _POOL_BY_IDX, _NONPIPE_BY_IDX, self._lat_by_idx,
        )

        # ---- feed: every op reaches C through ingest_cb ---------------
        ops_l = []
        feed_iter = iter(self.feed)

        # ---- cold-path callbacks -------------------------------------
        predictions: dict[int, object] = {}

        def predict_cb(t: int) -> int:
            op = ops_l[t]
            pc = op.pc
            prediction = branch_predict(pc, op.opcode, op.static_target)
            predictions[t] = prediction
            if prediction.next_pc(pc + 1) != op.next_pc:
                return 2  # mispredict: stall until the branch resolves
            if prediction.predicted_taken:
                return 1
            return 0

        def resolve_cb(t: int) -> int:
            prediction = predictions.pop(t, None)
            if prediction is None:
                return 0
            op = ops_l[t]
            if branch_resolve(
                op.pc, op.opcode, prediction, op.taken, op.next_pc, op.pc + 1
            ):
                return 2
            return 1

        def pair_cb(case: int, t: int, j: int, slack: int) -> None:
            pc = ops_l[t].pc
            if case == 1:
                last_side = sides[j]
                if design_bank is not None:
                    design_bank.observe(pc, last_side)
                predictor_update(pc, last_side)
                return
            last_side = None if j < 0 else sides[j]
            record_wakeup_pair(pc, slack, last_side)
            if design_bank is not None:
                design_bank.observe(pc, last_side)
            if last_side is not None:
                predictor_update(pc, last_side)

        def warmup_cb(*s24) -> None:
            self._apply_stats(s24)
            stats.reset_window()

        # Size pulls to what the run can still fetch: its budget plus what
        # is in flight when the last op commits (a full window and
        # front_depth fetch groups).  Fetch can run further ahead while
        # dispatch stalls, so a pull never drops below one fetch group.
        # Fetch consumes ops in program order, so no pull size changes a
        # result.
        budget = max_insts + warmup
        in_flight = config.ruu_size + config.width * config.front_depth

        def ingest_cb():
            base = len(ops_l)
            size = min(_CHUNK, max(budget + in_flight - base, config.width))
            chunk = list(islice(feed_iter, size))
            if not chunk:
                return None
            ops_l.extend(chunk)
            deps = [op.sched_deps for op in chunk]
            pcs = [op.pc for op in chunk]
            if pc_address is None:
                faddr = [pc * 4 for pc in pcs]
            else:
                faddr = [pc_address(pc) for pc in pcs]
            return (
                array("q", [op.op_class.idx for op in chunk]),
                array("q", pcs),
                array("q", [op.is_control for op in chunk]),
                array("q", [op.is_load for op in chunk]),
                array("q", [op.is_store for op in chunk]),
                array("q", [op.is_eliminated_nop for op in chunk]),
                array("q", [-1 if op.dest is None else op.dest for op in chunk]),
                array("q", [len(d) for d in deps]),
                array("q", [d[0] if d else -1 for d in deps]),
                array("q", [d[1] if len(d) > 1 else -1 for d in deps]),
                array("q", [op.mem_addr or 0 for op in chunk]),
                array("q", faddr),
            )

        # ---- run the compiled loop -----------------------------------
        status, now_c, total_committed, head_tag, s24 = _native.run(
            scalars, fu_counts, geom, tables, p_tab,
            (predict_cb, resolve_cb, pair_cb, warmup_cb, ingest_cb),
            max_insts, warmup,
        )

        self.now = now_c
        self._apply_stats(s24)
        if status == 1:
            if head_tag >= 0:
                head_repr = f"tag {head_tag} {ops_l[head_tag].opcode}"
            else:
                head_repr = "None"
            error = SimulationError(
                f"no commit for {_WATCHDOG_CYCLES} cycles at cycle "
                f"{now_c} (head={head_repr})"
            )
            error.cycle = now_c
            raise error
        if status == 2:  # pragma: no cover - horizon covers all latencies
            raise SimulationError("event past the ring horizon")
        return SimulationResult(
            config_name=config.name,
            workload_name=getattr(self.feed, "name", "workload"),
            stats=stats,
            total_committed=total_committed,
            total_cycles=now_c,
        )

    # ==================================================================
    def _apply_stats(self, s) -> None:
        """Add a 24-tuple of C stat accumulators into SimStats.

        Field order is the _native wire protocol; the zero-guards on
        ready_at_insert keep the Counter free of zero entries exactly as
        the other backends' flush paths do.
        """
        stats = self.stats
        stats.cycles += s[0]
        stats.fetched += s[1]
        stats.dispatched += s[2]
        stats.two_source_dispatched += s[3]
        if s[4]:
            stats.ready_at_insert[0] += s[4]
        if s[5]:
            stats.ready_at_insert[1] += s[5]
        if s[6]:
            stats.ready_at_insert[2] += s[6]
        stats.committed += s[7]
        stats.issued += s[8]
        stats.branches += s[9]
        stats.branch_mispredicts += s[10]
        stats.replayed += s[11]
        stats.load_miss_replays += s[12]
        stats.rename_port_stalls += s[13]
        stats.sequential_rf_accesses += s[14]
        stats.double_bypass_delays += s[15]
        stats.seq_wakeup_slow_initiations += s[16]
        stats.tag_elim_misschedules += s[17]
        stats.rf_two_ready += s[18]
        stats.rf_back_to_back += s[19]
        stats.rf_non_back_to_back += s[20]
        stats.simultaneous_wakeups += s[21]
        stats.last_arrival_predictions += s[22]
        stats.last_arrival_mispredictions += s[23]
