"""Machine configuration (the paper's Table 1, plus technique selection).

Two reference machines are provided:

* :data:`FOUR_WIDE` — 4-wide fetch/issue/commit, 64 RUU, 32 LSQ;
* :data:`EIGHT_WIDE` — 8-wide fetch/issue/commit, 128 RUU, 64 LSQ.

The half-price techniques are selected with :class:`SchedulerModel` and
:class:`RegFileModel`; recovery from scheduling latency mispredictions with
:class:`RecoveryModel`.  Use :meth:`MachineConfig.with_techniques` to derive
variants from a base machine.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryHierarchyConfig


class SchedulerModel(enum.Enum):
    """Wakeup-logic organization (Section 3)."""

    #: Conventional: both operand comparators on one full wakeup bus.
    BASE = "base"
    #: Sequential wakeup: fast/slow buses (Section 3.3).
    SEQ_WAKEUP = "seq_wakeup"
    #: Tag elimination baseline (Ernst & Austin), speculative single tag.
    TAG_ELIM = "tag_elim"


class RegFileModel(enum.Enum):
    """Register file read-port organization (Sections 4 and 5.2)."""

    #: Two read ports per issue slot (unconstrained).
    BASE = "base"
    #: Sequential register access: one port per slot (Section 4.3).
    SEQUENTIAL = "sequential"
    #: Two ports per slot, one extra RF pipeline stage.
    EXTRA_STAGE = "extra_stage"
    #: Half the total ports behind a crossbar with global arbitration.
    CROSSBAR = "crossbar"


class RecoveryModel(enum.Enum):
    """Scheduling replay policy for latency mispredictions (Section 3.1)."""

    #: Alpha 21264 style: replay everything issued in the window.
    NON_SELECTIVE = "non_selective"
    #: Dependence-matrix style: replay only data-dependent instructions.
    SELECTIVE = "selective"


class RenameModel(enum.Enum):
    """Register rename source-lookup port organization (Section 6).

    The paper's future work extends the half-price idea to register
    renaming: this implements it.  With half ports, the rename stage has
    one source-lookup port per dispatch slot instead of two, so a 2-source
    instruction consumes two lookup tokens from the cycle's budget and
    dispatch bandwidth drops when 2-source instructions cluster.
    """

    #: Two source-lookup ports per dispatch slot (never binding).
    BASE = "base"
    #: One lookup port per slot: 2-source instructions eat two tokens.
    HALF_PORTS = "half_ports"


class BypassModel(enum.Enum):
    """Bypass network input-port organization (Section 6).

    Future-work extension: with a half-price bypass, each functional unit
    input side can catch only **one** value off the bypass network per
    cycle.  An instruction whose two operands would *both* arrive via the
    bypass in its issue cycle latches one of them and starts a cycle later.
    """

    #: Full bypass: both operands can be caught in the same cycle.
    FULL = "full"
    #: One bypass catch per instruction per cycle: double-bypass pays +1.
    HALF = "half"


@dataclass(frozen=True)
class FunctionalUnitPool:
    """Functional unit counts (Table 1)."""

    int_alu: int
    fp_alu: int
    int_mult: int   # integer MULT/DIV units
    fp_mult: int    # floating MULT/DIV units
    mem_ports: int

    def count_for(self, op_class: OpClass) -> int:
        if op_class in (OpClass.INT_ALU, OpClass.BRANCH, OpClass.JUMP):
            return self.int_alu
        if op_class is OpClass.FP_ALU:
            return self.fp_alu
        if op_class in (OpClass.INT_MULT, OpClass.INT_DIV):
            return self.int_mult
        if op_class in (OpClass.FP_MULT, OpClass.FP_DIV):
            return self.fp_mult
        if op_class.is_memory:
            return self.mem_ports
        raise ConfigurationError(f"no functional unit for {op_class}")


@dataclass(frozen=True)
class Latencies:
    """Execution latencies in cycles (Table 1)."""

    int_alu: int = 1
    fp_alu: int = 2
    int_mult: int = 3
    int_div: int = 20
    fp_mult: int = 4
    fp_div: int = 12
    branch: int = 1
    agen: int = 1

    def __post_init__(self):
        # The per-class table is rebuilt per call in the obvious spelling,
        # and for_class sits on the issue path; cache it once per instance
        # (object.__setattr__ because the dataclass is frozen).
        object.__setattr__(
            self,
            "_by_class",
            {
                OpClass.INT_ALU: self.int_alu,
                OpClass.FP_ALU: self.fp_alu,
                OpClass.INT_MULT: self.int_mult,
                OpClass.INT_DIV: self.int_div,
                OpClass.FP_MULT: self.fp_mult,
                OpClass.FP_DIV: self.fp_div,
                OpClass.BRANCH: self.branch,
                OpClass.JUMP: self.branch,
                OpClass.STORE: self.agen,
                OpClass.LOAD: self.agen,  # address generation part only
            },
        )
        # Dense-index variant of the same table (OpClass.idx -> latency,
        # None for classes that never execute): list indexing skips enum
        # hashing on the issue path, which reads it directly.
        by_index: list[int | None] = [None] * len(OpClass)
        for op_class, latency in self._by_class.items():
            by_index[op_class.idx] = latency
        object.__setattr__(self, "by_index", by_index)

    @property
    def worst_case(self) -> int:
        """Largest single-operation latency (event-horizon sizing)."""
        return max(self._by_class.values())

    def for_class(self, op_class: OpClass) -> int:
        latency = self.by_index[op_class.idx]
        if latency is None:
            raise ConfigurationError(f"no latency for {op_class}")
        return latency


#: Known cycle-loop backends, in documentation order.
BACKENDS = ("python", "native")


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine description.

    Pipeline depth bookkeeping (12 stages in the reference machines):
    ``front_depth`` covers Fetch..Queue (insertion into the scheduler),
    then Sched (1), then ``disp_depth`` (payload RAM) + ``rf_depth``
    (register read) between select and execute, then EXE / WB / Commit.
    """

    name: str
    width: int
    ruu_size: int
    lsq_size: int
    fu: FunctionalUnitPool
    lat: Latencies = Latencies()
    mem: MemoryHierarchyConfig = MemoryHierarchyConfig()
    front_depth: int = 6
    disp_depth: int = 1
    rf_depth: int = 1
    #: physical register file entries (used by the timing models and to
    #: bound in-flight instructions alongside the RUU)
    num_phys_regs: int = 160
    #: cycles after a load's speculative broadcast at which the hit/miss
    #: verdict reaches the scheduler (the replay shadow, 21264-like)
    load_spec_window: int = 2
    #: scoreboard detection delay for tag-elimination mis-issues
    tag_elim_detect_delay: int = 2
    scheduler: SchedulerModel = SchedulerModel.BASE
    regfile: RegFileModel = RegFileModel.BASE
    recovery: RecoveryModel = RecoveryModel.NON_SELECTIVE
    rename: RenameModel = RenameModel.BASE
    bypass: BypassModel = BypassModel.FULL
    #: last-arriving operand predictor entries; None = no predictor
    #: (the right operand is statically assumed last-arriving)
    predictor_entries: int | None = 1024
    #: run the Figure 5 dependence-matrix machinery alongside selective
    #: recovery and cross-check it against the scoreboard cascade (the
    #: mismatch counter stays zero for bus-delivered wakeup schemes and
    #: exposes tag elimination's incompatibility, Section 3.1)
    use_dependence_matrix: bool = False
    #: cycle-loop backend: "python" (reference Processor) or "native"
    #: (a struct-of-arrays loop compiled as a C extension, bit-identical
    #: stats, needs the built artifact).  Not part of the timing model —
    #: it never appears in variant names — but it IS part of the
    #: result-cache fingerprint, so cached results are never served
    #: across backends.
    backend: str = "python"

    def __post_init__(self):
        if self.width <= 0 or self.ruu_size <= 0 or self.lsq_size <= 0:
            raise ConfigurationError(f"{self.name}: non-positive size")
        if self.ruu_size < self.width or self.lsq_size < 1:
            raise ConfigurationError(f"{self.name}: window smaller than width")
        if self.predictor_entries is not None and (
            self.predictor_entries <= 0
            or self.predictor_entries & (self.predictor_entries - 1)
        ):
            raise ConfigurationError(f"{self.name}: predictor entries must be 2^n")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"{self.name}: unknown backend {self.backend!r} "
                f"(known: {', '.join(BACKENDS)})"
            )

    def __hash__(self) -> int:
        # The runner's memo keys on the whole config, and hashing the
        # nested dataclasses and enums on every lookup showed up in warm
        # figure re-renders; the fields are frozen, so hash them once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in dataclasses.fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # str hashes differ between processes: never pickle the cached one.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # ------------------------------------------------------------------
    @property
    def exec_offset(self) -> int:
        """Cycles from select to the start of execution (Disp + RF)."""
        extra = 1 if self.regfile is RegFileModel.EXTRA_STAGE else 0
        return self.disp_depth + self.rf_depth + extra

    @property
    def assumed_load_latency(self) -> int:
        """Issue-to-issue latency the scheduler assumes for loads (DL1 hit)."""
        return self.lat.agen + self.mem.dl1_latency + (
            1 if self.regfile is RegFileModel.EXTRA_STAGE else 0
        )

    @property
    def event_horizon(self) -> int:
        """Event-ring horizon of both backends: the worst memory round trip
        plus the longest execution latency and the pipeline offsets."""
        mem = self.mem
        return (
            self.lat.agen + mem.dl1_latency + mem.l2_latency + mem.memory_latency
            + self.lat.worst_case + self.exec_offset + self.load_spec_window
            + self.tag_elim_detect_delay + 8
        )

    @property
    def total_read_ports(self) -> int:
        """Register file read ports implied by the port model."""
        if self.regfile in (RegFileModel.BASE, RegFileModel.EXTRA_STAGE):
            return 2 * self.width
        return self.width

    # ------------------------------------------------------------------
    def with_techniques(
        self,
        scheduler: SchedulerModel | None = None,
        regfile: RegFileModel | None = None,
        recovery: RecoveryModel | None = None,
        rename: RenameModel | None = None,
        bypass: BypassModel | None = None,
        predictor_entries: int | None | str = "keep",
        name: str | None = None,
    ) -> "MachineConfig":
        """Derive a variant machine with different techniques enabled."""
        changes: dict = {}
        if scheduler is not None:
            changes["scheduler"] = scheduler
        if regfile is not None:
            changes["regfile"] = regfile
        if recovery is not None:
            changes["recovery"] = recovery
        if rename is not None:
            changes["rename"] = rename
        if bypass is not None:
            changes["bypass"] = bypass
        if predictor_entries != "keep":
            changes["predictor_entries"] = predictor_entries
        derived = dataclasses.replace(self, **changes)
        label = name or self._variant_name(derived)
        return dataclasses.replace(derived, name=label)

    def _variant_name(self, derived: "MachineConfig") -> str:
        parts = [self.name.split("+")[0]]
        if derived.scheduler is not SchedulerModel.BASE:
            suffix = derived.scheduler.value
            if derived.predictor_entries is None:
                suffix += "-nopred"
            parts.append(suffix)
        if derived.regfile is not RegFileModel.BASE:
            parts.append(derived.regfile.value)
        if derived.rename is not RenameModel.BASE:
            parts.append("halfrename")
        if derived.bypass is not BypassModel.FULL:
            parts.append("halfbypass")
        if derived.recovery is not RecoveryModel.NON_SELECTIVE:
            parts.append(derived.recovery.value)
        return "+".join(parts)


#: Table 1, 4-wide machine.
FOUR_WIDE = MachineConfig(
    name="4-wide",
    width=4,
    ruu_size=64,
    lsq_size=32,
    fu=FunctionalUnitPool(int_alu=4, fp_alu=2, int_mult=2, fp_mult=2, mem_ports=2),
)

#: Table 1, 8-wide machine.
EIGHT_WIDE = MachineConfig(
    name="8-wide",
    width=8,
    ruu_size=128,
    lsq_size=64,
    fu=FunctionalUnitPool(int_alu=8, fp_alu=4, int_mult=4, fp_mult=4, mem_ports=4),
)


def machine_from_flags(
    width: int = 4,
    scheduler: str = SchedulerModel.BASE.value,
    regfile: str = RegFileModel.BASE.value,
    half_rename: bool = False,
    half_bypass: bool = False,
    predictor: bool = True,
    backend: str = "python",
) -> MachineConfig:
    """The machine the CLI's machine flags and a serve spec's fields describe."""
    config = FOUR_WIDE if width == 4 else EIGHT_WIDE
    techniques: dict = {}
    if scheduler != SchedulerModel.BASE.value:
        techniques["scheduler"] = SchedulerModel(scheduler)
    if regfile != RegFileModel.BASE.value:
        techniques["regfile"] = RegFileModel(regfile)
    if half_rename:
        techniques["rename"] = RenameModel.HALF_PORTS
    if half_bypass:
        techniques["bypass"] = BypassModel.HALF
    if not predictor:
        techniques["predictor_entries"] = None
    if techniques:
        config = config.with_techniques(**techniques)
    if backend != config.backend:
        config = dataclasses.replace(config, backend=backend)
    return config
