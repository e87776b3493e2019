"""Shared test helpers: hand-crafted DynOp feeds for deterministic scenarios.

``ScriptedFeed`` lets a test specify an exact dynamic instruction sequence
(with dependencies through architectural registers) and observe precise
issue/commit cycles in the processor.  ``SaturatingCounter`` is the
one-object-per-entry oracle the predictors' byte tables are checked
against, and ``labelled_source`` renders a program back to source that
reassembles.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import ConfigurationError
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.trace import DynOp

_CLASS_OF = {
    "ADD": OpClass.INT_ALU,
    "ADDF": OpClass.FP_ALU,
    "MUL": OpClass.INT_MULT,
    "DIV": OpClass.INT_DIV,
    "LDQ": OpClass.LOAD,
    "STQ": OpClass.STORE,
    "BEQ": OpClass.BRANCH,
    "NOP2": OpClass.NOP,
}


def op(
    seq: int,
    opcode: str = "ADD",
    dest: int | None = None,
    srcs: tuple[int, ...] = (),
    mem_addr: int | None = None,
    taken: bool = False,
    next_pc: int | None = None,
    static_target: int | None = None,
    pc: int | None = None,
    store_data: int | None = None,
) -> DynOp:
    """Build one DynOp with sensible defaults for scheduler tests."""
    eliminated = opcode == "NOP2"
    return DynOp(
        seq=seq,
        pc=pc if pc is not None else seq,
        opcode=opcode,
        op_class=_CLASS_OF[opcode],
        dest=dest if not eliminated else None,
        srcs=srcs,
        sched_deps=() if eliminated else tuple(dict.fromkeys(s for s in srcs if s != 31)),
        store_data_reg=store_data,
        mem_addr=mem_addr,
        taken=taken,
        next_pc=next_pc,
        static_target=static_target,
        is_two_source_format=len(srcs) == 2,
        is_eliminated_nop=eliminated,
    )


def store_op(seq: int, data_reg: int, base_reg: int, mem_addr: int, pc: int | None = None) -> DynOp:
    """A store: schedules on the base register, carries a data register."""
    built = op(seq, "STQ", srcs=(data_reg, base_reg), mem_addr=mem_addr, pc=pc,
               store_data=data_reg)
    built.sched_deps = (base_reg,) if base_reg != 31 else ()
    return built


class ScriptedFeed:
    """A feed yielding an explicit list of DynOps (correct path)."""

    name = "scripted"

    def __init__(self, ops: list[DynOp]):
        self.ops = ops

    def __iter__(self):
        return iter(self.ops)

    def pc_address(self, pc: int) -> int:
        return pc * 4


def issue_cycle_of(processor, seq: int) -> int:
    """Final issue cycle of the instruction with dynamic number *seq*."""
    return processor_entry(processor, seq).issue_cycle


def processor_entry(processor, seq: int):
    for entry in processor.rob:
        if entry.tag == seq:
            return entry
    raise AssertionError(f"entry {seq} not in ROB (already committed?)")


class CountingHierarchy(MemoryHierarchy):
    """A memory hierarchy that tallies accesses and misses per level, by
    cache name ("IL1", "DL1", "L2"), worked out from each access's latency;
    the model itself counts nothing.

    Set it on ``processor.memory`` before ``run()``.
    """

    __slots__ = ("accesses", "misses")

    def __init__(self, config=None):
        super().__init__(config)
        self.accesses: Counter[str] = Counter()
        self.misses: Counter[str] = Counter()

    def _access(self, l1, l1_latency, addr):
        latency = super()._access(l1, l1_latency, addr)
        # The latency tells where the access hit: the L1's own, plus the
        # L2's, plus memory's.
        l2_hit_latency = l1_latency + self.config.l2_latency
        for name, hit in ((l1.config.name, latency == l1_latency),
                          (self.l2.config.name, latency == l2_hit_latency)):
            self.accesses[name] += 1
            if hit:
                break
            self.misses[name] += 1
        return latency


class SaturatingCounter:
    """An n-bit saturating up/down counter.

    The counter predicts "taken"/"strong" when in the upper half of its
    range.  A standalone model of one predictor table entry: the tables in
    ``repro.frontend.direction`` hold the same counters as bytes and must
    apply the same rule.
    """

    __slots__ = ("value", "maximum")

    def __init__(self, bits: int = 2, initial: int | None = None):
        if bits < 1:
            raise ConfigurationError("counter needs at least one bit")
        self.maximum = (1 << bits) - 1
        # Default: weakly-taken (just above the midpoint).
        self.value = (self.maximum + 1) // 2 if initial is None else initial

    def increment(self) -> None:
        if self.value < self.maximum:
            self.value += 1

    def decrement(self) -> None:
        if self.value > 0:
            self.value -= 1

    def train(self, outcome: bool) -> None:
        if outcome:
            self.increment()
        else:
            self.decrement()

    @property
    def predict(self) -> bool:
        return self.value > self.maximum // 2


def labelled_source(program) -> str:
    """Assembly text for *program* that reassembles to the same instructions.

    Every instruction gets the label ``L<index>`` and each branch names its
    target by that label (the disassembler renders the bare index).
    """
    lines = []
    for index, inst in enumerate(program.instructions):
        text = str(inst)
        if inst.target is not None:
            text = f"{text.rsplit(' ', 1)[0]} L{inst.target}"
        lines += [f"L{index}:", f"    {text}"]
    return "\n".join(lines)
