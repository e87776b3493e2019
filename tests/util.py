"""Shared test helpers: hand-crafted DynOp feeds for deterministic scenarios.

``ScriptedFeed`` lets a test specify an exact dynamic instruction sequence
(with dependencies through architectural registers) and observe precise
issue/commit cycles in the processor.
"""

from __future__ import annotations

from collections import Counter

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
    cache name ("IL1", "DL1", "L2"); the model itself counts nothing.

    Set it on ``processor.memory`` before ``run()``.
    """

    __slots__ = ("accesses", "misses")

    def __init__(self, config=None):
        super().__init__(config)
        self.accesses: Counter[str] = Counter()
        self.misses: Counter[str] = Counter()

    def _access(self, l1, l1_latency, addr):
        result = super()._access(l1, l1_latency, addr)
        for name, hit in ((l1.config.name, result.l1_hit), (self.l2.config.name, result.l2_hit)):
            self.accesses[name] += 1
            if hit:
                break
            self.misses[name] += 1
        return result
