"""Dynamic instruction records: the interface between workloads and timing.

A :class:`DynOp` is one dynamic instruction instance carrying everything the
out-of-order core needs to model timing: operand registers, memory address,
control-flow outcome, and the paper's static classifications.

Stores carry their raw two-source encoding for Figure 2 statistics, but their
``sched_deps`` contain only the address base register: per Section 2.3 a
store is handled as an address generation plus a data move, neither of which
needs two source operands, and the cache write happens at commit.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.isa.registers import is_zero_reg

# Members bound once as module constants: ``OpClass.LOAD`` goes through
# ``EnumType.__getattr__`` (over 100 ns on CPython 3.11), and every op
# built pays for five such tests.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_JUMP = OpClass.JUMP


class DynOp:
    """One dynamic instruction instance.

    Attributes:
        seq: the feed's record of program order (dynamic sequence
            number).  Timing never reads it: each processor numbers the
            ops it fetches.  The commit-order invariant and lockstep
            messages quote it.
        pc: static instruction id.
        opcode: opcode mnemonic (e.g. ``"ADD"``).
        op_class: :class:`~repro.isa.opcodes.OpClass` of the operation.
        dest: architectural destination register or None (zero-register
            destinations are already filtered to None).
        srcs: raw encoded source register fields (zero regs included).
        sched_deps: unique non-zero source registers the scheduler must wait
            on, in left-to-right encoding order (store data excluded).
        store_data_reg: for stores, the data source register (or None).
        mem_addr: effective address for loads/stores, else None.
        taken: actual direction for control instructions.
        next_pc: actual next static instruction id.
        static_target: decode-time target for direct branches, else None.
        is_two_source_format / is_eliminated_nop: Figure 2/3 classification.
        dest_value: architectural value written to ``dest`` (execution-driven
            feeds only; None for profile-driven streams).  Consumed by the
            lockstep checker (:mod:`repro.verify.lockstep`), never by timing.
        store_value: value the store writes to memory (same caveats).

    A DynOp is read-only once built.  Feeds may hand the same instance to
    many runs, in one thread or several (a replayed list, or the shared
    synthetic feeds of :func:`~repro.workloads.synthetic.shared_workload`),
    so no processor, checker or statistic may assign to its attributes.
    """

    __slots__ = (
        "seq",
        "pc",
        "opcode",
        "op_class",
        "dest",
        "srcs",
        "sched_deps",
        "store_data_reg",
        "mem_addr",
        "taken",
        "next_pc",
        "static_target",
        "is_two_source_format",
        "is_eliminated_nop",
        "dest_value",
        "store_value",
        "is_load",
        "is_store",
        "is_branch",
        "is_control",
        "is_two_source",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        opcode: str,
        op_class: OpClass,
        dest: int | None = None,
        srcs: tuple[int, ...] = (),
        sched_deps: tuple[int, ...] = (),
        store_data_reg: int | None = None,
        mem_addr: int | None = None,
        taken: bool = False,
        next_pc: int | None = None,
        static_target: int | None = None,
        is_two_source_format: bool = False,
        is_eliminated_nop: bool = False,
        dest_value: int | float | None = None,
        store_value: int | float | None = None,
    ):
        self.seq = seq
        self.pc = pc
        self.opcode = opcode
        self.op_class = op_class
        self.dest = dest
        self.srcs = srcs
        self.sched_deps = sched_deps
        self.store_data_reg = store_data_reg
        self.mem_addr = mem_addr
        self.taken = taken
        self.next_pc = next_pc if next_pc is not None else pc + 1
        self.static_target = static_target
        self.is_two_source_format = is_two_source_format
        self.is_eliminated_nop = is_eliminated_nop
        self.dest_value = dest_value
        self.store_value = store_value
        # Classification flags the scheduler reads on nearly every cycle an
        # instruction is in flight; precomputed here so the hot loop does
        # plain slot reads instead of property descriptors + enum compares.
        is_store = op_class is _STORE
        is_branch = op_class is _BRANCH
        self.is_load = op_class is _LOAD
        self.is_store = is_store
        self.is_branch = is_branch
        self.is_control = is_branch or op_class is _JUMP
        #: the paper's 2-source classification (see Instruction)
        self.is_two_source = (
            not is_store and not is_eliminated_nop and len(sched_deps) == 2
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"DynOp(seq={self.seq}, pc={self.pc}, {self.opcode})"


def dynop_from_instruction(
    seq: int,
    pc: int,
    inst: Instruction,
    mem_addr: int | None = None,
    taken: bool = False,
    next_pc: int | None = None,
    dest_value: int | float | None = None,
    store_value: int | float | None = None,
) -> DynOp:
    """Build a :class:`DynOp` from a decoded static instruction."""
    eliminated = inst.is_eliminated_nop
    if inst.is_store:
        # Address generation depends on the base register; the data register
        # is consumed by the commit-time data move.
        base = inst.srcs[1]
        sched_deps = () if is_zero_reg(base) else (base,)
        store_data = inst.srcs[0]
    else:
        sched_deps = () if eliminated else inst.unique_nonzero_sources
        store_data = None
    dest = inst.dest if inst.writes_register and not eliminated else None
    return DynOp(
        seq=seq,
        pc=pc,
        opcode=inst.opcode.name,
        op_class=inst.op_class,
        dest=dest,
        srcs=inst.srcs,
        sched_deps=sched_deps,
        store_data_reg=store_data,
        mem_addr=mem_addr,
        taken=taken,
        next_pc=next_pc,
        static_target=inst.target,
        is_two_source_format=inst.is_two_source_format,
        is_eliminated_nop=eliminated,
        dest_value=dest_value,
        store_value=store_value,
    )
