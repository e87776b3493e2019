"""Static instruction representation for HPRISC.

An :class:`Instruction` is the decoded, assembler-produced form of one static
instruction.  It knows its operand fields and exposes the static
classifications the paper's Section 2.3 characterization needs:

* whether the *encoding* has a two-source format (Figure 2);
* how many unique, non-zero-register sources it has (Figure 3);
* whether it is an eliminated 2-source-format nop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import Opcode, OpClass
from repro.isa.registers import is_zero_reg


@dataclass(frozen=True)
class Instruction:
    """One decoded static HPRISC instruction.

    Attributes:
        opcode: the static opcode description.
        dest: destination architectural register, or ``None``.
        srcs: tuple of source architectural registers as they appear in the
            encoding (zero registers included), length 0..2.
        imm: immediate value for operate-with-immediate, load/store
            displacement, or load-immediate value.
        target: branch/call target as an instruction index, or ``None``.
    """

    opcode: Opcode
    dest: int | None = None
    srcs: tuple[int, ...] = field(default=())
    imm: int = 0
    target: int | None = None

    def __post_init__(self):
        if len(self.srcs) > 2:
            raise ValueError("HPRISC instructions have at most 2 sources")

    # ------------------------------------------------------------------
    # Classification helpers used throughout the characterization code.
    # ------------------------------------------------------------------
    @property
    def op_class(self) -> OpClass:
        return self.opcode.op_class

    @property
    def is_load(self) -> bool:
        return self.op_class is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class is OpClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.op_class is OpClass.BRANCH

    @property
    def is_control(self) -> bool:
        return self.op_class.is_control

    @property
    def is_halt(self) -> bool:
        return self.op_class is OpClass.HALT

    @property
    def is_two_source_format(self) -> bool:
        """True if the encoding carries two register source fields.

        This is the Figure 2 notion: a property of the instruction format,
        independent of which registers the fields actually name.
        """
        return len(self.srcs) == 2

    @property
    def is_eliminated_nop(self) -> bool:
        """True for nops the decoder drops without execution.

        Covers explicit ``NOP``/``NOP2`` and operate instructions whose
        destination is a zero register (the Alpha idiom for alignment nops).
        """
        if self.op_class is OpClass.NOP:
            return True
        return self.dest is not None and is_zero_reg(self.dest)

    @property
    def unique_nonzero_sources(self) -> tuple[int, ...]:
        """Source registers that create true data dependences.

        Zero registers never create dependences and duplicated registers
        count once, per the paper's Figure 3 breakdown.
        """
        seen: list[int] = []
        for reg in self.srcs:
            if not is_zero_reg(reg) and reg not in seen:
                seen.append(reg)
        return tuple(seen)

    @property
    def is_two_source(self) -> bool:
        """True for the paper's *2-source instructions*.

        Two unique, non-zero-register sources in a non-store, non-eliminated
        instruction.  Stores are excluded because they are handled as an
        address generation plus a data move (Section 2.3).
        """
        if self.is_store or self.is_eliminated_nop:
            return False
        return len(self.unique_nonzero_sources) == 2

    @property
    def writes_register(self) -> bool:
        """True if the instruction produces an architectural result."""
        return self.dest is not None and not is_zero_reg(self.dest)

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        from repro.isa.disassembler import disassemble

        return disassemble(self)
