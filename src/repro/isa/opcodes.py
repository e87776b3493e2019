"""Opcode and operation-class definitions for HPRISC.

Each opcode belongs to an :class:`OpClass`, which determines which functional
unit executes it and its nominal latency (configured per machine in
``repro.pipeline.config``).  The *format* of an opcode records how many
register source fields it carries, which is what the paper's Figure 2/3
characterization is about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional-unit class of an operation."""

    INT_ALU = "int_alu"
    INT_MULT = "int_mult"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MULT = "fp_mult"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    NOP = "nop"
    HALT = "halt"

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_control(self) -> bool:
        return self in (OpClass.BRANCH, OpClass.JUMP)


# Dense integer index per class, for list-based lookup tables in the hot
# simulation loop (enum hashing is measurably slow in CPython).
for _index, _member in enumerate(OpClass):
    _member.idx = _index
del _index, _member


class Format(enum.Enum):
    """Instruction encoding format (number and role of register fields).

    Mirrors the paper's Section 2.3: the Alpha ISA has four major format
    classes with 0, 1, 2 or 3 register fields, supporting up to two source
    registers and one destination register.
    """

    #: No register fields (unconditional branch to label, nop, halt).
    ZERO_REG = 0
    #: One register field (e.g. load-immediate destination).
    ONE_REG = 1
    #: Two register fields (e.g. conditional branch source + implied target,
    #: load ``rd, off(ra)``, register-indirect jump).
    TWO_REG = 2
    #: Three register fields (operate format ``op rd, ra, rb``).
    THREE_REG = 3


@dataclass(frozen=True)
class Opcode:
    """Static description of one HPRISC opcode."""

    name: str
    op_class: OpClass
    fmt: Format
    #: Number of register *source* fields in the encoding (0, 1 or 2).
    num_src_fields: int
    #: True if the encoding carries a destination register field.
    has_dest: bool
    #: True if the operate form takes an immediate instead of ``rb``.
    allows_imm: bool = False

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return self.name


def _op(name, op_class, fmt, num_src, has_dest, allows_imm=False):
    return Opcode(name, op_class, fmt, num_src, has_dest, allows_imm)


#: All HPRISC opcodes, keyed by mnemonic.
OPCODE_BY_NAME: dict[str, Opcode] = {
    op.name: op
    for op in [
        # Integer operate format: op rd, ra, rb  |  op rd, ra, #imm
        _op("ADD", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("SUB", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("AND", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("OR", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("XOR", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("SLL", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("SRL", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("CMPEQ", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("CMPLT", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("CMPLE", OpClass.INT_ALU, Format.THREE_REG, 2, True, True),
        _op("MUL", OpClass.INT_MULT, Format.THREE_REG, 2, True, True),
        _op("DIV", OpClass.INT_DIV, Format.THREE_REG, 2, True, True),
        # Floating point operate format.
        _op("ADDF", OpClass.FP_ALU, Format.THREE_REG, 2, True),
        _op("SUBF", OpClass.FP_ALU, Format.THREE_REG, 2, True),
        _op("CMPFEQ", OpClass.FP_ALU, Format.THREE_REG, 2, True),
        _op("CMPFLT", OpClass.FP_ALU, Format.THREE_REG, 2, True),
        _op("MULF", OpClass.FP_MULT, Format.THREE_REG, 2, True),
        _op("DIVF", OpClass.FP_DIV, Format.THREE_REG, 2, True),
        # Register moves / immediates.
        _op("LDI", OpClass.INT_ALU, Format.ONE_REG, 0, True, True),
        _op("MOV", OpClass.INT_ALU, Format.TWO_REG, 1, True),
        _op("MOVF", OpClass.FP_ALU, Format.TWO_REG, 1, True),
        # Memory format: LDQ rd, off(ra) / STQ rs, off(ra).
        _op("LDQ", OpClass.LOAD, Format.TWO_REG, 1, True),
        _op("LDF", OpClass.LOAD, Format.TWO_REG, 1, True),
        _op("STQ", OpClass.STORE, Format.TWO_REG, 2, False),
        _op("STF", OpClass.STORE, Format.TWO_REG, 2, False),
        # Branch format: cond branches read one register; BR reads none.
        _op("BEQ", OpClass.BRANCH, Format.TWO_REG, 1, False),
        _op("BNE", OpClass.BRANCH, Format.TWO_REG, 1, False),
        _op("BLT", OpClass.BRANCH, Format.TWO_REG, 1, False),
        _op("BGE", OpClass.BRANCH, Format.TWO_REG, 1, False),
        _op("BR", OpClass.BRANCH, Format.ZERO_REG, 0, False),
        # Jumps: JMP (ra) is register indirect; JSR saves the return PC;
        # RET returns through a register.
        _op("JMP", OpClass.JUMP, Format.TWO_REG, 1, False),
        _op("JSR", OpClass.JUMP, Format.TWO_REG, 1, True),
        _op("RET", OpClass.JUMP, Format.TWO_REG, 1, False),
        # Nops and machine control.  NOP2 is a 2-source-format nop (an
        # operate instruction writing the zero register) of the kind DEC
        # compilers emit for alignment; the decoder eliminates it.
        _op("NOP", OpClass.NOP, Format.ZERO_REG, 0, False),
        _op("NOP2", OpClass.NOP, Format.THREE_REG, 2, False),
        _op("HALT", OpClass.HALT, Format.ZERO_REG, 0, False),
    ]
}
