"""Disassembler: render decoded instructions back to assembly text."""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.isa.registers import reg_name


def disassemble(inst: Instruction) -> str:
    """Render *inst* as one line of HPRISC assembly.

    A branch target is rendered as its instruction index.
    """
    name = inst.opcode.name
    cls = inst.op_class
    target = str(inst.target) if inst.target is not None else "?"
    if cls in (OpClass.NOP, OpClass.HALT):
        if name == "NOP2":
            return f"NOP2 {reg_name(inst.srcs[0])}, {reg_name(inst.srcs[1])}"
        return name
    if cls is OpClass.LOAD:
        return f"{name} {reg_name(inst.dest)}, {inst.imm}({reg_name(inst.srcs[0])})"
    if cls is OpClass.STORE:
        return f"{name} {reg_name(inst.srcs[0])}, {inst.imm}({reg_name(inst.srcs[1])})"
    if cls is OpClass.BRANCH:
        if name == "BR":
            return f"BR {target}"
        return f"{name} {reg_name(inst.srcs[0])}, {target}"
    if cls is OpClass.JUMP:
        if name == "JSR":
            return f"JSR {reg_name(inst.dest)}, ({reg_name(inst.srcs[0])})"
        return f"{name} ({reg_name(inst.srcs[0])})"
    # Operate formats.
    if name == "LDI":
        return f"LDI {reg_name(inst.dest)}, {inst.imm}"
    if name in ("MOV", "MOVF"):
        return f"{name} {reg_name(inst.dest)}, {reg_name(inst.srcs[0])}"
    if len(inst.srcs) == 1:
        return f"{name} {reg_name(inst.dest)}, {reg_name(inst.srcs[0])}, #{inst.imm}"
    return (
        f"{name} {reg_name(inst.dest)}, "
        f"{reg_name(inst.srcs[0])}, {reg_name(inst.srcs[1])}"
    )
