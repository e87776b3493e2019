"""Two-pass assembler for HPRISC assembly source.

Syntax overview::

    ; line comment (also "//")
    loop:                    ; label
        LDI   r1, 100        ; load immediate
        ADD   r2, r1, r3     ; operate, register form
        ADD   r2, r1, #4     ; operate, immediate form
        NOP2  r1, r2         ; 2-source-format alignment nop
        LDQ   r4, 8(r2)      ; load, displacement addressing
        STQ   r4, 0(r2)      ; store
        BEQ   r1, loop       ; conditional branch to label
        BR    done           ; unconditional branch
        JSR   r26, (r5)      ; call through register, saves return PC
        RET   (r26)          ; return through register
    done:
        HALT

    .data 4096               ; switch to data emission at address 4096
    .word 1 2 3              ; emit 64-bit words at the current data cursor

Instruction addresses are word indices; :meth:`Program.pc_address` maps an
index to a byte address for cache modelling.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AssemblyError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_BY_NAME, OpClass, Opcode
from repro.isa.registers import R31, parse_reg

#: Byte size of one instruction slot, used to map indices to PC addresses.
INSTRUCTION_BYTES = 4

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEM_OPERAND_RE = re.compile(r"^(-?\d+)?\(\s*([rf]\d+)\s*\)$")
_INDIRECT_RE = re.compile(r"^\(\s*([rf]\d+)\s*\)$")


@dataclass
class Program:
    """An assembled HPRISC program.

    Attributes:
        instructions: decoded static instructions, indexed by PC.
        labels: label name -> instruction index.
        data: initial data memory contents (byte address -> 64-bit value).
        source_lines: original source line number per instruction (for
            diagnostics), parallel to ``instructions``.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: dict[int, int] = field(default_factory=dict)
    source_lines: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    def pc_address(self, index: int) -> int:
        """Byte address of the instruction at *index*."""
        return index * INSTRUCTION_BYTES


def _strip_comment(line: str) -> str:
    # "#" is reserved for immediates, so comments are ";" or "//" only.
    for marker in (";", "//"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _split_operands(rest: str) -> list[str]:
    return [tok.strip() for tok in rest.split(",") if tok.strip()] if rest else []


def _parse_int(token: str, line_number: int) -> int:
    token = token.lstrip("#")
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(f"bad integer literal {token!r}", line_number) from None


class _Assembler:
    """Internal two-pass assembler state machine."""

    def __init__(self, source: str):
        self.source = source
        self.program = Program()
        # (instruction index, label, source line, field): field is "target"
        # for branch targets, "imm" for LDI label immediates.
        self._fixups: list[tuple[int, str, int, str]] = []
        self._data_cursor: int | None = None

    def run(self) -> Program:
        for line_number, raw in enumerate(self.source.splitlines(), start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            self._assemble_line(line, line_number)
        self._apply_fixups()
        return self.program

    # ------------------------------------------------------------------
    def _assemble_line(self, line: str, line_number: int) -> None:
        while ":" in line:
            label, _, line = line.partition(":")
            label = label.strip()
            if not _LABEL_RE.match(label):
                raise AssemblyError(f"bad label {label!r}", line_number)
            if label in self.program.labels:
                raise AssemblyError(f"duplicate label {label!r}", line_number)
            self.program.labels[label] = len(self.program.instructions)
            line = line.strip()
        if not line:
            return
        if line.startswith("."):
            self._assemble_directive(line, line_number)
            return
        mnemonic, _, rest = line.partition(" ")
        opcode = OPCODE_BY_NAME.get(mnemonic.upper())
        if opcode is None:
            raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_number)
        operands = _split_operands(rest.strip())
        inst = self._build_instruction(opcode, operands, line_number)
        self.program.instructions.append(inst)
        self.program.source_lines.append(line_number)

    def _assemble_directive(self, line: str, line_number: int) -> None:
        name, _, rest = line.partition(" ")
        name = name.lower()
        if name == ".data":
            self._data_cursor = _parse_int(rest.strip(), line_number)
        elif name == ".word":
            if self._data_cursor is None:
                raise AssemblyError(".word before .data", line_number)
            for token in rest.split():
                self.program.data[self._data_cursor] = _parse_int(token, line_number)
                self._data_cursor += 8
        else:
            raise AssemblyError(f"unknown directive {name!r}", line_number)

    # ------------------------------------------------------------------
    def _build_instruction(
        self, opcode: Opcode, operands: list[str], line_number: int
    ) -> Instruction:
        cls = opcode.op_class
        if cls in (OpClass.NOP, OpClass.HALT):
            return self._build_nop_or_halt(opcode, operands, line_number)
        if cls.is_memory:
            return self._build_memory(opcode, operands, line_number)
        if cls is OpClass.BRANCH:
            return self._build_branch(opcode, operands, line_number)
        if cls is OpClass.JUMP:
            return self._build_jump(opcode, operands, line_number)
        return self._build_operate(opcode, operands, line_number)

    def _build_nop_or_halt(self, opcode, operands, line_number) -> Instruction:
        if opcode.name == "NOP2":
            if len(operands) != 2:
                raise AssemblyError("NOP2 takes two source registers", line_number)
            srcs = tuple(self._reg(tok, line_number) for tok in operands)
            return Instruction(opcode, dest=R31, srcs=srcs)
        if operands:
            raise AssemblyError(f"{opcode.name} takes no operands", line_number)
        return Instruction(opcode)

    def _build_operate(self, opcode, operands, line_number) -> Instruction:
        if opcode.name == "LDI":
            if len(operands) != 2:
                raise AssemblyError("LDI takes rd, imm|label", line_number)
            dest = self._reg(operands[0], line_number)
            value = operands[1]
            if _LABEL_RE.match(value) and not value.lstrip("-").isdigit():
                # Label immediate: resolves to the label's instruction index.
                self._fixups.append(
                    (len(self.program.instructions), value, line_number, "imm")
                )
                return Instruction(opcode, dest=dest)
            return Instruction(opcode, dest=dest, imm=_parse_int(value, line_number))
        if opcode.name in ("MOV", "MOVF"):
            if len(operands) != 2:
                raise AssemblyError(f"{opcode.name} takes rd, ra", line_number)
            dest = self._reg(operands[0], line_number)
            src = self._reg(operands[1], line_number)
            return Instruction(opcode, dest=dest, srcs=(src,))
        if len(operands) != 3:
            raise AssemblyError(f"{opcode.name} takes rd, ra, rb|#imm", line_number)
        dest = self._reg(operands[0], line_number)
        src_a = self._reg(operands[1], line_number)
        last = operands[2]
        if last.startswith("#"):
            if not opcode.allows_imm:
                raise AssemblyError(f"{opcode.name} has no immediate form", line_number)
            return Instruction(
                opcode, dest=dest, srcs=(src_a,), imm=_parse_int(last, line_number)
            )
        src_b = self._reg(last, line_number)
        return Instruction(opcode, dest=dest, srcs=(src_a, src_b))

    def _build_memory(self, opcode, operands, line_number) -> Instruction:
        if len(operands) != 2:
            raise AssemblyError(f"{opcode.name} takes rX, off(rY)", line_number)
        reg = self._reg(operands[0], line_number)
        match = _MEM_OPERAND_RE.match(operands[1].replace(" ", ""))
        if not match:
            raise AssemblyError(f"bad memory operand {operands[1]!r}", line_number)
        offset = int(match.group(1) or 0)
        base = self._reg(match.group(2), line_number)
        if opcode.op_class is OpClass.LOAD:
            return Instruction(opcode, dest=reg, srcs=(base,), imm=offset)
        # Store: sources are (data register, base register).
        return Instruction(opcode, srcs=(reg, base), imm=offset)

    def _build_branch(self, opcode, operands, line_number) -> Instruction:
        if opcode.name == "BR":
            if len(operands) != 1:
                raise AssemblyError("BR takes a label", line_number)
            return self._with_label(Instruction(opcode), operands[0], line_number)
        if len(operands) != 2:
            raise AssemblyError(f"{opcode.name} takes ra, label", line_number)
        src = self._reg(operands[0], line_number)
        return self._with_label(
            Instruction(opcode, srcs=(src,)), operands[1], line_number
        )

    def _build_jump(self, opcode, operands, line_number) -> Instruction:
        if opcode.name == "JSR":
            if len(operands) != 2:
                raise AssemblyError("JSR takes rd, (ra)", line_number)
            dest = self._reg(operands[0], line_number)
            base = self._indirect(operands[1], line_number)
            return Instruction(opcode, dest=dest, srcs=(base,))
        if len(operands) != 1:
            raise AssemblyError(f"{opcode.name} takes (ra)", line_number)
        base = self._indirect(operands[0], line_number)
        return Instruction(opcode, srcs=(base,))

    # ------------------------------------------------------------------
    def _reg(self, token: str, line_number: int) -> int:
        try:
            return parse_reg(token)
        except ValueError as exc:
            raise AssemblyError(str(exc), line_number) from None

    def _indirect(self, token: str, line_number: int) -> int:
        match = _INDIRECT_RE.match(token.replace(" ", ""))
        if not match:
            raise AssemblyError(f"bad indirect operand {token!r}", line_number)
        return self._reg(match.group(1), line_number)

    def _with_label(
        self, inst: Instruction, label: str, line_number: int
    ) -> Instruction:
        label = label.strip()
        if not _LABEL_RE.match(label):
            raise AssemblyError(f"bad branch target {label!r}", line_number)
        self._fixups.append((len(self.program.instructions), label, line_number, "target"))
        return inst

    def _apply_fixups(self) -> None:
        from dataclasses import replace

        for index, label, line_number, field_name in self._fixups:
            target = self.program.labels.get(label)
            if target is None:
                raise AssemblyError(f"undefined label {label!r}", line_number)
            self.program.instructions[index] = replace(
                self.program.instructions[index], **{field_name: target}
            )


def assemble(source: str) -> Program:
    """Assemble HPRISC *source* text into a :class:`Program`."""
    return _Assembler(source).run()
