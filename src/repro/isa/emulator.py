"""Functional (architectural) emulator for HPRISC programs.

The emulator executes a :class:`~repro.isa.assembler.Program` at architectural
level: one instruction per step, no timing.  It serves two purposes:

* it lets the example kernels actually run and be checked for correctness;
* it produces the committed dynamic instruction stream that drives the
  execution-driven timing simulator (``repro.workloads.feed``).

Integer registers hold 64-bit two's-complement values; floating-point
registers hold Python floats.  Memory is a sparse dictionary keyed by
8-byte-aligned addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EmulationError
from repro.isa.assembler import Program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.isa.registers import FP_REG_BASE, NUM_ARCH_REGS, is_fp_reg, is_zero_reg

#: Default step budget: generous, but stops runaway programs.
MAX_STEPS_DEFAULT = 10_000_000

_MASK64 = (1 << 64) - 1


def _to_signed(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


@dataclass(frozen=True)
class ExecutedInstruction:
    """One architecturally executed instruction (a dynamic instance)."""

    pc: int
    instruction: Instruction
    next_pc: int
    taken: bool = False
    mem_addr: int | None = None


class Emulator:
    """Architectural interpreter for HPRISC.

    Example::

        program = assemble(SOURCE)
        emu = Emulator(program)
        emu.run()
        assert emu.read_reg(1) == 42
    """

    def __init__(self, program: Program, entry: int = 0):
        self.program = program
        self.pc = entry
        self.halted = False
        self.steps = 0
        self._int_regs = [0] * 32
        self._fp_regs = [0.0] * 32
        self.memory: dict[int, int | float] = dict(program.data)

    # ------------------------------------------------------------------
    # Register/memory access helpers.
    # ------------------------------------------------------------------
    def read_reg(self, reg: int) -> int | float:
        if is_zero_reg(reg):
            return 0.0 if is_fp_reg(reg) else 0
        if is_fp_reg(reg):
            return self._fp_regs[reg - FP_REG_BASE]
        return self._int_regs[reg]

    def write_reg(self, reg: int, value: int | float) -> None:
        if not 0 <= reg < NUM_ARCH_REGS:
            raise EmulationError(f"register index out of range: {reg}")
        if is_zero_reg(reg):
            return
        if is_fp_reg(reg):
            self._fp_regs[reg - FP_REG_BASE] = float(value)
        else:
            self._int_regs[reg] = _to_signed(int(value))

    def read_mem(self, addr: int) -> int | float:
        return self.memory.get(addr & ~7, 0)

    def write_mem(self, addr: int, value: int | float) -> None:
        self.memory[addr & ~7] = value

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def step(self) -> ExecutedInstruction:
        """Execute one instruction and return its dynamic record."""
        if self.halted:
            raise EmulationError("emulator is halted")
        if not 0 <= self.pc < len(self.program.instructions):
            raise EmulationError(f"PC out of range: {self.pc}")
        inst = self.program.instructions[self.pc]
        pc = self.pc
        record = self._execute(inst, pc)
        self.pc = record.next_pc
        self.steps += 1
        return record

    def run(self, max_steps: int = MAX_STEPS_DEFAULT) -> int:
        """Run until ``HALT`` or *max_steps*; return executed step count."""
        start = self.steps
        while not self.halted:
            if self.steps - start >= max_steps:
                raise EmulationError(f"exceeded step budget of {max_steps}")
            self.step()
        return self.steps - start

    def __iter__(self):
        """Yield executed instructions until the program halts."""
        while not self.halted:
            yield self.step()

    # ------------------------------------------------------------------
    def _execute(self, inst: Instruction, pc: int) -> ExecutedInstruction:
        cls = inst.op_class
        if cls is OpClass.HALT:
            self.halted = True
            return ExecutedInstruction(pc, inst, pc)
        if cls is OpClass.NOP:
            return ExecutedInstruction(pc, inst, pc + 1)
        if cls is OpClass.LOAD:
            addr = (int(self.read_reg(inst.srcs[0])) + inst.imm) & _MASK64
            self.write_reg(inst.dest, self.read_mem(addr))
            return ExecutedInstruction(pc, inst, pc + 1, mem_addr=addr)
        if cls is OpClass.STORE:
            addr = (int(self.read_reg(inst.srcs[1])) + inst.imm) & _MASK64
            self.write_mem(addr, self.read_reg(inst.srcs[0]))
            return ExecutedInstruction(pc, inst, pc + 1, mem_addr=addr)
        if cls is OpClass.BRANCH:
            taken = self._branch_taken(inst)
            next_pc = inst.target if taken else pc + 1
            return ExecutedInstruction(pc, inst, next_pc, taken=taken)
        if cls is OpClass.JUMP:
            target = int(self.read_reg(inst.srcs[0]))
            if inst.opcode.name == "JSR":
                self.write_reg(inst.dest, pc + 1)
            return ExecutedInstruction(pc, inst, target, taken=True)
        self._execute_operate(inst)
        return ExecutedInstruction(pc, inst, pc + 1)

    def _branch_taken(self, inst: Instruction) -> bool:
        name = inst.opcode.name
        if name == "BR":
            return True
        value = self.read_reg(inst.srcs[0])
        if name == "BEQ":
            return value == 0
        if name == "BNE":
            return value != 0
        if name == "BLT":
            return value < 0
        if name == "BGE":
            return value >= 0
        raise EmulationError(f"unknown branch {name}")

    def _execute_operate(self, inst: Instruction) -> None:
        name = inst.opcode.name
        if name == "LDI":
            self.write_reg(inst.dest, inst.imm)
            return
        if name in ("MOV", "MOVF"):
            self.write_reg(inst.dest, self.read_reg(inst.srcs[0]))
            return
        a = self.read_reg(inst.srcs[0])
        b = self.read_reg(inst.srcs[1]) if len(inst.srcs) == 2 else inst.imm
        self.write_reg(inst.dest, self._alu(name, a, b))

    @staticmethod
    def _alu(name: str, a, b):
        if name == "ADD" or name == "ADDF":
            return a + b
        if name == "SUB" or name == "SUBF":
            return a - b
        if name == "AND":
            return int(a) & int(b)
        if name == "OR":
            return int(a) | int(b)
        if name == "XOR":
            return int(a) ^ int(b)
        if name == "SLL":
            return int(a) << (int(b) & 63)
        if name == "SRL":
            return (int(a) & _MASK64) >> (int(b) & 63)
        if name == "CMPEQ" or name == "CMPFEQ":
            return 1 if a == b else 0
        if name == "CMPLT" or name == "CMPFLT":
            return 1 if a < b else 0
        if name == "CMPLE":
            return 1 if a <= b else 0
        if name in ("MUL", "MULF"):
            return a * b
        if name in ("DIV", "DIVF"):
            if b == 0:
                raise EmulationError("division by zero")
            if name == "DIV":
                quotient = abs(int(a)) // abs(int(b))
                return -quotient if (a < 0) != (b < 0) else quotient
            return a / b
        raise EmulationError(f"unknown operate opcode {name}")
