"""Seeded random HPRISC program generator for differential fuzzing.

The generator emits assembly *source text* (not DynOps), so every fuzz case
is a real program: it assembles, runs on the functional emulator, and drives
the timing pipeline through :class:`~repro.workloads.feed.EmulatorFeed`.
Source text also makes failing cases trivially shrinkable and human-readable
in repro files.

Programs are built from structured segments so termination is guaranteed by
construction:

* backward branches exist only as *counted loops* whose counter registers
  are reserved (never clobbered by random instructions);
* all other branches are forward (if/else diamonds);
* subroutine calls are single-level (``JSR`` through a scratch register,
  straight-line body, ``RET``).

The instruction mix deliberately stresses the paper's machinery: aliasing
loads and stores through overlapping pointers (store-to-load forwarding and
replay storms), long-latency ``DIV``/``MULF`` chains (wakeup slack), and
0/1/2-source operand mixes with zero-register and duplicate-register
demotions (last-arrival prediction and sequential register access).

Divisions are made safe by construction: integer divides always use a
reserved non-zero divisor register or a non-zero immediate, floating
divides a reserved non-zero FP register.
"""

from __future__ import annotations

import random

from repro.isa.assembler import Program, assemble

#: Pointer registers, initialized into the shared data region (aliasing).
_POINTERS = ("r1", "r2", "r3")
#: General int scratch registers the generator may clobber freely.
_INT_WORK = tuple(f"r{n}" for n in range(4, 14))
#: Reserved non-zero integer divisor (never written after init).
_INT_DIVISOR = "r14"
#: Scratch register holding JSR targets (clobbered only right before JSR).
_JSR_TARGET = "r15"
#: FP scratch registers.
_FP_WORK = tuple(f"f{n}" for n in range(1, 6))
#: Reserved non-zero FP divisor (loaded from a known-non-zero data word).
_FP_DIVISOR = "f6"
#: Loop counter registers, one per nesting depth (reserved).
_COUNTERS = ("r20", "r21")
#: Subroutine link register (reserved).
_LINK = "r26"

_INT_ALU_RR = ("ADD", "SUB", "AND", "OR", "XOR", "CMPEQ", "CMPLT", "CMPLE")
_INT_ALU_RI = ("ADD", "SUB", "AND", "OR", "XOR", "SLL", "SRL")
_FP_ALU = ("ADDF", "SUBF", "CMPFEQ", "CMPFLT")
_BRANCHES = ("BEQ", "BNE", "BLT", "BGE")


# Size and mix of every generated program.
#: top-level structured segments (blocks / loops / diamonds / calls)
_SEGMENTS = 8
#: straight-line block length range (inclusive)
_BLOCK_LEN = (2, 6)
#: counted-loop iteration range (inclusive; small keeps runs bounded)
_LOOP_ITERS = (1, 4)
#: maximum loop nesting depth (one reserved counter register per level)
_MAX_LOOP_DEPTH = len(_COUNTERS)
#: maximum number of straight-line subroutines
_SUBROUTINES = 2
#: 64-bit words in the shared data region
_DATA_WORDS = 32
#: byte address of the data region
_REGION_BASE = 4096
#: probability that an integer (FP) source names the zero register r31 (f31)
_ZERO_REG_BIAS = 0.08
#: probability that a 2-source instruction duplicates one source
_DUPLICATE_BIAS = 0.10


class ProgramGenerator:
    """Deterministic random program builder for one seed.

    Example::

        source = ProgramGenerator(seed=7).source()
        program = assemble(source)
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self._label_counter = 0
        self._subroutines: list[str] = []

    # ------------------------------------------------------------------
    def source(self) -> str:
        """Generate the program's assembly source text."""
        rng = self.rng
        sub_count = rng.randint(0, _SUBROUTINES)
        self._subroutines = [f"sub{i}" for i in range(sub_count)]

        lines: list[str] = [f"; fuzz program (seed={self.seed})"]
        lines += self._data_section()
        lines += self._init_block()
        for _ in range(_SEGMENTS):
            lines += self._segment(depth=0)
        lines.append("    HALT")
        for name in self._subroutines:
            lines += self._subroutine(name)
        return "\n".join(lines) + "\n"

    def program(self) -> Program:
        """Generate and assemble the program."""
        return assemble(self.source())

    # ------------------------------------------------------------------
    # Layout pieces.
    # ------------------------------------------------------------------
    def _data_section(self) -> list[str]:
        rng = self.rng
        # Word 0 is the FP divisor source: keep it small and non-zero.
        words = [rng.randint(1, 9)]
        words += [rng.randint(-100, 100) for _ in range(_DATA_WORDS - 1)]
        lines = [f"    .data {_REGION_BASE}"]
        for start in range(0, len(words), 8):
            chunk = " ".join(str(w) for w in words[start : start + 8])
            lines.append(f"    .word {chunk}")
        return lines

    def _init_block(self) -> list[str]:
        rng = self.rng
        lines = [f"    LDI  {_POINTERS[0]}, {_REGION_BASE}"]
        for pointer in _POINTERS[1:]:
            lines.append(f"    LDI  {pointer}, {_REGION_BASE + 8 * rng.randrange(_DATA_WORDS)}")
        lines.append(f"    LDI  {_INT_DIVISOR}, {rng.randint(2, 9)}")
        lines.append(f"    LDF  {_FP_DIVISOR}, 0({_POINTERS[0]})")
        for reg in rng.sample(_INT_WORK, 4):
            lines.append(f"    LDI  {reg}, {rng.randint(-50, 50)}")
        for reg in rng.sample(_FP_WORK, 2):
            lines.append(f"    LDF  {reg}, {self._offset()}({_POINTERS[0]})")
        return lines

    def _subroutine(self, name: str) -> list[str]:
        lines = [f"{name}:"]
        for _ in range(self.rng.randint(2, 5)):
            lines += self._instruction()
        lines.append(f"    RET  ({_LINK})")
        return lines

    # ------------------------------------------------------------------
    # Structured segments (recursive, forward-branching except loops).
    # ------------------------------------------------------------------
    def _segment(self, depth: int) -> list[str]:
        rng = self.rng
        choices = ["block", "block", "diamond", "diamond", "loop", "loop"]
        if self._subroutines:
            choices.append("call")
        if depth >= _MAX_LOOP_DEPTH:
            choices = [c for c in choices if c != "loop"]
        kind = rng.choice(choices)
        if kind == "loop":
            return self._loop(depth)
        if kind == "diamond":
            return self._diamond(depth)
        if kind == "call":
            return self._call()
        return self._block()

    def _block(self) -> list[str]:
        lines: list[str] = []
        for _ in range(self.rng.randint(*_BLOCK_LEN)):
            lines += self._instruction()
        return lines

    def _loop(self, depth: int) -> list[str]:
        rng = self.rng
        counter = _COUNTERS[depth]
        label = self._label("loop")
        lines = [f"    LDI  {counter}, {rng.randint(*_LOOP_ITERS)}"]
        lines.append(f"{label}:")
        for _ in range(rng.randint(1, 2)):
            lines += self._segment(depth + 1)
        lines.append(f"    SUB  {counter}, {counter}, #1")
        lines.append(f"    BNE  {counter}, {label}")
        return lines

    def _diamond(self, depth: int) -> list[str]:
        rng = self.rng
        else_label = self._label("else")
        end_label = self._label("end")
        cond = rng.choice(_INT_WORK + _COUNTERS[: depth and 1])
        lines = [f"    {rng.choice(_BRANCHES)}  {cond}, {else_label}"]
        lines += self._block()
        lines.append(f"    BR   {end_label}")
        lines.append(f"{else_label}:")
        lines += self._block()
        lines.append(f"{end_label}:")
        return lines

    def _call(self) -> list[str]:
        name = self.rng.choice(self._subroutines)
        return [
            f"    LDI  {_JSR_TARGET}, {name}",
            f"    JSR  {_LINK}, ({_JSR_TARGET})",
        ]

    # ------------------------------------------------------------------
    # Random instructions.
    # ------------------------------------------------------------------
    def _instruction(self) -> list[str]:
        """One (occasionally two) random straight-line instructions."""
        rng = self.rng
        kind = rng.choices(
            (
                "alu_rr", "alu_ri", "mul", "div", "fp", "mulf", "divf",
                "load", "store", "fwd_pair", "bump", "mov", "ldi",
                "nop2", "zero_dest", "nop",
            ),
            weights=(18, 10, 5, 3, 8, 4, 2, 14, 10, 4, 5, 4, 5, 2, 2, 1),
        )[0]
        handler = getattr(self, f"_gen_{kind}")
        result = handler()
        return result if isinstance(result, list) else [result]

    def _int_src(self) -> str:
        rng = self.rng
        if rng.random() < _ZERO_REG_BIAS:
            return "r31"
        return rng.choice(_INT_WORK + _POINTERS + (_INT_DIVISOR,))

    def _int_pair(self) -> tuple[str, str]:
        a = self._int_src()
        if self.rng.random() < _DUPLICATE_BIAS:
            return a, a
        return a, self._int_src()

    def _fp_src(self) -> str:
        rng = self.rng
        if rng.random() < _ZERO_REG_BIAS:
            return "f31"
        return rng.choice(_FP_WORK + (_FP_DIVISOR,))

    def _offset(self) -> int:
        return 8 * self.rng.randrange(_DATA_WORDS)

    def _gen_alu_rr(self) -> str:
        a, b = self._int_pair()
        return f"    {self.rng.choice(_INT_ALU_RR)}  {self.rng.choice(_INT_WORK)}, {a}, {b}"

    def _gen_alu_ri(self) -> str:
        opcode = self.rng.choice(_INT_ALU_RI)
        imm = self.rng.randint(0, 7) if opcode in ("SLL", "SRL") else self.rng.randint(-16, 16)
        return f"    {opcode}  {self.rng.choice(_INT_WORK)}, {self._int_src()}, #{imm}"

    def _gen_mul(self) -> str:
        a, b = self._int_pair()
        return f"    MUL  {self.rng.choice(_INT_WORK)}, {a}, {b}"

    def _gen_div(self) -> str:
        # Divisor is the reserved non-zero register or a non-zero immediate.
        if self.rng.random() < 0.5:
            return f"    DIV  {self.rng.choice(_INT_WORK)}, {self._int_src()}, {_INT_DIVISOR}"
        return (
            f"    DIV  {self.rng.choice(_INT_WORK)}, {self._int_src()}, "
            f"#{self.rng.choice((2, 3, 5, 7))}"
        )

    def _gen_fp(self) -> str:
        return (
            f"    {self.rng.choice(_FP_ALU)}  {self.rng.choice(_FP_WORK)}, "
            f"{self._fp_src()}, {self._fp_src()}"
        )

    def _gen_mulf(self) -> str:
        return f"    MULF  {self.rng.choice(_FP_WORK)}, {self._fp_src()}, {self._fp_src()}"

    def _gen_divf(self) -> str:
        return f"    DIVF  {self.rng.choice(_FP_WORK)}, {self._fp_src()}, {_FP_DIVISOR}"

    def _gen_load(self) -> str:
        pointer = self.rng.choice(_POINTERS)
        if self.rng.random() < 0.25:
            return f"    LDF  {self.rng.choice(_FP_WORK)}, {self._offset()}({pointer})"
        return f"    LDQ  {self.rng.choice(_INT_WORK)}, {self._offset()}({pointer})"

    def _gen_store(self) -> str:
        pointer = self.rng.choice(_POINTERS)
        if self.rng.random() < 0.25:
            return f"    STF  {self.rng.choice(_FP_WORK)}, {self._offset()}({pointer})"
        return f"    STQ  {self._int_src()}, {self._offset()}({pointer})"

    def _gen_fwd_pair(self) -> list[str]:
        """Store immediately reloaded: exercises store-to-load forwarding."""
        pointer = self.rng.choice(_POINTERS)
        offset = self._offset()
        return [
            f"    STQ  {self._int_src()}, {offset}({pointer})",
            f"    LDQ  {self.rng.choice(_INT_WORK)}, {offset}({pointer})",
        ]

    def _gen_bump(self) -> str:
        """Pointer arithmetic: shifts the aliasing pattern mid-program."""
        pointer = self.rng.choice(_POINTERS)
        return f"    ADD  {pointer}, {pointer}, #{self.rng.choice((-8, 8))}"

    def _gen_mov(self) -> str:
        if self.rng.random() < 0.3:
            return f"    MOVF  {self.rng.choice(_FP_WORK)}, {self._fp_src()}"
        return f"    MOV  {self.rng.choice(_INT_WORK)}, {self._int_src()}"

    def _gen_ldi(self) -> str:
        return f"    LDI  {self.rng.choice(_INT_WORK)}, {self.rng.randint(-1000, 1000)}"

    def _gen_nop2(self) -> str:
        a, b = self._int_pair()
        return f"    NOP2  {a}, {b}"

    def _gen_zero_dest(self) -> str:
        """Operate writing r31: an eliminated architectural nop."""
        a, b = self._int_pair()
        return f"    ADD  r31, {a}, {b}"

    def _gen_nop(self) -> str:
        return "    NOP"

    # ------------------------------------------------------------------
    def _label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}{self._label_counter}"


def generate_source(seed: int) -> str:
    """Generate one random program's assembly source for *seed*."""
    return ProgramGenerator(seed).source()
