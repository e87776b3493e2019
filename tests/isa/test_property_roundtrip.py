"""Property-based round-trip tests over randomly generated programs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble
from repro.isa.emulator import Emulator
from tests.util import labelled_source

_REGS = st.integers(0, 30).map(lambda n: f"r{n}")
_FREGS = st.integers(0, 30).map(lambda n: f"f{n}")
_IMM = st.integers(-1000, 1000)


@st.composite
def operate_line(draw):
    name = draw(st.sampled_from(["ADD", "SUB", "AND", "OR", "XOR", "MUL", "CMPEQ"]))
    rd, ra = draw(_REGS), draw(_REGS)
    if draw(st.booleans()):
        return f"{name} {rd}, {ra}, {draw(_REGS)}"
    return f"{name} {rd}, {ra}, #{draw(_IMM)}"


@st.composite
def memory_line(draw):
    if draw(st.booleans()):
        return f"LDQ {draw(_REGS)}, {draw(st.integers(0, 512)) * 8}({draw(_REGS)})"
    return f"STQ {draw(_REGS)}, {draw(st.integers(0, 512)) * 8}({draw(_REGS)})"


@st.composite
def misc_line(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return f"LDI {draw(_REGS)}, {draw(_IMM)}"
    if kind == 1:
        return f"MOV {draw(_REGS)}, {draw(_REGS)}"
    if kind == 2:
        return f"NOP2 {draw(_REGS)}, {draw(_REGS)}"
    return f"ADDF {draw(_FREGS)}, {draw(_FREGS)}, {draw(_FREGS)}"


@st.composite
def straightline_program(draw):
    lines = draw(
        st.lists(st.one_of(operate_line(), memory_line(), misc_line()),
                 min_size=1, max_size=25)
    )
    return "\n".join(lines) + "\nHALT"


class TestAssemblerProperties:
    @settings(max_examples=60, deadline=None)
    @given(straightline_program())
    def test_disassembly_reassembles_identically(self, source):
        program = assemble(source)
        text = labelled_source(program)
        again = assemble(text)
        assert again.instructions == program.instructions

    @settings(max_examples=40, deadline=None)
    @given(straightline_program())
    def test_straightline_programs_execute(self, source):
        """Any straight-line program (no div) halts without error."""
        emulator = Emulator(assemble(source))
        emulator.run(max_steps=1000)
        assert emulator.halted

    @settings(max_examples=40, deadline=None)
    @given(straightline_program())
    def test_source_count_matches(self, source):
        program = assemble(source)
        # +1 for HALT.
        assert len(program) == source.count("\n") + 1
