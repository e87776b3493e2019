"""Stream adapters: turn instruction sources into DynOp streams.

A *stream* is any iterator of :class:`~repro.workloads.trace.DynOp` in
program (commit) order.  The timing simulator pulls from it at fetch time;
branch mispredictions are modelled as fetch-redirect bubbles, so the stream
only ever contains correct-path instructions (see DESIGN.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.isa.assembler import Program
from repro.isa.emulator import Emulator
from repro.workloads.trace import DynOp, dynop_from_instruction


class EmulatorFeed:
    """Execution-driven stream: functional emulation of a real program.

    Iterating yields one :class:`DynOp` per architecturally executed
    instruction, until the program halts.  The ``HALT`` instruction itself is
    not yielded (it is an emulator artifact, not a pipeline instruction).
    """

    def __init__(self, program: Program, entry: int = 0, name: str = "program"):
        self.program = program
        self.entry = entry
        self.name = name

    def __iter__(self) -> Iterator[DynOp]:
        emulator = Emulator(self.program, entry=self.entry)
        seq = 0
        while not emulator.halted:
            record = emulator.step()
            inst = record.instruction
            if inst.is_halt:
                return
            # Architectural values, read back right after the step: they
            # feed the lockstep differential checker (repro.verify) and are
            # invisible to the timing model.
            dest_value = (
                emulator.read_reg(inst.dest) if inst.writes_register else None
            )
            store_value = (
                emulator.read_mem(record.mem_addr) if inst.is_store else None
            )
            yield dynop_from_instruction(
                seq=seq,
                pc=record.pc,
                inst=inst,
                mem_addr=record.mem_addr,
                taken=record.taken,
                next_pc=record.next_pc,
                dest_value=dest_value,
                store_value=store_value,
            )
            seq += 1


def collect_stream(stream: Iterable[DynOp], limit: int) -> list[DynOp]:
    """Materialize up to *limit* ops from *stream*."""
    return list(itertools.islice(iter(stream), limit))


class ReplayFeed:
    """Reusable pre-materialized stream.

    Wraps a list of :class:`DynOp` in program order.  Iterating replays the
    list, so every backend consumes it exactly like a generator feed (the
    native backend encodes only the ops its run fetches); materializing
    once makes this the "build once, simulate many" feed for benchmarks,
    sweeps and sampled windows.

    ``pc_address`` must be forwarded from the source feed when that feed
    defines one (the instruction-cache access pattern depends on it).
    """

    def __init__(self, ops: Iterable[DynOp], name: str = "replay", pc_address=None):
        self.ops = list(ops)
        self.name = name
        if pc_address is not None:
            self.pc_address = pc_address

    @classmethod
    def from_stream(
        cls, stream: Iterable[DynOp], limit: int | None = None
    ) -> "ReplayFeed":
        ops = (
            list(iter(stream))
            if limit is None
            else collect_stream(stream, limit)
        )
        return cls(
            ops,
            name=getattr(stream, "name", "replay"),
            pc_address=getattr(stream, "pc_address", None),
        )

    def __iter__(self) -> Iterator[DynOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class StreamStats:
    """Machine-independent stream characterization (Figures 2 and 3).

    Categories follow the paper exactly:

    * ``stores`` are counted separately (they are 2-source-format but are
      handled as address generation + data move);
    * ``nop2`` are 2-source-format nops the decoder eliminates;
    * of the remaining 2-source-format instructions, ``two_source`` have two
      unique non-zero register sources, the rest collapse to fewer.
    """

    total: int = 0
    stores: int = 0
    eliminated_nops: int = 0
    two_source_format: int = 0      # non-store, non-nop 2-source-format
    two_source: int = 0             # ...of which 2 unique non-zero sources
    one_effective_source: int = 0   # ...zero-reg or duplicate demotions
    other: int = 0                  # 0/1-source formats

    @classmethod
    def from_stream(cls, stream: Iterable[DynOp], limit: int | None = None) -> "StreamStats":
        stats = cls()
        iterator = iter(stream) if limit is None else itertools.islice(iter(stream), limit)
        for op in iterator:
            stats.add(op)
        return stats

    def add(self, op: DynOp) -> None:
        self.total += 1
        if op.is_store:
            self.stores += 1
            return
        if op.is_eliminated_nop:
            if op.is_two_source_format:
                self.eliminated_nops += 1
            else:
                self.other += 1
            return
        if op.is_two_source_format:
            self.two_source_format += 1
            if op.is_two_source:
                self.two_source += 1
            else:
                self.one_effective_source += 1
        else:
            self.other += 1

    # ------------------------------------------------------------------
    def _frac(self, count: int) -> float:
        return count / self.total if self.total else 0.0

    @property
    def frac_two_source_format(self) -> float:
        """Figure 2: non-store 2-source-format fraction (nops included)."""
        return self._frac(self.two_source_format + self.eliminated_nops)

    @property
    def frac_stores(self) -> float:
        return self._frac(self.stores)

    @property
    def frac_two_source(self) -> float:
        """Figure 3 bottom bars: fraction with 2 unique non-zero sources."""
        return self._frac(self.two_source)

    @property
    def frac_eliminated_nops(self) -> float:
        return self._frac(self.eliminated_nops)
