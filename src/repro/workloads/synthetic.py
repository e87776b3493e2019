"""Synthetic SPEC CINT2000 benchmark clones.

A :class:`SyntheticWorkload` builds a *static program* — a well-nested
skeleton of segments walked by one outer loop — and then emits an endless,
deterministic stream of :class:`~repro.workloads.trace.DynOp` records.

Skeleton structure (planned first, then emitted):

* **loop segments** — 1..3 blocks; the last block ends with a backward
  branch to the body start, iterating with per-entry Gaussian trip counts;
  intermediate blocks end with forward if-branches that *stay inside the
  body* (skip to the loop-end block);
* **hot/cold pairs** — a hot block whose if-branch usually skips a cold
  block (the usually-taken forward branch of real code);
* **jump segments** — register-indirect JMPs, mostly to the next segment
  with occasional rotation (BTB pressure).

Because the outer loop passes through *every* segment, dynamic coverage is
broad and the measured distributions are stable across seeds, while loop
trip counts still weight hot code realistically.

Design notes for fidelity to the paper's measurements:

* static dataflow is fixed per PC, so last-arriving-operand behaviour has
  the per-PC stability Table 3 reports;
* the long-lived/recent source pattern of 2-source ops is dealt *jointly*
  (a per-operand dither would anti-correlate the sources and wipe out the
  2-pending population of Figures 4/6);
* per-instruction composition decisions use error-diffusion dealers so
  loop-weighted execution preserves the target mix;
* strided memory ops walk small hot regions and wrap (temporal locality);
  random ops address the profile's working set; pointer-chase loads form
  load-to-load address chains (the mcf pattern).
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import zlib
from collections import OrderedDict
from typing import Iterable, Iterator

from repro.isa.opcodes import OPCODE_BY_NAME, OpClass
from repro.isa.registers import FP_REG_BASE, R31
from repro.workloads.profiles import BenchmarkProfile, get_profile
from repro.workloads.trace import DynOp

# Register pools (architectural), disjoint by role:
#   r1..r19  : integer ALU/load results
#   r20..r23 : pointer-chase chain registers
#   r24..r27 : memory base registers / long-lived values (live-in)
#   f1..f19  : FP results;  f20..f23 : long-lived FP values
_INT_POOL = tuple(range(1, 20))
_CHASE_POOL = tuple(range(20, 24))
_BASE_POOL = tuple(range(24, 28))
_FP_POOL = tuple(range(FP_REG_BASE + 1, FP_REG_BASE + 20))
_FP_LONG_POOL = tuple(range(FP_REG_BASE + 20, FP_REG_BASE + 24))

#: Base byte address of the synthetic data working set.
_DATA_BASE = 0x1000_0000

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class _Dither:
    """Error-diffusion Bernoulli: True at exactly rate *p* in the long run,
    with occurrences spread evenly through the static program."""

    __slots__ = ("p", "acc")

    def __init__(self, p: float):
        self.p = p
        self.acc = 0.5

    def step(self) -> bool:
        self.acc += self.p
        if self.acc >= 1.0:
            self.acc -= 1.0
            return True
        return False


class _KindDealer:
    """Deficit-round-robin dealer over categories with fixed weights."""

    __slots__ = ("kinds", "weights", "acc")

    def __init__(self, kinds: tuple[str, ...], weights: tuple[float, ...]):
        total = sum(weights)
        self.kinds = kinds
        self.weights = tuple(w / total for w in weights)
        self.acc = [0.0] * len(kinds)

    def deal(self) -> str:
        best = 0
        for index, weight in enumerate(self.weights):
            self.acc[index] += weight
            if self.acc[index] > self.acc[best]:
                best = index
        self.acc[best] -= 1.0
        return self.kinds[best]


class _StaticOp:
    """One static pseudo-instruction of the synthetic program."""

    __slots__ = (
        "pc",
        "opcode",
        "op_class",
        "dest",
        "srcs",
        "sched_deps",
        "store_data_reg",
        "is_two_source_format",
        "is_eliminated_nop",
        "static_target",
        "mem_mode",
        "mem_offset",
        "mem_stride",
        "mem_region",
        "branch_kind",
        "branch_bias",
        "trip_mean",
        "jump_targets",
        "jump_primary_weight",
    )

    def __init__(self, pc: int, opcode: str, op_class: OpClass):
        self.pc = pc
        self.opcode = opcode
        self.op_class = op_class
        self.dest = None
        self.srcs = ()
        self.sched_deps = ()
        self.store_data_reg = None
        self.is_two_source_format = False
        self.is_eliminated_nop = False
        self.static_target = None
        self.mem_mode = None
        self.mem_offset = 0
        self.mem_stride = 8
        self.mem_region = 64
        self.branch_kind = None
        self.branch_bias = 0.5
        self.trip_mean = 0.0
        self.jump_targets = ()
        self.jump_primary_weight = 0.8


class SyntheticWorkload:
    """Deterministic synthetic benchmark built from a profile.

    Iterating yields an endless DynOp stream; bound it with the simulator's
    instruction budget or :func:`~repro.workloads.feed.collect_stream`.
    """

    def __init__(self, profile: BenchmarkProfile, seed: int = 12345):
        self.profile = profile
        self.seed = seed
        self.name = profile.name
        self._ops: list[_StaticOp] = []
        # zlib.crc32 (not hash()) so streams are identical across processes.
        name_salt = zlib.crc32(profile.name.encode())
        self._init_dealers()
        self._build(random.Random((seed * 1_000_003) ^ name_salt))
        spacing = max(4, profile.code_footprint_bytes // max(1, len(self._ops)))
        self._pc_spacing = spacing & ~3 or 4

    # ==================================================================
    # Construction.
    # ==================================================================
    def _init_dealers(self) -> None:
        profile = self.profile
        q = profile.frac_long_lived_src
        self._dithers = {
            "two_src": _Dither(profile.frac_alu_two_src_format),
            "demoted": _Dither(profile.frac_demoted),
            "fp": _Dither(profile.frac_fp),
            "chase": _Dither(profile.frac_pointer_chase),
            "random_mem": _Dither(profile.frac_random_access),
            "load_src": _Dither(profile.load_src_bias),
            "noisy_branch": _Dither(profile.frac_noisy_branches),
        }
        # Operand patterns of 2-source ops are dealt jointly: a per-operand
        # dither would anti-correlate the sources and erase the 2-pending
        # population the paper measures in Figures 4 and 6.
        self._pair_dealer = _KindDealer(
            ("both", "left", "right", "none"),
            (q * q, q * (1 - q), (1 - q) * q, (1 - q) * (1 - q)),
        )
        self._single_dealer = _KindDealer(("long", "recent"), (q, 1 - q))
        self._recent_loads: list[int] = []

    def _build(self, rng: random.Random) -> None:
        profile = self.profile
        ctl_frac = profile.frac_branch + profile.frac_jump
        self._body_per_block = max(1, round((1.0 - ctl_frac) / max(ctl_frac, 1e-6)))
        load_w = profile.frac_load
        store_w = profile.frac_store
        nop_w = profile.frac_nop2
        alu_w = max(1e-9, 1.0 - ctl_frac - load_w - store_w - nop_w)
        self._kind_dealer = _KindDealer(
            ("load", "store", "nop2", "alu"), (load_w, store_w, nop_w, alu_w)
        )
        self._recent_int: list[int] = list(_BASE_POOL)
        self._recent_fp: list[int] = list(_FP_LONG_POOL)

        plan = self._plan_segments(rng)
        block_starts: dict[int, int] = {}
        terminators: list[tuple[_StaticOp, str, int, int]] = []
        block_id = 0
        for segment in plan:
            for position in range(segment["blocks"]):
                block_starts[block_id] = len(self._ops)
                self._emit_block_body(rng)
                terminator, kind = self._emit_terminator(rng, segment, position)
                terminators.append((terminator, kind, block_id, segment["blocks"] - 1 - position))
                block_id += 1
        self._finalize_targets(rng, block_starts, terminators, block_id)

    def _plan_segments(self, rng: random.Random) -> list[dict]:
        """Lay out the segment skeleton (loops, hot/cold pairs, jumps)."""
        profile = self.profile
        plan: list[dict] = []
        blocks_left = profile.num_blocks
        jump_share = profile.frac_jump / max(
            profile.frac_branch + profile.frac_jump, 1e-9
        )
        while blocks_left > 0:
            roll = rng.random()
            if roll < profile.frac_loop_branches and blocks_left >= 1:
                body = min(blocks_left, rng.randint(1, 3))
                plan.append({"kind": "loop", "blocks": body})
                blocks_left -= body
            elif jump_share and roll < profile.frac_loop_branches + jump_share:
                plan.append({"kind": "jump", "blocks": 1})
                blocks_left -= 1
            elif blocks_left >= 2:
                plan.append({"kind": "pair", "blocks": 2})
                blocks_left -= 2
            else:
                plan.append({"kind": "jump" if jump_share else "pair", "blocks": 1})
                blocks_left -= 1
        return plan

    # ------------------------------------------------------------------
    # Block bodies.
    # ------------------------------------------------------------------
    def _emit_block_body(self, rng: random.Random) -> None:
        size = max(1, round(rng.gauss(self._body_per_block, self._body_per_block * 0.3)))
        for _ in range(size):
            kind = self._kind_dealer.deal()
            if kind == "load":
                self._emit_load(rng)
            elif kind == "store":
                self._emit_store(rng)
            elif kind == "nop2":
                self._emit_nop2(rng)
            else:
                self._emit_alu(rng)

    def _note_dest(self, op: _StaticOp) -> None:
        if op.dest is None or op.dest in _CHASE_POOL:
            return
        recent = self._recent_fp if op.dest >= FP_REG_BASE else self._recent_int
        recent.append(op.dest)
        if len(recent) > 64:
            del recent[:32]

    def _draw_distance(self, rng: random.Random) -> int:
        distance = 1
        while rng.random() > self.profile.dep_distance_p and distance < 24:
            distance += 1
        return distance

    def _pick_long(self, recent: list[int]) -> int:
        # Rotate through the long-lived pool so different static ops bind
        # to different (but fixed) live-in registers.
        if recent is self._recent_fp:
            return _FP_LONG_POOL[len(self._ops) % len(_FP_LONG_POOL)]
        return _BASE_POOL[len(self._ops) % len(_BASE_POOL)]

    def _pick_recent(self, rng: random.Random, recent: list[int]) -> int:
        return recent[-min(self._draw_distance(rng), len(recent))]

    def _pick_src(self, rng: random.Random, recent: list[int]) -> int:
        if self._single_dealer.deal() == "long":
            return self._pick_long(recent)
        return self._pick_recent(rng, recent)

    # ------------------------------------------------------------------
    def _emit_load(self, rng: random.Random) -> None:
        op = _StaticOp(len(self._ops), "LDQ", OpClass.LOAD)
        if self._dithers["chase"].step():
            base = _CHASE_POOL[rng.randrange(len(_CHASE_POOL))]
            # Chain: this load's result is the next chase load's base.
            op.dest = _CHASE_POOL[(_CHASE_POOL.index(base) + 1) % len(_CHASE_POOL)]
            op.srcs = (base,)
            op.sched_deps = (base,)
            op.mem_mode = "chase"
        else:
            base = rng.choice(_BASE_POOL)
            op.dest = _INT_POOL[rng.randrange(len(_INT_POOL))]
            op.srcs = (base,)
            op.sched_deps = (base,)
            self._assign_mem_behaviour(op, rng)
            self._recent_loads.append(op.dest)
            if len(self._recent_loads) > 8:
                del self._recent_loads[0]
        self._ops.append(op)
        self._note_dest(op)

    def _emit_store(self, rng: random.Random) -> None:
        op = _StaticOp(len(self._ops), "STQ", OpClass.STORE)
        data = self._pick_src(rng, self._recent_int)
        base = rng.choice(_BASE_POOL)
        op.srcs = (data, base)
        op.sched_deps = (base,)
        op.store_data_reg = data
        op.is_two_source_format = True
        self._assign_mem_behaviour(op, rng)
        self._ops.append(op)

    def _emit_nop2(self, rng: random.Random) -> None:
        op = _StaticOp(len(self._ops), "NOP2", OpClass.NOP)
        op.srcs = (rng.choice(_INT_POOL), rng.choice(_INT_POOL))
        op.is_two_source_format = True
        op.is_eliminated_nop = True
        op.dest = R31
        self._ops.append(op)

    def _assign_mem_behaviour(self, op: _StaticOp, rng: random.Random) -> None:
        if self._dithers["random_mem"].step():
            op.mem_mode = "random"
        else:
            # Strided ops walk a small hot region and wrap: miss on the
            # first pass, hit afterwards (temporal locality of real code).
            op.mem_mode = "stride"
            op.mem_stride = self.profile.stride_bytes
            op.mem_region = 1 << rng.randint(3, 5)  # 8..32 elements
        op.mem_offset = rng.randrange(0, max(8, self.profile.working_set_bytes), 8)

    # ------------------------------------------------------------------
    def _emit_alu(self, rng: random.Random) -> None:
        profile = self.profile
        is_fp = self._dithers["fp"].step()
        if is_fp:
            pool, recent = _FP_POOL, self._recent_fp
            two_src_names = ("ADDF", "SUBF", "MULF")
            one_src_name = "MOVF"
        else:
            pool, recent = _INT_POOL, self._recent_int
            roll = rng.random()
            if roll < profile.frac_div:
                two_src_names = ("DIV",)
            elif roll < profile.frac_div + profile.frac_mul:
                two_src_names = ("MUL",)
            else:
                two_src_names = ("ADD", "SUB", "AND", "OR", "XOR")
            one_src_name = "ADD"
        dest = pool[rng.randrange(len(pool))]
        if self._dithers["two_src"].step():
            name = rng.choice(two_src_names)
            op = _StaticOp(len(self._ops), name, OPCODE_BY_NAME[name].op_class)
            op.is_two_source_format = True
            op.dest = dest
            if self._dithers["demoted"].step():
                src = self._pick_src(rng, recent)
                if rng.random() < 0.5:
                    op.srcs = (src, src)  # duplicate operand
                else:
                    zero = R31 if pool is _INT_POOL else FP_REG_BASE + 31
                    op.srcs = (src, zero) if rng.random() < 0.5 else (zero, src)
                op.sched_deps = (src,)
            else:
                src_a, src_b = self._two_sources(rng, recent)
                op.srcs = (src_a, src_b)
                op.sched_deps = (src_a,) if src_a == src_b else (src_a, src_b)
        else:
            op = _StaticOp(len(self._ops), one_src_name, OPCODE_BY_NAME[one_src_name].op_class)
            op.dest = dest
            if not is_fp and rng.random() < 0.12:
                op.opcode = "LDI"  # zero-source immediate
            else:
                src = self._pick_src(rng, recent)
                op.srcs = (src,)
                op.sched_deps = (src,)
        self._ops.append(op)
        self._note_dest(op)

    def _two_sources(self, rng: random.Random, recent: list[int]) -> tuple[int, int]:
        """Draw both sources of a 2-source op (see module docstring)."""
        pattern = self._pair_dealer.deal()
        is_int_pool = recent is self._recent_int

        def draw(long_lived: bool) -> int:
            if long_lived:
                return self._pick_long(recent)
            if is_int_pool and self._recent_loads and self._dithers["load_src"].step():
                depth = rng.randrange(min(4, len(self._recent_loads)))
                return self._recent_loads[-1 - depth]
            return self._pick_recent(rng, recent)

        a_long = pattern in ("both", "left")
        b_long = pattern in ("both", "right")
        src_a = draw(a_long)
        src_b = draw(b_long)
        for _ in range(4):
            if src_b != src_a:
                break
            src_b = draw(b_long)
        # The recent (or more recently produced) source is likelier to
        # arrive last; steer it left with the Table 3 bias knob.
        rank_a = -1 if a_long else _last_index(recent, src_a)
        rank_b = -1 if b_long else _last_index(recent, src_b)
        later, earlier = (src_a, src_b) if rank_a >= rank_b else (src_b, src_a)
        if rng.random() < self.profile.left_long_dep_bias:
            return later, earlier
        return earlier, later

    # ------------------------------------------------------------------
    # Terminators and target resolution.
    # ------------------------------------------------------------------
    def _emit_terminator(
        self, rng: random.Random, segment: dict, position: int
    ) -> tuple[_StaticOp, str]:
        """Emit a block terminator; its target is resolved later."""
        profile = self.profile
        pc = len(self._ops)
        last_in_segment = position == segment["blocks"] - 1
        if segment["kind"] == "jump" and last_in_segment:
            op = _StaticOp(pc, "JMP", OpClass.JUMP)
            base = rng.choice(_BASE_POOL)
            op.srcs = (base,)
            op.sched_deps = (base,)
            op.branch_kind = "jump"
            self._ops.append(op)
            return op, "jump"
        name = rng.choice(("BEQ", "BNE", "BLT", "BGE"))
        op = _StaticOp(pc, name, OpClass.BRANCH)
        src = rng.choice(_INT_POOL)
        op.srcs = (src,)
        op.sched_deps = (src,)
        if segment["kind"] == "loop" and last_in_segment:
            op.branch_kind = "loop"
            op.trip_mean = max(
                3.0, rng.gauss(profile.loop_trip_mean, profile.loop_trip_mean * 0.3)
            )
            self._ops.append(op)
            return op, "loop"
        op.branch_kind = "if"
        if self._dithers["noisy_branch"].step():
            op.branch_bias = rng.uniform(0.55, 0.75)
        else:
            op.branch_bias = min(0.98, profile.branch_bias + rng.uniform(0.0, 0.08))
        self._ops.append(op)
        kind = "if_in_loop" if segment["kind"] == "loop" else "if_pair"
        return op, kind

    def _finalize_targets(self, rng, block_starts, terminators, num_blocks) -> None:
        """Resolve every terminator's target against the planned skeleton."""
        for op, kind, block_id, blocks_to_segment_end in terminators:
            next_block = (block_id + 1) % num_blocks
            if kind == "loop":
                # Back to the body start: the loop's body spans this block
                # and the preceding same-segment 'if_in_loop' blocks.
                body_start = block_id - self._loop_body_len(terminators, block_id) + 1
                op.static_target = block_starts[max(0, body_start)]
            elif kind == "if_in_loop":
                # Skip forward to the loop-end block, staying in the body.
                target_block = min(block_id + blocks_to_segment_end, num_blocks - 1)
                op.static_target = block_starts[target_block]
            elif kind == "if_pair":
                if blocks_to_segment_end >= 1:
                    # Hot block: taken skips the cold sibling.
                    op.static_target = block_starts[(block_id + 2) % num_blocks]
                else:
                    # Cold block (or segment tail): continue to next block.
                    op.static_target = block_starts[next_block]
            elif kind == "jump":
                extra = rng.sample(range(num_blocks), min(3, num_blocks))
                targets = [block_starts[next_block]] + [
                    block_starts[b] for b in extra if b != next_block
                ][:2]
                op.jump_targets = tuple(targets)

    @staticmethod
    def _loop_body_len(terminators, block_id) -> int:
        """Number of body blocks of the loop ending at *block_id*."""
        length = 1
        index = block_id - 1
        # Walk backwards over same-segment 'if_in_loop' terminators.
        for term, kind, bid, _ in reversed(terminators):
            if bid != index:
                continue
            if kind == "if_in_loop":
                length += 1
                index -= 1
            else:
                break
        return length

    # ==================================================================
    # Public interface.
    # ==================================================================
    def pc_address(self, pc: int) -> int:
        """Byte address of static instruction *pc* (I-cache modelling)."""
        return pc * self._pc_spacing

    def __iter__(self) -> Iterator[DynOp]:
        return self.stream()

    def stream(self) -> Iterator[DynOp]:
        """Yield an endless, deterministic DynOp stream."""
        rng = random.Random(self.seed ^ 0x5EED)
        ops = self._ops
        num_ops = len(ops)
        seq = 0
        pc = 0
        loop_counts: dict[int, int] = {}
        access_counts: dict[int, int] = {}
        lcg_state: dict[int, int] = {}
        jump_rr: dict[int, int] = {}
        ws = max(8, self.profile.working_set_bytes)
        while True:
            op = ops[pc]
            mem_addr = None
            taken = False
            next_pc = pc + 1 if pc + 1 < num_ops else 0
            if op.mem_mode is not None:
                mem_addr = self._mem_address(op, access_counts, lcg_state, ws)
            if op.branch_kind is not None:
                taken, next_pc = self._control_outcome(
                    op, pc, rng, loop_counts, jump_rr, num_ops
                )
            # Positional arguments, in DynOp's parameter order: keywords
            # cost about twice as much per op.
            yield DynOp(
                seq, pc, op.opcode, op.op_class,
                op.dest if op.dest != R31 else None,
                op.srcs, op.sched_deps, op.store_data_reg, mem_addr, taken,
                next_pc, op.static_target, op.is_two_source_format,
                op.is_eliminated_nop,
            )
            seq += 1
            pc = next_pc

    # ------------------------------------------------------------------
    def _mem_address(self, op, access_counts, lcg_state, ws) -> int:
        if op.mem_mode == "stride":
            count = access_counts.get(op.pc, 0)
            access_counts[op.pc] = count + 1
            offset = (count % op.mem_region) * op.mem_stride
            return _DATA_BASE + (op.mem_offset + offset) % ws
        # random and chase address randomly within the working set, via a
        # per-static-op LCG so the sequence is deterministic.
        state = lcg_state.get(op.pc, (op.pc * 2654435761) & _MASK64)
        state = (state * _LCG_MULT + _LCG_INC) & _MASK64
        lcg_state[op.pc] = state
        return (_DATA_BASE + (state >> 16) % ws) & ~7

    def _control_outcome(self, op, pc, rng, loop_counts, jump_rr, num_ops):
        fallthrough = pc + 1 if pc + 1 < num_ops else 0
        if op.branch_kind == "jump":
            index = jump_rr.get(pc, 0)
            if rng.random() < op.jump_primary_weight or len(op.jump_targets) == 1:
                target = op.jump_targets[0]
            else:
                index = (index + 1) % len(op.jump_targets)
                jump_rr[pc] = index
                target = op.jump_targets[index]
            return True, target
        if op.branch_kind == "loop":
            remaining = loop_counts.get(pc)
            if remaining is None:
                # Gaussian trips: few degenerate 1-trip loops, so the exit
                # mispredict rate is about 1/trip_mean per loop execution.
                remaining = max(2, round(rng.gauss(op.trip_mean, op.trip_mean * 0.3)))
            if remaining > 0:
                loop_counts[pc] = remaining - 1
                return True, op.static_target
            loop_counts.pop(pc, None)
            return False, fallthrough
        # if-branch
        if op.static_target is None or op.static_target == fallthrough:
            return False, fallthrough
        if rng.random() < op.branch_bias:
            return True, op.static_target
        return False, fallthrough


def _last_index(recent: list[int], reg: int) -> int:
    for index in range(len(recent) - 1, -1, -1):
        if recent[index] == reg:
            return index
    return -1


# ======================================================================
# Per-process memo of built programs and their replayed op prefixes.
# ======================================================================
#: Ops a :class:`SharedFeed` keeps; a run that pulls more goes on with a
#: fresh ``stream()``, so a long run holds no more memory than before.
SHARED_OPS = 4096
#: Programs the memo holds.  The figure sweeps submit every config of a
#: (benchmark, seed) pair back to back, so a few entries catch them all;
#: a process that never repeats a pair would only hold more memory.
SHARED_PROGRAMS = 4
#: Ops a reader past the kept ones generates per lock acquisition.  A
#: run reads a little past its commit budget, so a small block wastes
#: little generation on ops no run reads.
_GROW_OPS = 32


class SharedFeed:
    """A built :class:`SyntheticWorkload` plus the ops its stream produced.

    Iterating replays the kept ops and extends them, under a lock, from
    one live ``stream()`` generator, so any number of runs (and threads)
    pay for each op's generation once.  Past :data:`SHARED_OPS` an
    iterator goes on with that many ops skipped off a fresh ``stream()``.
    Every run receives the same :class:`DynOp` instances, which nothing
    mutates (see its docstring).  ``name`` and ``pc_address`` are the
    workload's, so both backends consume this like any feed.

    The workload never refers back to this object or to its generator, so
    an evicted feed is freed by reference counting alone.
    """

    __slots__ = ("workload", "name", "pc_address", "_ops", "_live", "_lock")

    def __init__(self, workload: SyntheticWorkload):
        self.workload = workload
        self.name = workload.name
        self.pc_address = workload.pc_address
        self._ops: list[DynOp] = []
        self._live = workload.stream()
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[DynOp]:
        # Ops pass through C iterators; Python runs once per block.
        return itertools.chain.from_iterable(self._blocks())

    def _blocks(self) -> Iterator[Iterable[DynOp]]:
        """Slices of the kept ops, grown :data:`_GROW_OPS` at a time under
        one lock acquisition, then the rest of a fresh stream."""
        ops = self._ops
        done = 0
        while done < SHARED_OPS:
            if done == len(ops):
                with self._lock:
                    if done == len(ops):
                        grow = min(_GROW_OPS, SHARED_OPS - done)
                        ops.extend(itertools.islice(self._live, grow))
            end = len(ops)
            yield ops[done:end]
            done = end
        yield itertools.islice(self.workload.stream(), SHARED_OPS, None)


_shared: OrderedDict[tuple[str, int], SharedFeed] = OrderedDict()
_shared_lock = threading.Lock()


def shared_workload(name: str, seed: int) -> SharedFeed:
    """The process's :class:`SharedFeed` of profile *name* at *seed*.

    A least-recently-used memo of :data:`SHARED_PROGRAMS` entries: the
    program is built on the first call for a pair and reused until
    evicted.
    """
    key = (name, seed)
    with _shared_lock:
        feed = _shared.get(key)
        if feed is None:
            feed = _shared[key] = SharedFeed(SyntheticWorkload(get_profile(name), seed=seed))
            if len(_shared) > SHARED_PROGRAMS:
                _shared.popitem(last=False)
        else:
            _shared.move_to_end(key)
        return feed


def clear_shared_workloads() -> None:
    """Empty the memo (the next call for each pair builds it anew)."""
    with _shared_lock:
        _shared.clear()


def _forget_after_fork() -> None:
    # A lock that another parent thread held at fork time stays held in
    # the child forever: start the child with a new memo and new locks.
    global _shared, _shared_lock
    _shared = OrderedDict()
    _shared_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_after_fork)
