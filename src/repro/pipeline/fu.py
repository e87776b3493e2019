"""Functional unit pool with per-cycle issue bandwidth and divider occupancy.

ALUs, multipliers and memory ports are fully pipelined (one issue per unit
per cycle); dividers are not pipelined — a divide occupies its unit for the
whole operation, as in SimpleScalar's resource model.
"""

from __future__ import annotations

from repro.isa.opcodes import OpClass
from repro.pipeline.config import FunctionalUnitPool, Latencies

#: Non-pipelined operation classes (occupy the unit for the full latency).
_NON_PIPELINED = (OpClass.INT_DIV, OpClass.FP_DIV)

#: Pool indices (issue bandwidth is tracked per pool, in flat lists).
_INT_ALU, _FP_ALU, _INT_MULT, _FP_MULT, _MEM = range(5)

#: Map from op class to the pool it shares issue bandwidth with.
_POOL_OF = {
    OpClass.INT_ALU: _INT_ALU,
    OpClass.BRANCH: _INT_ALU,
    OpClass.JUMP: _INT_ALU,
    OpClass.FP_ALU: _FP_ALU,
    OpClass.INT_MULT: _INT_MULT,
    OpClass.INT_DIV: _INT_MULT,
    OpClass.FP_MULT: _FP_MULT,
    OpClass.FP_DIV: _FP_MULT,
    OpClass.LOAD: _MEM,
    OpClass.STORE: _MEM,
}

#: Same map with dense OpClass.idx keys (hot path: no enum hashing).
_POOL_BY_IDX: tuple[int | None, ...] = tuple(
    _POOL_OF.get(op_class) for op_class in OpClass
)

#: OpClass.idx -> True for non-pipelined classes.
_NON_PIPELINED_BY_IDX: tuple[bool, ...] = tuple(
    op_class in _NON_PIPELINED for op_class in OpClass
)

#: Pools a non-pipelined class issues to: only these hold busy units.
_BUSY_POOLS: tuple[int, ...] = tuple(sorted({_POOL_OF[c] for c in _NON_PIPELINED}))


class FunctionalUnits:
    """Tracks per-cycle issue counts and divider busy windows."""

    __slots__ = ("_counts", "_lat", "_issued_this_cycle", "_busy_until")

    def __init__(self, pool: FunctionalUnitPool, latencies: Latencies):
        self._counts = [
            pool.int_alu,
            pool.fp_alu,
            pool.int_mult,
            pool.fp_mult,
            pool.mem_ports,
        ]
        self._lat = latencies
        self._issued_this_cycle = [0] * 5
        #: per pool: cycles at which busy (non-pipelined) units free up
        self._busy_until: list[list[int]] = [[] for _ in range(5)]

    def begin_cycle(self, now: int) -> None:
        """Start issuing at *now*: reset the per-cycle counts and free the
        busy units whose operation has finished.

        Cycles that issue nothing may skip the call: the counts are only
        read by a cycle that issues, and pruning against a later *now*
        frees the same units.
        """
        self._issued_this_cycle = [0] * 5
        busy_until = self._busy_until
        for index in _BUSY_POOLS:
            busy = busy_until[index]
            if busy:
                busy_until[index] = [c for c in busy if c > now]

    # ------------------------------------------------------------------
    def can_issue(self, op_class: OpClass, now: int) -> bool:
        pool = _POOL_BY_IDX[op_class.idx]
        in_use = self._issued_this_cycle[pool] + len(self._busy_until[pool])
        return in_use < self._counts[pool]

    def issue(self, op_class: OpClass, now: int) -> None:
        idx = op_class.idx
        pool = _POOL_BY_IDX[idx]
        self._issued_this_cycle[pool] += 1
        if _NON_PIPELINED_BY_IDX[idx]:
            self._busy_until[pool].append(now + self._lat.for_class(op_class))

    def pool_size(self, op_class: OpClass) -> int:
        return self._counts[_POOL_BY_IDX[op_class.idx]]


def pool_index(op_class: OpClass) -> int:
    """Index of the issue-bandwidth pool *op_class* shares (0..4).

    Exposed for the invariant checkers (:mod:`repro.verify.invariants`),
    which mirror the per-pool issue accounting independently.
    """
    return _POOL_BY_IDX[op_class.idx]


def is_non_pipelined(op_class: OpClass) -> bool:
    """True for classes that occupy their unit for the full latency."""
    return _NON_PIPELINED_BY_IDX[op_class.idx]
