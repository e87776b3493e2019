"""Figure 5: dependence-matrix propagation for selective recovery.

The paper explains why tag elimination cannot compose with selective
recovery by showing how selective recovery actually tracks dependences: the
wakeup bus carries, along with each tag, a *matrix* marking the pipeline
position (stage row × issue slot column) of every in-flight ancestor.  A
child merges the matrices of both parents and adds its own position; bits
shift down one row per cycle and phase out when the ancestor reaches its
functional unit.  A mis-scheduling kill names one (row, column) bit; every
source operand whose matrix contains the bit is invalidated.

Here the matrix is represented sparsely as a set of ancestor identities
``(issue_cycle, slot)``: a bit's row is implied by its age (``now -
issue_cycle``), and it phases out once the age exceeds the pipeline depth —
bit-for-bit the behaviour of the shifting matrix, without simulating the
shift.  The processor uses this as its selective-recovery mechanism when
``MachineConfig.use_dependence_matrix`` is set; tests verify it squashes
exactly the same instructions as the scoreboard-cascade implementation.

The paper's incompatibility argument is directly visible in code: an
operand whose comparator was *eliminated* (tag elimination) never receives
a broadcast, so it never merges its parent's matrix — `merged_from_bus` is
the only way dependence information arrives.
"""

from __future__ import annotations

from typing import Iterable


class DependenceMatrix:
    """Sparse ancestor matrix attached to one source operand or entry.

    Attributes:
        depth: pipeline stages between issue and execute (rows); bits older
            than this have phased out.
    """

    __slots__ = ("depth", "_bits")

    def __init__(self, depth: int, bits: Iterable[tuple[int, int]] = ()):
        self.depth = depth
        self._bits: set[tuple[int, int]] = set(bits)

    # ------------------------------------------------------------------
    def add_ancestor(self, issue_cycle: int, slot: int) -> None:
        """Mark an issued ancestor at (cycle, slot)."""
        self._bits.add((issue_cycle, slot))

    def merge(self, other: "DependenceMatrix") -> None:
        """Union another matrix into this one (two-parent merge)."""
        self._bits |= other._bits

    def prune(self, now: int) -> None:
        """Phase out bits whose ancestors have reached their FU."""
        self._bits = {
            bit for bit in self._bits if now - bit[0] <= self.depth
        }

    # ------------------------------------------------------------------
    def matches(self, kill_cycle: int, kill_slot: int) -> bool:
        """Does the kill-bus bit (issue cycle, slot) hit this matrix?"""
        return (kill_cycle, kill_slot) in self._bits

    def clear(self) -> None:
        self._bits.clear()

    def __len__(self) -> int:
        return len(self._bits)

    def __contains__(self, bit: tuple[int, int]) -> bool:
        return bit in self._bits

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"DependenceMatrix(depth={self.depth}, bits={sorted(self._bits)})"
