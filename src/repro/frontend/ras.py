"""Return address stack (Table 1: 16 entries).

A fixed-depth circular stack: pushing past the top overwrites the oldest
entry, and popping an empty stack returns None (forcing a target
misprediction on the corresponding return).
"""

from __future__ import annotations


class ReturnAddressStack:
    """Fixed-depth circular return address stack."""

    def __init__(self, depth: int = 16):
        self.depth = depth
        self._stack: list[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self.depth:
            # Circular overwrite: the deepest (oldest) entry is lost.
            self._stack.pop(0)
        self._stack.append(return_pc)

    def pop(self) -> int | None:
        if not self._stack:
            return None
        return self._stack.pop()

    def clear(self) -> None:
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._stack)
