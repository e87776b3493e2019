"""Reorder buffer: in-order dispatch and commit bookkeeping.

The RUU of the paper's SimpleScalar substrate combines the reorder buffer
and scheduler window; here the :class:`ReorderBuffer` handles program-order
retirement while the scheduler tracks the same entries for wakeup/select.
"""

from __future__ import annotations

from collections import deque

from repro.core.iq import COMPLETED, IQEntry


class ReorderBuffer:
    """Fixed-capacity FIFO of in-flight instructions.

    No ``__slots__`` here on purpose: tests monkeypatch instance methods
    (e.g. ``committable``) to simulate pathological machines.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: deque[IQEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, entry: IQEntry) -> None:
        if len(self._entries) >= self.capacity:
            raise OverflowError("ROB overflow: dispatch must check capacity")
        self._entries.append(entry)

    def head(self) -> IQEntry | None:
        return self._entries[0] if self._entries else None

    def commit_head(self) -> IQEntry:
        return self._entries.popleft()

    def committable(self) -> bool:
        """True if the head instruction has completed execution."""
        entries = self._entries
        return bool(entries) and entries[0].state is COMPLETED

    def __iter__(self):
        return iter(self._entries)
