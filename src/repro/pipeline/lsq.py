"""Load/store queue with oracle disambiguation and store-to-load forwarding.

Memory addresses are known from the instruction feed, so disambiguation is
oracle-precise: a load conflicts only with genuinely same-address older
stores.  A load whose address matches an older, uncommitted store forwards
from the store queue (DL1-hit latency, no cache access) once that store's
address generation has issued.
"""

from __future__ import annotations

from collections import deque

from repro.core.iq import COMPLETED, ISSUED, IQEntry

#: Memory words are 8 bytes; forwarding matches on the aligned word.
_WORD_MASK = ~7


class LoadStoreQueue:
    """Fixed-capacity queue of in-flight memory instructions."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: deque[IQEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def insert(self, entry: IQEntry) -> None:
        if self.full:
            raise OverflowError("LSQ overflow: dispatch must check capacity")
        self._entries.append(entry)

    def head(self) -> IQEntry | None:
        return self._entries[0] if self._entries else None

    def commit_head(self) -> IQEntry:
        """Drop the oldest memory instruction as it commits.

        Dispatch inserts in program order and commit retires in program
        order, so a committing load or store is always the head (the
        invariant checker's ``lsq-order`` kind asserts it).
        """
        return self._entries.popleft()

    # ------------------------------------------------------------------
    def forwarding_store(self, load: IQEntry) -> IQEntry | None:
        """Youngest older store writing the load's word, if any."""
        addr = load.op.mem_addr & _WORD_MASK
        best: IQEntry | None = None
        for entry in self._entries:
            if entry.tag >= load.tag:
                break
            if entry.op.is_store and (entry.op.mem_addr & _WORD_MASK) == addr:
                best = entry
        return best

    @staticmethod
    def store_agen_done(store: IQEntry) -> bool:
        """Has the store's address generation issued already?"""
        return store.state is ISSUED or store.state is COMPLETED
