"""Destination-tag scoreboard with consumer tracking and invalidation.

Every in-flight instruction that produces a value owns a *tag*.  The
scoreboard records, per tag:

* when (if ever) the tag's wakeup broadcast was delivered;
* whether the broadcast is still *valid* — a load-latency misprediction or
  a replay invalidates the speculative broadcast until the real data
  arrives;
* which issue-queue operands consume the tag, so invalidation can cascade
  (the Figure 5 dependence-propagation mechanism, in data-structure form).
"""

from __future__ import annotations

from repro.core.iq import IQEntry


class TagRecord:
    """Lifecycle of one destination tag."""

    __slots__ = ("broadcast_cycle", "valid", "consumers", "matrix_payload")

    def __init__(self):
        #: cycle the wakeup broadcast was delivered (None = not yet)
        self.broadcast_cycle: int | None = None
        #: False after the speculative broadcast was invalidated
        self.valid = False
        self.consumers: list[tuple[IQEntry, int]] = []
        #: Figure 5 matrix carried on the bus with the last broadcast
        self.matrix_payload = None


class Scoreboard:
    """Tag table shared by rename, wakeup and replay."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: dict[int, TagRecord] = {}

    # ------------------------------------------------------------------
    def allocate(self, tag: int) -> TagRecord:
        record = TagRecord()
        self._records[tag] = record
        return record

    def get(self, tag: int) -> TagRecord | None:
        return self._records.get(tag)

    def free(self, tag: int) -> None:
        self._records.pop(tag, None)

    def add_consumer(self, tag: int, entry: IQEntry, op_index: int) -> None:
        record = self._records.get(tag)
        if record is not None:
            record.consumers.append((entry, op_index))

    # ------------------------------------------------------------------
    def mark_broadcast(self, tag: int, cycle: int) -> TagRecord | None:
        """Record a wakeup broadcast.

        Returns the tag's record, whose consumers the broadcast wakes, or
        None for a tag no longer in the table.
        """
        record = self._records.get(tag)
        if record is not None:
            record.broadcast_cycle = cycle
            record.valid = True
        return record

    def invalidate(self, tag: int) -> list[tuple[IQEntry, int]]:
        """Invalidate a tag's broadcast; return its consumers for cascade."""
        record = self._records.get(tag)
        if record is None:
            return []
        record.valid = False
        record.broadcast_cycle = None
        return list(record.consumers)

    # ------------------------------------------------------------------
    def is_valid(self, tag: int) -> bool:
        """Is the tag's most recent broadcast still standing?"""
        record = self._records.get(tag)
        # Tags absent from the table belong to retired producers whose
        # values are architectural: always valid.
        return record is None or record.valid
