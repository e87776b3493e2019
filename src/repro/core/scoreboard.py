"""Destination-tag scoreboard with consumer tracking and invalidation.

Every in-flight instruction that produces a value owns a *tag*, and its
:class:`~repro.core.iq.IQEntry` is the tag's record:

* whether the tag's wakeup broadcast has been delivered and still stands
  (``valid``) — a load-latency misprediction or a replay invalidates the
  speculative broadcast until the real data arrives;
* which issue-queue operands consume the tag (``consumers``), so
  invalidation can cascade (the Figure 5 dependence-propagation mechanism,
  in data-structure form).

The scoreboard maps each tag to its producing entry from dispatch to
commit.  The processor adds, broadcasts, subscribes to and frees tags
through :attr:`Scoreboard.entries` and the entries themselves; the methods
here are the validity query and the invalidation cascade.
"""

from __future__ import annotations

from repro.core.iq import IQEntry


class Scoreboard:
    """Tag table shared by rename, wakeup and replay."""

    __slots__ = ("entries",)

    def __init__(self):
        #: tag -> producing entry, from dispatch until commit
        self.entries: dict[int, IQEntry] = {}

    def invalidate(self, tag: int) -> list[tuple[IQEntry, int]]:
        """Invalidate a tag's broadcast; return its consumers for cascade."""
        producer = self.entries.get(tag)
        if producer is None:
            return []
        producer.valid = False
        return list(producer.consumers)

    def is_valid(self, tag: int) -> bool:
        """Is the tag's most recent broadcast still standing?"""
        producer = self.entries.get(tag)
        # Tags absent from the table belong to retired producers whose
        # values are architectural: always valid.
        return producer is None or producer.valid
