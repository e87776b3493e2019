"""Per-cycle event calendar backed by a power-of-two ring of buckets.

The processor schedules every future event (tag broadcasts, slow-bus
wakeups, completions, replay kills) at an absolute cycle and drains only
the cycles it simulates.  Cycles it fast-forwards over are skipped only
after :meth:`EventRing.next_due` has shown their buckets empty, so no
event is ever left behind.  A dict keyed by cycle works but pays a hash
lookup (plus ``setdefault`` list allocation) per event and per drain; since
the scheduling horizon is bounded by the machine's worst-case latency, a
ring of pre-allocated buckets indexed by ``cycle & mask`` is cheaper.

Events scheduled beyond the ring's horizon (possible only with extreme
custom latencies) spill into an overflow dict that is consulted on drain,
so correctness never depends on the horizon estimate.
"""

from __future__ import annotations

_EMPTY: list = []


def ring_size(horizon: int) -> int:
    """Bucket count of a ring for *horizon*: a power of two, at least 8."""
    return 1 << max(3, (max(1, horizon) - 1).bit_length())


class EventRing:
    """Cycle-indexed event buckets for a monotonically advancing clock.

    The caller must drain cycles in strictly increasing order, skip a
    cycle only when :meth:`next_due` says nothing is due before it, and
    only schedule events for cycles later than the one currently being
    drained (all naturally true of the processor's event calendars: every
    delay is at least one cycle).
    """

    __slots__ = ("_mask", "_size", "_buckets", "_overflow", "pending")

    def __init__(self, horizon: int):
        size = ring_size(horizon)
        self._mask = size - 1
        self._size = size
        self._buckets: list[list] = [[] for _ in range(size)]
        self._overflow: dict[int, list] = {}
        #: events scheduled and not yet popped; a caller whose calendar is
        #: usually empty tests this instead of calling :meth:`pop`
        self.pending = 0

    def schedule(self, now: int, cycle: int, item) -> None:
        """Enqueue *item* for *cycle* (must be > *now*)."""
        self.pending += 1
        if cycle - now < self._size:
            self._buckets[cycle & self._mask].append(item)
        else:
            self._overflow.setdefault(cycle, []).append(item)

    def pop(self, cycle: int) -> list:
        """Remove and return every event scheduled for *cycle*.

        Returns the bucket list itself (a fresh list replaces it), so the
        caller may iterate without copying; an empty shared list is
        returned when nothing is due.
        """
        index = cycle & self._mask
        bucket = self._buckets[index]
        if self._overflow:
            extra = self._overflow.pop(cycle, None)
            if extra is not None:
                bucket.extend(extra)
        if not bucket:
            return _EMPTY
        self._buckets[index] = []
        self.pending -= len(bucket)
        return bucket

    def next_due(self, now: int, limit: int) -> int:
        """Earliest cycle after *now* with an event, or *limit* if sooner.

        Every cycle up to *now* must already be drained.  An event in a
        bucket was scheduled less than one ring size ahead of a drained
        cycle, so only the buckets for ``now + 1 .. now + size - 1`` can
        hold one, each for a single cycle; the overflow dict holds the
        rest.  The scan stops at the first non-empty bucket, and at once
        when ``now + 1`` is due.
        """
        buckets = self._buckets
        mask = self._mask
        for cycle in range(now + 1, min(limit, now + self._size)):
            if buckets[cycle & mask]:
                limit = cycle
                break
        if self._overflow:
            limit = min(limit, min(self._overflow))
        return limit

    def __bool__(self) -> bool:
        """True while any event is pending."""
        return self.pending > 0
