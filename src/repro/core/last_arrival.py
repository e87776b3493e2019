"""Last-arriving operand predictors (paper Section 3.2).

The paper finds that a PC-indexed, direct-mapped bimodal predictor with
2-bit saturating counters matches more sophisticated designs.  The predictor
answers one question per 2-pending-source instruction: *which operand (left
or right) will arrive last?*  Sequential wakeup places the predicted-last
operand on the fast bus; tag elimination keeps only its comparator.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError


class OperandSide(enum.IntEnum):
    """Operand position in the encoding: left (first) or right (second)."""

    LEFT = 0
    RIGHT = 1

    @property
    def other(self) -> "OperandSide":
        return RIGHT if self is LEFT else LEFT


# Members bound once as module constants for the cycle loop, as in
# repro.core.iq: ``OperandSide.LEFT`` goes through ``EnumType.__getattr__``.
LEFT = OperandSide.LEFT
RIGHT = OperandSide.RIGHT


class AccuracyTally:
    """Accuracy bookkeeping shared by every last-arriving design (Figure 7,
    the design comparison and the stats module)."""

    def __init__(self):
        self.predictions = 0
        self.correct = 0

    def record_outcome(self, predicted: OperandSide, actual: OperandSide) -> None:
        self.predictions += 1
        if predicted is actual:
            self.correct += 1

    @property
    def accuracy(self) -> float:
        return self.correct / self.predictions if self.predictions else 0.0


class StaticLastArrival(AccuracyTally):
    """Predictor-less policy: the right operand is assumed last-arriving.

    This is the configuration evaluated in the right bars of Figure 14
    ("sequential wakeup without a last-arriving predictor").
    """

    entries = 0

    def predict(self, pc: int) -> OperandSide:
        return RIGHT

    def update(self, pc: int, last_side: OperandSide) -> None:
        """Static policy: nothing to train."""


class LastArrivalPredictor(AccuracyTally):
    """PC-indexed direct-mapped bimodal last-arriving operand predictor.

    Each entry is a 2-bit saturating counter; the upper half of the range
    predicts RIGHT.  Counters are initialized to weakly-RIGHT, matching the
    static fallback policy.
    """

    def __init__(self, entries: int = 1024, bits: int = 2):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError("predictor entries must be a power of two")
        if bits < 1:
            raise ConfigurationError("predictor counters need at least one bit")
        self.entries = entries
        self._mask = entries - 1
        self._max = (1 << bits) - 1
        self._mid = self._max // 2
        self._table = [self._mid + 1] * entries
        super().__init__()

    def predict(self, pc: int) -> OperandSide:
        if self._table[pc & self._mask] > self._mid:
            return RIGHT
        return LEFT

    def update(self, pc: int, last_side: OperandSide) -> None:
        """Train toward the actually-last operand side."""
        index = pc & self._mask
        value = self._table[index]
        if last_side is RIGHT:
            if value < self._max:
                self._table[index] = value + 1
        elif value > 0:
            self._table[index] = value - 1


class TwoLevelLastArrival(AccuracyTally):
    """Two-level (local-history) last-arriving operand predictor.

    One of the "more sophisticated designs" of Section 3.2: a per-PC
    shift register of recent last-arriving sides indexes a shared pattern
    table of 2-bit counters.  Captures alternating per-PC patterns that a
    bimodal counter cannot, at the cost of two tables.
    """

    def __init__(self, entries: int = 1024, history_bits: int = 4):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError("predictor entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self._histories = [0] * entries
        # Shared pattern table, sized like the per-PC table so the designs
        # compare at equal capacity.
        self._pattern = [2] * entries
        self._pattern_mask = entries - 1
        super().__init__()

    def _index(self, pc: int) -> int:
        history = self._histories[pc & self._mask]
        return ((pc << 4) ^ history) & self._pattern_mask

    def predict(self, pc: int) -> OperandSide:
        return RIGHT if self._pattern[self._index(pc)] > 1 else LEFT

    def update(self, pc: int, last_side: OperandSide) -> None:
        index = self._index(pc)
        value = self._pattern[index]
        if last_side is RIGHT:
            self._pattern[index] = min(3, value + 1)
        else:
            self._pattern[index] = max(0, value - 1)
        slot = pc & self._mask
        self._histories[slot] = (
            (self._histories[slot] << 1) | int(last_side is RIGHT)
        ) & self._history_mask


class GShareLastArrival(AccuracyTally):
    """Global-history last-arriving predictor (gshare-style).

    Another Section 3.2 alternative: recent last-arriving outcomes across
    *all* instructions XOR the PC.  Global correlation rarely helps here —
    which operand of an instruction arrives last is a property of its own
    dataflow — and that is the paper's point.
    """

    def __init__(self, entries: int = 1024, history_bits: int = 8):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError("predictor entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self._history = 0
        self._table = [2] * entries
        super().__init__()

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict(self, pc: int) -> OperandSide:
        return RIGHT if self._table[self._index(pc)] > 1 else LEFT

    def update(self, pc: int, last_side: OperandSide) -> None:
        index = self._index(pc)
        value = self._table[index]
        if last_side is RIGHT:
            self._table[index] = min(3, value + 1)
        else:
            self._table[index] = max(0, value - 1)
        self._history = (
            (self._history << 1) | int(last_side is RIGHT)
        ) & self._history_mask


def make_design_comparison(entries: int = 1024) -> dict[str, object]:
    """The Section 3.2 design-space study: bimodal vs. sophisticated.

    Returns a dict of equally-sized predictors to train side by side; the
    paper's claim is that the bimodal design matches the rest.
    """
    return {
        "bimodal": LastArrivalPredictor(entries),
        "two-level": TwoLevelLastArrival(entries),
        "gshare": GShareLastArrival(entries),
        "static-right": StaticLastArrival(),
    }


class DesignComparisonBank:
    """Equal-capacity predictor *designs* trained in parallel (§3.2).

    Regenerates the paper's design-space observation: the simple bimodal
    predictor matches the sophisticated alternatives, so table simplicity
    wins.  Trained on every resolved 2-source wakeup order.
    """

    def __init__(self, entries: int = 1024):
        self.predictors = make_design_comparison(entries)
        self.samples = 0

    def observe(self, pc: int, last_side: OperandSide | None) -> None:
        """Record one last-arriving outcome (None = simultaneous: skip)."""
        if last_side is None:
            return
        self.samples += 1
        for predictor in self.predictors.values():
            predictor.record_outcome(predictor.predict(pc), last_side)
            predictor.update(pc, last_side)

    def accuracy_table(self) -> dict[str, float]:
        """Accuracy per design name."""
        return {name: p.accuracy for name, p in self.predictors.items()}


class ShadowPredictorBank:
    """A bank of differently-sized predictors trained in parallel.

    Used to regenerate Figure 7 (accuracy vs. table size, 128..4096) from a
    single simulation: every 2-pending-source wakeup trains all predictors.
    Simultaneous wakeups are tallied separately, since the paper counts them
    as either correct or incorrect depending on the consuming logic.
    """

    def __init__(self, sizes: tuple[int, ...] = (128, 512, 1024, 4096)):
        self.predictors = {size: LastArrivalPredictor(size) for size in sizes}
        self.simultaneous = 0
        self.samples = 0

    def observe(self, pc: int, last_side: OperandSide | None) -> None:
        """Record one 2-pending-source wakeup outcome.

        ``last_side`` is None for simultaneous wakeups (no training, as
        neither side was strictly last).
        """
        self.samples += 1
        if last_side is None:
            self.simultaneous += 1
            return
        for predictor in self.predictors.values():
            predictor.record_outcome(predictor.predict(pc), last_side)
            predictor.update(pc, last_side)

    def accuracy_table(self) -> dict[int, float]:
        """Accuracy per table size, over non-simultaneous wakeups."""
        return {size: p.accuracy for size, p in self.predictors.items()}

    @property
    def frac_simultaneous(self) -> float:
        return self.simultaneous / self.samples if self.samples else 0.0
