"""Branch direction predictors: bimodal, gshare and a combined selector.

All predictors follow the same two-call protocol::

    taken = predictor.predict(pc)
    ...                       # later, when the branch resolves
    predictor.update(pc, actual_taken)

The combined predictor (McFarling-style, as shipped in the Alpha 21264 and
SimpleScalar) keeps both component predictions from the most recent
``predict`` internally so that ``update`` can train the selector.

Every table holds its n-bit saturating counters as one byte each in a
flat ``bytearray``: a machine builds three 4096-entry tables, and one
object per counter cost more to build than the rest of the machine.  A
counter predicts "taken" in the upper half of its range and starts weakly
taken, just above the midpoint.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def _check_power_of_two(entries: int, what: str) -> None:
    if entries <= 0 or entries & (entries - 1):
        raise ConfigurationError(f"{what} table size must be a power of two")


def _counter_table(entries: int, bits: int) -> bytearray:
    """*entries* weakly-taken *bits*-bit counters, one byte each."""
    if not 1 <= bits <= 8:
        raise ConfigurationError("counters need 1 to 8 bits")
    return bytearray([1 << (bits - 1)]) * entries


def _train(table: bytearray, index: int, outcome: bool, maximum: int) -> None:
    """Saturating increment (*outcome* true) or decrement of one counter."""
    value = table[index]
    if outcome:
        if value < maximum:
            table[index] = value + 1
    elif value:
        table[index] = value - 1


class BimodalPredictor:
    """PC-indexed table of 2-bit saturating counters."""

    def __init__(self, entries: int = 4096, bits: int = 2):
        _check_power_of_two(entries, "bimodal")
        self.entries = entries
        self._mask = entries - 1
        self._max = (1 << bits) - 1
        self._table = _counter_table(entries, bits)

    def predict(self, pc: int) -> bool:
        return self._table[pc & self._mask] > self._max >> 1

    def update(self, pc: int, taken: bool) -> None:
        _train(self._table, pc & self._mask, taken, self._max)


class GSharePredictor:
    """Global-history predictor: PC XOR history indexes a counter table."""

    def __init__(self, entries: int = 4096, history_bits: int = 12, bits: int = 2):
        _check_power_of_two(entries, "gshare")
        self.entries = entries
        self._mask = entries - 1
        self._history_mask = (1 << history_bits) - 1
        self.history = 0
        self._max = (1 << bits) - 1
        self._table = _counter_table(entries, bits)

    def predict(self, pc: int) -> bool:
        return self._table[(pc ^ self.history) & self._mask] > self._max >> 1

    def update(self, pc: int, taken: bool) -> None:
        """Train the counter, then shift the outcome into the history."""
        _train(self._table, (pc ^ self.history) & self._mask, taken, self._max)
        self.history = ((self.history << 1) | int(taken)) & self._history_mask


class CombinedPredictor:
    """McFarling combined predictor: bimodal + gshare + selector.

    The selector is a table of 2-bit counters indexed by PC; high values
    favour the gshare component.  It trains only when the two components
    disagree.
    """

    def __init__(
        self,
        bimodal_entries: int = 4096,
        gshare_entries: int = 4096,
        selector_entries: int = 4096,
        history_bits: int = 12,
    ):
        _check_power_of_two(selector_entries, "selector")
        self.bimodal = BimodalPredictor(bimodal_entries)
        self.gshare = GSharePredictor(gshare_entries, history_bits)
        self._selector = _counter_table(selector_entries, 2)
        self._selector_mask = selector_entries - 1

    def predict(self, pc: int) -> bool:
        if self._selector[pc & self._selector_mask] > 1:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        bimodal_said = self.bimodal.predict(pc)
        gshare_said = self.gshare.predict(pc)
        if bimodal_said != gshare_said:
            _train(self._selector, pc & self._selector_mask,
                   gshare_said == taken, 3)
        self.bimodal.update(pc, taken)
        self.gshare.update(pc, taken)
