"""Palacharla-style wakeup delay model (paper Section 3.3).

The wakeup path is tag drive → tag match → match OR.  Tag drive is the
wire-dominated term: the broadcast bus runs past every issue queue entry,
and each entry's height grows with the number of comparators hanging off
the bus.  Sequential wakeup removes one comparator per 2-source entry from
the fast bus, shortening the bus and cutting its capacitive load — that is
the entire circuit argument of the paper.

Delay form (picoseconds at 0.18 µm)::

    L       = entries * (H0 + H1 * comparators_per_entry) * width_factor
    T_drive = D1 * L + D2 * L**2
    T_total = T_MATCH + T_OR + T_drive

Coefficients are fitted so the paper's two anchors come out exactly:
a conventional 4-wide 64-entry scheduler at 466 ps and its sequential
wakeup equivalent at 374 ps (a 24.6 % speedup).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.timing.technology import TECH_0_18_UM, TechnologyNode

#: Comparator match + match-OR delay at 0.18 µm (ps).
_T_MATCH_OR = 170.0
#: Entry height: fixed part (latches, select interface) and per-comparator
#: part, in arbitrary height units.
_H0 = 1.5
_H1 = 1.0
#: Tag-drive RC coefficients (ps per unit, ps per unit^2), fitted to the
#: paper's 466 ps / 374 ps anchor pair.
_D1 = 1.158928571428571
_D2 = 7.254464285714286e-4


@dataclass(frozen=True)
class WakeupDelayModel:
    """Analytic wakeup delay model.

    Attributes:
        technology: process node (delays scale linearly with feature size).
    """

    technology: TechnologyNode = TECH_0_18_UM

    # ------------------------------------------------------------------
    def bus_length(self, entries: int, comparators_per_entry: float, width: int) -> float:
        """Wakeup bus length in height units."""
        if entries <= 0 or comparators_per_entry <= 0 or width <= 0:
            raise ConfigurationError("wakeup model parameters must be positive")
        # Wider machines route more broadcast buses past each entry; the
        # factor is normalized to the paper's 4-wide reference.
        width_factor = 1.0 + 0.1 * (width - 4)
        return entries * (_H0 + _H1 * comparators_per_entry) * width_factor

    def tag_drive_delay(self, entries: int, comparators_per_entry: float, width: int = 4) -> float:
        """Tag drive delay in ps (linear + quadratic wire term)."""
        length = self.bus_length(entries, comparators_per_entry, width)
        return (_D1 * length + _D2 * length * length) * self.technology.delay_scale

    def wakeup_delay(self, entries: int, comparators_per_entry: float, width: int = 4) -> float:
        """Total wakeup delay: tag drive + tag match + match OR (ps)."""
        return (
            _T_MATCH_OR * self.technology.delay_scale
            + self.tag_drive_delay(entries, comparators_per_entry, width)
        )

    # ------------------------------------------------------------------
    def conventional_delay(self, entries: int = 64, width: int = 4) -> float:
        """Wakeup delay of a conventional scheduler (2 comparators/entry)."""
        return self.wakeup_delay(entries, 2.0, width)

    def sequential_wakeup_delay(self, entries: int = 64, width: int = 4) -> float:
        """Fast-bus wakeup delay under sequential wakeup (1 comparator)."""
        return self.wakeup_delay(entries, 1.0, width)

    # ------------------------------------------------------------------
    def broadcast_energy(self, entries: int, comparators_per_entry: float, width: int = 4) -> float:
        """Relative dynamic energy of one tag broadcast.

        Switching energy is C·V²; the dominant capacitance is the wakeup
        bus wire plus the comparator gate loads it drives, both of which
        scale with the bus length computed by :meth:`bus_length`.  Units
        are arbitrary but consistent, so ratios between configurations are
        meaningful (sequential wakeup broadcasts on a shorter fast bus,
        then pays a second, equally short slow-bus broadcast only for
        2-source entries).
        """
        length = self.bus_length(entries, comparators_per_entry, width)
        # Wire capacitance ~ length; comparator load ~ comparators.
        return length + entries * comparators_per_entry * 0.5
