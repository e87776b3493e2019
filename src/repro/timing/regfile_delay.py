"""CACTI-3.0-flavoured register file access time and area model (Section 4).

Each additional port adds a wordline, a bitline pair and their wire pitch
to every cell, so cell width and height grow linearly with the port count
— which makes *area quadratic* and *access time roughly linear* in ports,
exactly the trends the paper cites [6][7][8].

Access time form (nanoseconds at 0.18 µm)::

    t = t_decode(entries) + t_sense
      + (W1 * bits + B1 * entries) * (1 + P_GROWTH * ports)

Coefficients are fitted to the paper's anchors: a 160-entry register file
at 0.18 µm reads in **1.71 ns with 24 ports** and **1.36 ns with 16 ports**
(the 8-wide machine's 2-ports-per-slot vs. 1+crossbar... per-slot halving).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.timing.technology import TECH_0_18_UM, TechnologyNode

#: Decode delay: ns per log2(entries), plus sense amplifier time.
_DECODE_PER_BIT = 0.05
_T_SENSE = 0.15
#: Wordline (per data bit) and bitline (per entry) RC coefficients, ns.
_W1 = 7.5e-4
_B1 = 6.0e-4
#: Per-port relative growth of cell dimensions (fitted: ~0.30 per port).
_P_GROWTH = 0.3038194444444444


@dataclass(frozen=True)
class RegisterFileDelayModel:
    """Analytic multi-ported register file model.

    Attributes:
        technology: process node.
        bits: data width of one register (Alpha: 64).
    """

    technology: TechnologyNode = TECH_0_18_UM
    bits: int = 64

    def _check(self, entries: int, ports: int) -> None:
        if entries <= 0 or ports <= 0:
            raise ConfigurationError("register file entries/ports must be positive")

    # ------------------------------------------------------------------
    def access_time(self, entries: int, ports: int) -> float:
        """Read access time in ns."""
        self._check(entries, ports)
        decode = _DECODE_PER_BIT * math.log2(max(2, entries)) + _T_SENSE
        array = (_W1 * self.bits + _B1 * entries) * (1.0 + _P_GROWTH * ports)
        return (decode + array) * self.technology.delay_scale

    def relative_area(self, entries: int, ports: int) -> float:
        """Array area in arbitrary units (quadratic in port count)."""
        self._check(entries, ports)
        cell_dim = 1.0 + _P_GROWTH * ports
        return entries * self.bits * cell_dim * cell_dim

    # ------------------------------------------------------------------
    def paper_anchor(self) -> tuple[float, float]:
        """The paper's quoted pair: (24-port, 16-port) access times at
        160 entries, 0.18 µm."""
        return self.access_time(160, 24), self.access_time(160, 16)
