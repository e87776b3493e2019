"""Process technology scaling for the analytic timing models.

Delays are computed at the paper's 0.18 µm node and scaled linearly with
feature size for other nodes — the first-order scaling CACTI 3.0 and the
Palacharla model both assume for gate-dominated paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TechnologyNode:
    """One process node."""

    name: str
    feature_um: float

    def __post_init__(self):
        if self.feature_um <= 0:
            raise ConfigurationError("feature size must be positive")

    @property
    def delay_scale(self) -> float:
        """Delay multiplier relative to the 0.18 µm reference node."""
        return self.feature_um / 0.18


#: The paper's reference node.
TECH_0_18_UM = TechnologyNode("0.18um", 0.18)
