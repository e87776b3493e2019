"""The paper's contribution: half-price scheduling and register access.

Modules:

* :mod:`repro.core.last_arrival` — last-arriving operand predictors
  (Section 3.2, Figure 7);
* :mod:`repro.core.iq` — issue queue entries with per-operand wakeup state,
  including the fast/slow side split and the ``now`` bits of Figure 11;
* :mod:`repro.core.scoreboard` — destination tag tracking (tag →
  producing entry; the entry holds its broadcast state and consumer list)
  and the invalidation cascade used by scheduling replay;
* :mod:`repro.core.wakeup` — wakeup-logic strategies: conventional,
  sequential wakeup (Section 3.3) and tag elimination (Ernst & Austin);
* :mod:`repro.core.select` — oldest-first select with load/branch priority
  and per-slot select logic (Section 4.3's slot bubbles).
"""

from repro.core.last_arrival import (
    LastArrivalPredictor,
    OperandSide,
    ShadowPredictorBank,
    StaticLastArrival,
)
from repro.core.iq import EntryState, IQEntry, Operand
from repro.core.scoreboard import Scoreboard
from repro.core.wakeup import (
    BaseWakeup,
    SequentialWakeup,
    TagElimination,
    WakeupLogic,
    make_wakeup_logic,
)
from repro.core.select import Selector

__all__ = [
    "LastArrivalPredictor",
    "OperandSide",
    "ShadowPredictorBank",
    "StaticLastArrival",
    "EntryState",
    "IQEntry",
    "Operand",
    "Scoreboard",
    "BaseWakeup",
    "SequentialWakeup",
    "TagElimination",
    "WakeupLogic",
    "make_wakeup_logic",
    "Selector",
]
