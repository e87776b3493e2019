"""Differential verification: fuzzing, lockstep co-simulation, invariants.

The paper's claim that half-price scheduling is *never speculative with
respect to operand readiness* is a correctness property, not a performance
one — so this package provides the correctness backstop for the whole
repository:

* :mod:`repro.verify.progen` — a seeded random-program generator over the
  HPRISC ISA (branches, aliasing loads/stores, long-latency chains,
  0/1/2-source mixes that stress last-arrival prediction);
* :mod:`repro.verify.lockstep` — lockstep co-simulation: the functional
  emulator runs beside the timing pipeline and every committed
  instruction's PC, destination value and memory effect is diffed;
* :mod:`repro.verify.invariants` — in-pipeline checkers (enabled with
  ``Processor(check=True)``) asserting in-order commit, issue/read-port
  caps, operand readiness at issue and fully-squashed replay windows;
* :mod:`repro.verify.shrink` — a greedy test-case minimizer producing
  replayable repro files (:mod:`repro.verify.reprofile`);
* :mod:`repro.verify.fuzz` — the orchestration used by ``repro fuzz`` and
  the CI fuzz gates.

See docs/VERIFICATION.md for the operator's guide.
"""

from repro.verify.checker import PipelineChecker
from repro.verify.fuzz import (
    DEFAULT_BUDGET,
    FuzzFailure,
    FuzzReport,
    check_source,
    check_source_cross_backend,
    config_matrix,
    replay_corpus,
    run_fuzz,
)
from repro.verify.invariants import InvariantChecker, InvariantViolation
from repro.verify.lockstep import DivergenceError, LockstepChecker
from repro.verify.progen import ProgramGenerator, generate_source
from repro.verify.reprofile import REPRO_SUFFIX, ReproCase, read_repro, write_repro
from repro.verify.shrink import shrink_source

__all__ = [
    "DEFAULT_BUDGET",
    "DivergenceError",
    "FuzzFailure",
    "FuzzReport",
    "InvariantChecker",
    "InvariantViolation",
    "LockstepChecker",
    "PipelineChecker",
    "ProgramGenerator",
    "REPRO_SUFFIX",
    "ReproCase",
    "check_source",
    "check_source_cross_backend",
    "config_matrix",
    "generate_source",
    "read_repro",
    "replay_corpus",
    "run_fuzz",
    "shrink_source",
    "write_repro",
]
