"""Workloads: dynamic instruction streams that drive the timing simulator.

Two stream sources are provided:

* :class:`~repro.workloads.feed.EmulatorFeed` — execution-driven: wraps the
  functional emulator so real HPRISC kernels drive the pipeline;
* :class:`~repro.workloads.synthetic.SyntheticWorkload` — synthetic clones of
  the SPEC CINT2000 benchmarks, generated from per-benchmark statistical
  profiles (see DESIGN.md for the substitution rationale).
"""

from repro.workloads.trace import DynOp, dynop_from_instruction
from repro.workloads.feed import EmulatorFeed, StreamStats, collect_stream
from repro.workloads.profiles import (
    BenchmarkProfile,
    PaperReference,
    SPEC_BENCHMARKS,
    SPEC_PROFILES,
    get_profile,
)
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.kernels import KERNELS, kernel_program, kernel_source

__all__ = [
    "DynOp",
    "dynop_from_instruction",
    "EmulatorFeed",
    "StreamStats",
    "collect_stream",
    "BenchmarkProfile",
    "PaperReference",
    "SPEC_BENCHMARKS",
    "SPEC_PROFILES",
    "get_profile",
    "SyntheticWorkload",
    "KERNELS",
    "kernel_program",
    "kernel_source",
]
