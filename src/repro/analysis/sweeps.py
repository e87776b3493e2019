"""Parameter sweeps: sensitivity studies around the paper's design points.

The paper fixes one 4-wide and one 8-wide machine; these helpers vary a
single dimension at a time (window size, machine width, predictor size,
load speculation shadow) and report how the half-price techniques respond —
the kind of ablation a reviewer would ask for.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.analysis.report import ExperimentResult
from repro.analysis.runner import ExperimentRunner
from repro.pipeline.config import FOUR_WIDE, RecoveryModel, SchedulerModel

#: Benchmarks of the three ablations (4-wide, seed-averaged normalized IPC).
_ABLATION_BENCHES = ("bzip", "mcf", "gcc")


def window_size_sweep(
    runner: ExperimentRunner,
    benchmark: str,
    sizes: Iterable[int] = (16, 32, 64, 128),
) -> ExperimentResult:
    """Base vs. sequential-wakeup IPC as the scheduler window grows.

    Bigger windows lengthen the wakeup bus, which is exactly when the
    paper's capacitance argument matters most; the IPC side of that trade
    is what this sweep reports.
    """
    result = ExperimentResult(
        "Sweep W",
        f"IPC vs. window size ({benchmark}, 4-wide)",
        ["window", "base ipc", "seq wakeup ipc", "normalized"],
    )
    points = []
    for size in sizes:
        base = dataclasses.replace(
            FOUR_WIDE, ruu_size=size, lsq_size=max(4, size // 2),
            name=f"4-wide-w{size}",
        )
        points.append((size, base, base.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)))
    runner.prefetch(
        [(benchmark, config, runner.seed, False)
         for _, base, seq in points for config in (base, seq)]
    )
    for size, base, seq in points:
        base_ipc = runner.result(benchmark, base).ipc
        seq_ipc = runner.result(benchmark, seq).ipc
        result.rows.append(
            [size, base_ipc, seq_ipc, seq_ipc / base_ipc if base_ipc else 0.0]
        )
    return result


def width_sweep(
    runner: ExperimentRunner,
    benchmark: str,
    widths: Iterable[int] = (2, 4, 8),
) -> ExperimentResult:
    """Technique cost vs. machine width (the paper contrasts 4 and 8)."""
    result = ExperimentResult(
        "Sweep X",
        f"Sequential wakeup cost vs. width ({benchmark})",
        ["width", "base ipc", "seq wakeup normalized"],
    )
    points = []
    for width in widths:
        base = dataclasses.replace(
            FOUR_WIDE,
            width=width,
            ruu_size=max(16, 16 * width),
            lsq_size=max(8, 8 * width),
            fu=dataclasses.replace(
                FOUR_WIDE.fu,
                int_alu=width,
                fp_alu=max(1, width // 2),
                int_mult=max(1, width // 2),
                fp_mult=max(1, width // 2),
                mem_ports=max(1, width // 2),
            ),
            name=f"{width}-wide-sweep",
        )
        points.append((width, base, base.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)))
    runner.prefetch(
        [(benchmark, config, runner.seed, False)
         for _, base, seq in points for config in (base, seq)]
    )
    for width, base, seq in points:
        base_ipc = runner.result(benchmark, base).ipc
        seq_ipc = runner.result(benchmark, seq).ipc
        result.rows.append(
            [width, base_ipc, seq_ipc / base_ipc if base_ipc else 0.0]
        )
    return result


def predictor_size_ablation(runner: ExperimentRunner) -> ExperimentResult:
    """Sequential wakeup IPC vs. predictor table size (128 .. 4096).

    Does Figure 7's flatness carry to IPC?  The paper's claim: performance
    is insensitive to predictor accuracy because the misprediction penalty
    is one cycle.
    """
    sizes = (128, 512, 1024, 4096)
    result = ExperimentResult(
        "Ablation A",
        "Seq wakeup normalized IPC vs. predictor entries (4-wide)",
        ["benchmark"] + [f"{s}e" for s in sizes] + ["nopred"],
    )
    for name in _ABLATION_BENCHES:
        row = [name]
        for size in sizes:
            config = FOUR_WIDE.with_techniques(
                scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=size
            )
            row.append(runner.normalized_ipc(name, config))
        nopred = FOUR_WIDE.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=None
        )
        row.append(runner.normalized_ipc(name, nopred))
        result.rows.append(row)
    return result


def spec_window_ablation(runner: ExperimentRunner) -> ExperimentResult:
    """Base-machine IPC vs. load speculative-window length (replay shadow)."""
    result = ExperimentResult(
        "Ablation B",
        "Normalized IPC vs. load spec window (replay shadow)",
        ["benchmark", "window=1", "window=2", "window=3"],
    )
    for name in _ABLATION_BENCHES:
        row = [name]
        for window in (1, 2, 3):
            config = dataclasses.replace(
                FOUR_WIDE, load_spec_window=window,
                name=f"4-wide+win{window}",
            )
            row.append(runner.normalized_ipc(name, config))
        result.rows.append(row)
    return result


def recovery_ablation(runner: ExperimentRunner) -> ExperimentResult:
    """Sequential wakeup under non-selective vs. selective recovery.

    Section 3.1: sequential wakeup is fully compatible with selective
    recovery (both operands observe dependence broadcasts), so it should
    benefit from the cheaper replays, especially on miss-heavy mcf.
    """
    result = ExperimentResult(
        "Ablation C",
        "Seq wakeup IPC: non-selective vs. selective recovery (4-wide)",
        ["benchmark", "non-selective", "selective"],
    )
    for name in _ABLATION_BENCHES:
        row = [name]
        for recovery in (RecoveryModel.NON_SELECTIVE, RecoveryModel.SELECTIVE):
            config = FOUR_WIDE.with_techniques(
                scheduler=SchedulerModel.SEQ_WAKEUP, recovery=recovery
            )
            row.append(runner.normalized_ipc(name, config))
        result.rows.append(row)
    return result
