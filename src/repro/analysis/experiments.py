"""One function per paper table/figure, returning an ExperimentResult.

Each function documents what the paper reports and emits rows with the
paper's values next to the measured ones wherever the paper gives
per-benchmark numbers.  Absolute values are not expected to match (the
substrate is a synthetic-workload simulator, see DESIGN.md §3); the shape —
who wins, by roughly what factor — is the reproduction target.
"""

from __future__ import annotations

from functools import partial

from repro.analysis import sweeps
from repro.analysis.report import ExperimentResult
from repro.analysis.runner import SHADOW_SIZES, ExperimentRunner
from repro.pipeline.config import (
    EIGHT_WIDE,
    FOUR_WIDE,
    MachineConfig,
    RegFileModel,
    SchedulerModel,
)
from repro.timing.regfile_delay import RegisterFileDelayModel
from repro.timing.wakeup_delay import WakeupDelayModel
from repro.workloads.profiles import get_profile

#: Stream length used for the machine-independent characterizations.
_STREAM_OPS = 60_000


# ----------------------------------------------------------------------
# Table 1 / Table 2
# ----------------------------------------------------------------------
def table1(runner: ExperimentRunner | None = None) -> ExperimentResult:
    """Table 1: machine configurations."""
    result = ExperimentResult(
        "Table 1",
        "Machine configurations",
        ["parameter", "4-wide", "8-wide"],
    )
    rows = [
        ("fetch/issue/commit width", FOUR_WIDE.width, EIGHT_WIDE.width),
        ("RUU entries", FOUR_WIDE.ruu_size, EIGHT_WIDE.ruu_size),
        ("LSQ entries", FOUR_WIDE.lsq_size, EIGHT_WIDE.lsq_size),
        ("integer ALUs", FOUR_WIDE.fu.int_alu, EIGHT_WIDE.fu.int_alu),
        ("FP ALUs", FOUR_WIDE.fu.fp_alu, EIGHT_WIDE.fu.fp_alu),
        ("int MULT/DIV", FOUR_WIDE.fu.int_mult, EIGHT_WIDE.fu.int_mult),
        ("FP MULT/DIV", FOUR_WIDE.fu.fp_mult, EIGHT_WIDE.fu.fp_mult),
        ("memory ports", FOUR_WIDE.fu.mem_ports, EIGHT_WIDE.fu.mem_ports),
        ("IL1", "64KB 2-way 32B", "64KB 2-way 32B"),
        ("DL1", "64KB 4-way 16B", "64KB 4-way 16B"),
        ("L2", "512KB 4-way 64B", "512KB 4-way 64B"),
        ("memory latency", FOUR_WIDE.mem.memory_latency, EIGHT_WIDE.mem.memory_latency),
    ]
    result.rows = [list(row) for row in rows]
    return result


def _prefetch_base(runner: ExperimentRunner, widths=(4,), shadow: bool = False) -> None:
    """Fan the base-machine runs a figure needs through the parallel engine."""
    configs = {4: FOUR_WIDE, 8: EIGHT_WIDE}
    runner.prefetch(
        [
            (name, configs[width], runner.seed, shadow)
            for name in runner.benchmarks
            for width in widths
        ]
    )


def table2(runner: ExperimentRunner) -> ExperimentResult:
    """Table 2: per-benchmark base IPC on the 4- and 8-wide machines."""
    result = ExperimentResult(
        "Table 2",
        "Benchmarks and base IPC",
        ["benchmark", "input set", "ipc4", "paper ipc4", "ipc8", "paper ipc8"],
        notes=["workloads are synthetic clones; see DESIGN.md §3"],
    )
    _prefetch_base(runner, widths=(4, 8))
    for name in runner.benchmarks:
        paper = get_profile(name).paper
        result.rows.append(
            [
                name,
                paper.input_set,
                runner.base(name, 4).ipc,
                paper.base_ipc_4w,
                runner.base(name, 8).ipc,
                paper.base_ipc_8w,
            ]
        )
    return result


# ----------------------------------------------------------------------
# Figures 2 and 3: machine-independent stream characterization.
# ----------------------------------------------------------------------
def fig2(runner: ExperimentRunner) -> ExperimentResult:
    """Figure 2: percentage of 2-source-format instructions."""
    result = ExperimentResult(
        "Figure 2",
        "2-source-format instructions (paper range: 18~36%, stores separate)",
        ["benchmark", "%2src-format", "%stores", "%other"],
    )
    for name in runner.benchmarks:
        stats = runner.stream_stats(name, _STREAM_OPS)
        result.rows.append(
            [
                name,
                100.0 * stats.frac_two_source_format,
                100.0 * stats.frac_stores,
                100.0 * (1.0 - stats.frac_two_source_format - stats.frac_stores),
            ]
        )
    return result


def fig3(runner: ExperimentRunner) -> ExperimentResult:
    """Figure 3: 2-source-format breakdown by unique non-zero sources."""
    result = ExperimentResult(
        "Figure 3",
        "Unique-source breakdown (paper: 6~23% are true 2-source)",
        ["benchmark", "%2-source", "%demoted(zero/dup)", "%nops"],
    )
    for name in runner.benchmarks:
        stats = runner.stream_stats(name, _STREAM_OPS)
        result.rows.append(
            [
                name,
                100.0 * stats.frac_two_source,
                100.0 * stats.one_effective_source / max(1, stats.total),
                100.0 * stats.frac_eliminated_nops,
            ]
        )
    return result


# ----------------------------------------------------------------------
# Figure 4 / Figure 6 / Table 3 / Figure 7: scheduler characterization.
# ----------------------------------------------------------------------
def fig4(runner: ExperimentRunner) -> ExperimentResult:
    """Figure 4: ready operands of 2-source instructions at insert."""
    result = ExperimentResult(
        "Figure 4",
        "Ready operands at insert (paper: 4~16% have 0 ready)",
        ["benchmark", "%0-ready(4w)", "%1-ready(4w)", "%2-ready(4w)", "%0-ready(8w)"],
    )
    _prefetch_base(runner, widths=(4, 8))
    for name in runner.benchmarks:
        stats4 = runner.base(name, 4).stats
        stats8 = runner.base(name, 8).stats
        total = max(1, stats4.two_source_dispatched)
        result.rows.append(
            [
                name,
                100.0 * stats4.ready_at_insert[0] / total,
                100.0 * stats4.ready_at_insert[1] / total,
                100.0 * stats4.ready_at_insert[2] / total,
                100.0 * stats8.frac_two_pending,
            ]
        )
    return result


def fig6(runner: ExperimentRunner) -> ExperimentResult:
    """Figure 6: wakeup slack between the two operand wakeups."""
    result = ExperimentResult(
        "Figure 6",
        "Wakeup slack of 2-pending-source insts (paper: <3% simultaneous)",
        ["benchmark", "%slack0(simult)", "%slack1", "%slack2", "%slack3+"],
    )
    _prefetch_base(runner)
    for name in runner.benchmarks:
        stats = runner.base(name, 4).stats
        total = max(1, stats.two_pending_observed)
        slack = stats.wakeup_slack
        three_plus = sum(count for s, count in slack.items() if s >= 3)
        result.rows.append(
            [
                name,
                100.0 * slack[0] / total,
                100.0 * slack[1] / total,
                100.0 * slack[2] / total,
                100.0 * three_plus / total,
            ]
        )
    return result


def table3(runner: ExperimentRunner) -> ExperimentResult:
    """Table 3: wakeup-order stability and last-arriving side split."""
    result = ExperimentResult(
        "Table 3",
        "Wakeup order stability / last-arriving side",
        [
            "benchmark",
            "%same(4w)", "paper", "%left(4w)", "paper(l)",
            "%same(8w)", "paper8", "%left(8w)", "paper8(l)",
        ],
    )
    _prefetch_base(runner, widths=(4, 8))
    for name in runner.benchmarks:
        paper = get_profile(name).paper
        order4 = runner.base(name, 4).stats.order
        order8 = runner.base(name, 8).stats.order
        result.rows.append(
            [
                name,
                100.0 * order4.frac_same, paper.wakeup_order_same_4w,
                100.0 * order4.frac_last_left, paper.last_left_4w,
                100.0 * order8.frac_same, paper.wakeup_order_same_8w,
                100.0 * order8.frac_last_left, paper.last_left_8w,
            ]
        )
    return result


def fig7(runner: ExperimentRunner) -> ExperimentResult:
    """Figure 7: last-arriving predictor accuracy vs. table size."""
    headers = ["benchmark"] + [f"{size}e(4w)" for size in SHADOW_SIZES] + ["%simult"]
    result = ExperimentResult(
        "Figure 7",
        "Bimodal last-arriving predictor accuracy (128..4096 entries)",
        headers,
        notes=["accuracy over non-simultaneous 2-pending wakeups"],
    )
    _prefetch_base(runner, shadow=True)
    for name in runner.benchmarks:
        stats = runner.base(name, 4, shadow=True).stats
        bank = stats.shadow_bank
        table = bank.accuracy_table()
        result.rows.append(
            [name]
            + [100.0 * table[size] for size in SHADOW_SIZES]
            + [100.0 * bank.frac_simultaneous]
        )
    return result


def fig10(runner: ExperimentRunner) -> ExperimentResult:
    """Figure 10: register access characterization of 2-source insts."""
    result = ExperimentResult(
        "Figure 10",
        "Register accesses (paper: <4% of insts need two port reads)",
        ["benchmark", "%back-to-back", "%2-ready", "%non-b2b", "%needs-2-reads"],
        notes=["percentages of all committed instructions, 4-wide base"],
    )
    _prefetch_base(runner)
    for name in runner.benchmarks:
        stats = runner.base(name, 4).stats
        total = max(1, stats.committed)
        result.rows.append(
            [
                name,
                100.0 * stats.rf_back_to_back / total,
                100.0 * stats.rf_two_ready / total,
                100.0 * stats.rf_non_back_to_back / total,
                100.0 * stats.frac_two_rf_reads,
            ]
        )
    return result


# ----------------------------------------------------------------------
# Figures 14 / 15 / 16: the performance evaluation.
# ----------------------------------------------------------------------
def _normalized_rows(runner, variants: dict[str, MachineConfig]) -> list[list]:
    # Every (benchmark, config, seed) cell is independent: resolve them all
    # through the parallel engine up front, then aggregate from the cache.
    bases = {config.width: FOUR_WIDE if config.width == 4 else EIGHT_WIDE
             for config in variants.values()}
    requests = [
        (name, config, seed, False)
        for name in runner.benchmarks
        for seed in runner.seeds
        for config in list(bases.values()) + list(variants.values())
    ]
    runner.prefetch(requests)
    rows = []
    for name in runner.benchmarks:
        row = [name]
        for config in variants.values():
            row.append(runner.normalized_ipc(name, config))
        rows.append(row)
    if rows:
        average = ["average"]
        for index in range(1, len(rows[0])):
            average.append(sum(row[index] for row in rows) / len(rows))
        rows.append(average)
    return rows


def fig14(runner: ExperimentRunner, width: int = 4) -> ExperimentResult:
    """Figure 14: sequential wakeup vs. tag elimination, normalized IPC.

    Paper averages: seq wakeup 0.4%/0.6% degradation (4/8-wide); without a
    predictor 1.6%/2.6%; tag elimination worse, up to 10.6% (crafty, 8w).
    """
    base = FOUR_WIDE if width == 4 else EIGHT_WIDE
    variants = {
        "seq wakeup": base.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP),
        "tag elim": base.with_techniques(scheduler=SchedulerModel.TAG_ELIM),
        "seq wakeup nopred": base.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=None
        ),
    }
    result = ExperimentResult(
        "Figure 14",
        f"Sequential wakeup performance, {width}-wide (normalized IPC)",
        ["benchmark", "seq wakeup", "tag elim", "seq wakeup nopred"],
        notes=["1k-entry direct-mapped bimodal last-arriving predictor"],
    )
    result.rows = _normalized_rows(runner, variants)
    return result


def fig15(runner: ExperimentRunner, width: int = 4) -> ExperimentResult:
    """Figure 15: register file configurations, normalized IPC.

    Paper averages: sequential register access loses 1.1%/0.7% (4/8-wide),
    worst case 2.2% (eon, 4-wide).
    """
    base = FOUR_WIDE if width == 4 else EIGHT_WIDE
    variants = {
        "seq RF access": base.with_techniques(regfile=RegFileModel.SEQUENTIAL),
        "1 extra RF stage": base.with_techniques(regfile=RegFileModel.EXTRA_STAGE),
        "reg + crossbar": base.with_techniques(regfile=RegFileModel.CROSSBAR),
    }
    result = ExperimentResult(
        "Figure 15",
        f"Register file performance, {width}-wide (normalized IPC)",
        ["benchmark", "seq RF access", "1 extra RF stage", "reg + crossbar"],
    )
    result.rows = _normalized_rows(runner, variants)
    return result


def fig16(runner: ExperimentRunner, width: int = 4) -> ExperimentResult:
    """Figure 16: combined sequential wakeup + sequential register access.

    Paper: 2.2% average degradation, worst case 4.8% (bzip, 8-wide).
    """
    base = FOUR_WIDE if width == 4 else EIGHT_WIDE
    variants = {
        "combined": base.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, regfile=RegFileModel.SEQUENTIAL
        ),
    }
    result = ExperimentResult(
        "Figure 16",
        f"Combined techniques, {width}-wide (normalized IPC)",
        ["benchmark", "combined"],
        notes=["only the fast-side now bit can clear seq_reg_access"],
    )
    result.rows = _normalized_rows(runner, variants)
    return result


# ----------------------------------------------------------------------
# Circuit timing claims (Sections 3.3 and 4).
# ----------------------------------------------------------------------
def timing_claims(runner: ExperimentRunner | None = None) -> ExperimentResult:
    """The two circuit-level numbers the paper quotes."""
    wakeup = WakeupDelayModel()
    regfile = RegisterFileDelayModel()
    conventional = wakeup.conventional_delay(64, 4)
    sequential = wakeup.sequential_wakeup_delay(64, 4)
    full, reduced = regfile.paper_anchor()
    result = ExperimentResult(
        "Timing",
        "Circuit-level claims (Sections 3.3 / 4)",
        ["quantity", "measured", "paper"],
    )
    result.rows = [
        ["wakeup conventional (ps)", conventional, 466.0],
        ["wakeup sequential (ps)", sequential, 374.0],
        ["wakeup speedup (%)", 100.0 * (conventional - sequential) / sequential, 24.6],
        ["RF access 24 ports (ns)", full, 1.71],
        ["RF access 16 ports (ns)", reduced, 1.36],
        ["RF access drop (%)", 100.0 * (full - reduced) / full, 20.5],
    ]
    return result


def predictor_designs(runner: ExperimentRunner) -> ExperimentResult:
    """Section 3.2's design-space study: bimodal vs. sophisticated designs.

    The paper examined several last-arriving predictor designs and found a
    simple PC-indexed bimodal matches them; this regenerates that
    comparison at equal table capacity (1k entries), trained on every
    resolved 2-source wakeup order of the base 4-wide machine.
    """
    result = ExperimentResult(
        "Predictor designs",
        "Last-arriving predictor design comparison (accuracy %, 4-wide)",
        ["benchmark", "bimodal", "two-level", "gshare", "static-right"],
        notes=["the paper's conclusion: the simple bimodal design suffices"],
    )
    _prefetch_base(runner, shadow=True)
    for name in runner.benchmarks:
        bank = runner.base(name, 4, shadow=True).stats.design_bank
        table = bank.accuracy_table()
        result.rows.append(
            [name]
            + [100.0 * table[key] for key in ("bimodal", "two-level", "gshare", "static-right")]
        )
    return result


def cost_summary(runner: ExperimentRunner) -> ExperimentResult:
    """The half-price trade in one table: hardware saved vs. IPC paid.

    Condenses the paper's argument: halving the timing-critical structures
    (wakeup bus load, register read ports) buys large delay/energy/area
    reductions for an IPC cost measured in single percents (Figure 16).
    """
    wakeup = WakeupDelayModel()
    regfile = RegisterFileDelayModel()
    combined4 = fig16(runner, width=4).row_for("average")[1]
    combined8 = fig16(runner, width=8).row_for("average")[1]
    result = ExperimentResult(
        "Cost",
        "Half-price architecture: complexity saved vs. IPC paid",
        ["quantity", "conventional", "half-price", "change %"],
    )

    def pct(before, after):
        return 100.0 * (after - before) / before

    wakeup_before = wakeup.conventional_delay(64, 4)
    wakeup_after = wakeup.sequential_wakeup_delay(64, 4)
    energy_before = wakeup.broadcast_energy(64, 2.0)
    energy_after = wakeup.broadcast_energy(64, 1.0)
    access_before, access_after = regfile.paper_anchor()
    # Areas normalized to the conventional configuration.
    area_before = 1.0
    area_after = regfile.relative_area(160, 16) / regfile.relative_area(160, 24)
    result.rows = [
        ["fast-bus comparators / entry", 2, 1, -50.0],
        ["wakeup delay, 64 entries (ps)", wakeup_before, wakeup_after,
         pct(wakeup_before, wakeup_after)],
        ["broadcast energy (rel)", energy_before, energy_after,
         pct(energy_before, energy_after)],
        ["RF read ports (8-wide)", 16, 8, -50.0],
        ["RF access time (ns)", access_before, access_after,
         pct(access_before, access_after)],
        ["RF area (rel)", area_before, area_after, pct(area_before, area_after)],
        ["IPC, 4-wide (normalized)", 1.0, combined4, pct(1.0, combined4)],
        ["IPC, 8-wide (normalized)", 1.0, combined8, pct(1.0, combined8)],
    ]
    return result


#: Registry of ``repro experiment`` and the examples; every table it
#: prints is bounded by checks in :mod:`repro.analysis.validation`.
ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig6": fig6,
    "table3": table3,
    "fig7": fig7,
    "fig10": fig10,
    "fig14": fig14,
    "fig14-8w": partial(fig14, width=8),
    "fig15": fig15,
    "fig15-8w": partial(fig15, width=8),
    "fig16": fig16,
    "fig16-8w": partial(fig16, width=8),
    "timing": timing_claims,
    "cost": cost_summary,
    "predictors": predictor_designs,
    "ablation-predictor": sweeps.predictor_size_ablation,
    "ablation-window": sweeps.spec_window_ablation,
    "ablation-recovery": sweeps.recovery_ablation,
    "sweep-window": lambda runner: sweeps.window_size_sweep(runner, runner.benchmarks[0]),
    "sweep-width": lambda runner: sweeps.width_sweep(runner, runner.benchmarks[0]),
}
