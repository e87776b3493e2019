"""Validation scorecard: does the reproduction preserve the paper's shapes?

Each check encodes one conclusion of the paper as a testable predicate
over the regenerated experiments, and is the only bound on that claim:
``benchmarks/bench_claims.py`` asserts every check at whatever run size
the runner is configured for.  The scorecard is the automated version of
EXPERIMENTS.md's judgement column: absolute values differ (synthetic
workloads, see DESIGN.md §3) but the *direction and rough magnitude* of
every claim must hold.  A check's name starts with the
``experiments.ALL_EXPERIMENTS`` id of the table it reads, and its detail
states the measured value, the bound and the paper's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis import experiments, sweeps
from repro.analysis.report import ExperimentResult
from repro.analysis.runner import SHADOW_SIZES, ExperimentRunner


@dataclass(frozen=True)
class Check:
    """One shape check."""

    name: str
    paper_claim: str
    predicate: Callable[[ExperimentRunner], tuple[bool, str]]


def _benchmark_rows(result: ExperimentResult) -> list[list]:
    return [row for row in result.rows if row[0] != "average"]


def _lowest(rows: list[list], value: Callable[[list], float]) -> tuple[float, str]:
    """The smallest ``value(row)`` over *rows*, with its benchmark."""
    row = min(rows, key=value)
    return value(row), row[0]


def _averages(figure, runner, column: str) -> dict[int, float]:
    """The average row's *column* of a Figure 14-16 table at 4 and 8 wide."""
    averages = {}
    for width in (4, 8):
        result = figure(runner, width)
        averages[width] = result.row_for("average")[result.headers.index(column)]
    return averages


def _row_sum_error(result: ExperimentResult, first: int, last: int) -> float:
    """Largest distance from 100 of a row's percentages ``row[first:last]``."""
    return max(abs(sum(row[first:last]) - 100.0) for row in result.rows)


# ----------------------------------------------------------------------
# Tables 1-3, Figures 2-10: the characterization.
# ----------------------------------------------------------------------
def _check_table1(runner) -> tuple[bool, str]:
    result = experiments.table1(runner)
    ruu = result.row_for("RUU entries")[1:]
    ports = result.row_for("memory ports")[1:]
    ok = ruu == [64, 128] and ports == [2, 4]
    return ok, f"RUU {ruu}, memory ports {ports} (bound = paper: [64, 128], [2, 4])"


def _check_table2_ordering(runner) -> tuple[bool, str]:
    result = experiments.table2(runner)
    ipc4 = {row[0]: row[2] for row in result.rows}
    if "mcf" not in ipc4 or len(ipc4) < 2:
        return True, "subset without mcf: skipped"
    others = min(v for k, v in ipc4.items() if k != "mcf")
    ok = ipc4["mcf"] < others
    return ok, (
        f"mcf={ipc4['mcf']:.2f} vs min(others)={others:.2f} "
        "(bound mcf < min; paper 0.71 vs 1.24)"
    )


def _check_table2_widths(runner) -> tuple[bool, str]:
    result = experiments.table2(runner)
    ok = all(row[4] >= row[2] * 0.9 for row in result.rows)
    ratio, name = _lowest(result.rows, lambda row: row[4] / row[2])
    return ok, (
        f"lowest ipc8/ipc4 {ratio:.3f} ({name}) "
        "(bound >= 0.9; paper lowest 1.14, twolf)"
    )


def _check_fig2_band(runner) -> tuple[bool, str]:
    values = experiments.fig2(runner).column("%2src-format")
    ok = all(5.0 <= v <= 45.0 for v in values)
    return ok, (
        f"range {min(values):.1f}..{max(values):.1f}% (bound 5..45%; paper 18..36%)"
    )


def _check_fig2_stores(runner) -> tuple[bool, str]:
    values = experiments.fig2(runner).column("%stores")
    ok = all(2.0 <= v <= 20.0 for v in values)
    return ok, (
        f"stores {min(values):.1f}..{max(values):.1f}% "
        "(bound 2..20%; paper plots them as their own bar)"
    )


def _check_fig3_two_source(runner) -> tuple[bool, str]:
    values = experiments.fig3(runner).column("%2-source")
    ok = all(2.0 <= v <= 30.0 for v in values)
    return ok, (
        f"2-source {min(values):.1f}..{max(values):.1f}% (bound 2..30%; paper 6..23%)"
    )


def _check_fig3_demoted(runner) -> tuple[bool, str]:
    result = experiments.fig3(runner)
    demoted, name = _lowest(result.rows, lambda row: row[2])
    return demoted > 0.0, (
        f"fewest demoted {demoted:.1f}% ({name}) "
        "(bound > 0%; paper: zero-register and duplicate demotions on every benchmark)"
    )


def _check_fig4_uncommon(runner) -> tuple[bool, str]:
    values = experiments.fig4(runner).column("%0-ready(4w)")
    mean = sum(values) / len(values)
    ok = max(values) <= 40.0 and mean <= 25.0
    return ok, (
        f"0-ready mean {mean:.1f}%, max {max(values):.1f}% "
        "(bound mean <= 25%, max <= 40%; paper 4..16%)"
    )


def _check_fig4_rows(runner) -> tuple[bool, str]:
    error = _row_sum_error(experiments.fig4(runner), 1, 4)
    return error <= 0.5, (
        f"0/1/2-ready rows sum to 100 within {error:.3f} pp "
        "(bound <= 0.5 pp; paper: a 100% breakdown)"
    )


def _check_fig6_simultaneous(runner) -> tuple[bool, str]:
    values = experiments.fig6(runner).column("%slack0(simult)")
    mean = sum(values) / len(values)
    # The paper's basis: simultaneous wakeups as a share of all committed
    # instructions, on every benchmark.
    of_all = {}
    for name in runner.benchmarks:
        stats = runner.base(name, 4).stats
        of_all[name] = 100.0 * stats.wakeup_slack[0] / max(1, stats.committed)
    worst = max(of_all, key=of_all.get)
    ok = mean <= 25.0 and of_all[worst] <= 3.0
    return ok, (
        f"simultaneous mean {mean:.1f}% of 2-pending, max {of_all[worst]:.2f}% "
        f"of all insts ({worst}) (bound <= 25% of 2-pending, <= 3% of all; "
        "paper <3% of all insts)"
    )


def _check_fig6_rows(runner) -> tuple[bool, str]:
    error = _row_sum_error(experiments.fig6(runner), 1, 5)
    return error <= 0.5, (
        f"slack rows sum to 100 within {error:.3f} pp "
        "(bound <= 0.5 pp; paper: a 100% breakdown)"
    )


def _check_table3_stability(runner) -> tuple[bool, str]:
    values = experiments.table3(runner).column("%same(4w)")
    mean = sum(values) / len(values)
    return mean >= 60.0, f"same-order mean {mean:.1f}% (bound >= 60%; paper ~90%)"


def _check_table3_left(runner) -> tuple[bool, str]:
    values = experiments.table3(runner).column("%left(4w)")
    ok = all(0.0 <= v <= 100.0 for v in values)
    return ok, (
        f"left share {min(values):.1f}..{max(values):.1f}% "
        "(bound 0..100%; paper 28.5..72.9%)"
    )


def _accuracies(row: list) -> list:
    return row[1 : 1 + len(SHADOW_SIZES)]


def _check_fig7_accuracy(runner) -> tuple[bool, str]:
    rows = experiments.fig7(runner).rows
    accuracy, name = _lowest(rows, lambda row: min(_accuracies(row)))
    return accuracy >= 45.0, (
        f"lowest accuracy {accuracy:.1f}% ({name}) "
        "(bound >= 45% at every size; paper: high at every size)"
    )


def _check_fig7_size_trend(runner) -> tuple[bool, str]:
    rows = experiments.fig7(runner).rows
    gain, name = _lowest(rows, lambda row: _accuracies(row)[-1] - _accuracies(row)[0])
    return gain >= -8.0, (
        f"worst 4096e - 128e accuracy {gain:+.1f} pp ({name}) "
        "(bound >= -8 pp; paper: flat, aliasing only hurts)"
    )


def _check_fig10_rare(runner) -> tuple[bool, str]:
    values = experiments.fig10(runner).column("%needs-2-reads")
    mean = sum(values) / len(values)
    ok = mean <= 8.0 and max(values) <= 15.0
    return ok, (
        f"needs-2-reads mean {mean:.1f}%, max {max(values):.1f}% "
        "(bound mean <= 8%, max <= 15%; paper <4%)"
    )


# ----------------------------------------------------------------------
# Figures 14-16: the performance evaluation, both widths.
# ----------------------------------------------------------------------
def _check_fig14_seq_wakeup(runner) -> tuple[bool, str]:
    seq = _averages(experiments.fig14, runner, "seq wakeup")
    ok = seq[4] >= 0.97 and seq[8] >= 0.95
    return ok, (
        f"seq wakeup 4w {seq[4]:.4f}, 8w {seq[8]:.4f} "
        "(bound >= 0.97, >= 0.95; paper 0.996, 0.994)"
    )


def _check_fig14_nopred(runner) -> tuple[bool, str]:
    nopred = _averages(experiments.fig14, runner, "seq wakeup nopred")
    ok = min(nopred.values()) >= 0.90
    return ok, (
        f"no-predictor 4w {nopred[4]:.4f}, 8w {nopred[8]:.4f} "
        "(bound >= 0.90; paper 0.984, 0.974)"
    )


def _check_fig14_predictor(runner) -> tuple[bool, str]:
    seq = _averages(experiments.fig14, runner, "seq wakeup")
    nopred = _averages(experiments.fig14, runner, "seq wakeup nopred")
    gain = {width: seq[width] - nopred[width] for width in seq}
    ok = min(gain.values()) >= -0.02
    return ok, (
        f"seq - nopred 4w {gain[4]:+.4f}, 8w {gain[8]:+.4f} "
        "(bound >= -0.02; paper +0.012, +0.020)"
    )


def _check_fig14_tag_elim(runner) -> tuple[bool, str]:
    seq = _averages(experiments.fig14, runner, "seq wakeup")
    tag = _averages(experiments.fig14, runner, "tag elim")
    margin = {width: seq[width] - tag[width] for width in seq}
    ok = min(margin.values()) >= -0.01
    return ok, (
        f"seq - tag elim 4w {margin[4]:+.4f}, 8w {margin[8]:+.4f} "
        "(bound >= -0.01; paper: tag elim worse, down to 0.894)"
    )


def _check_fig15_seq_rf(runner) -> tuple[bool, str]:
    seq = _averages(experiments.fig15, runner, "seq RF access")
    ok = seq[4] >= 0.97 and seq[8] >= 0.95
    return ok, (
        f"seq RF 4w {seq[4]:.4f}, 8w {seq[8]:.4f} "
        "(bound >= 0.97, >= 0.95; paper 0.989, 0.993)"
    )


def _check_fig15_crossbar(runner) -> tuple[bool, str]:
    crossbar = _averages(experiments.fig15, runner, "reg + crossbar")
    ok = min(crossbar.values()) >= 0.95
    return ok, (
        f"crossbar 4w {crossbar[4]:.4f}, 8w {crossbar[8]:.4f} "
        "(bound >= 0.95; paper ~1.00)"
    )


def _check_fig15_extra_stage(runner) -> tuple[bool, str]:
    stage = _averages(experiments.fig15, runner, "1 extra RF stage")
    ok = min(stage.values()) >= 0.90
    return ok, (
        f"extra stage 4w {stage[4]:.4f}, 8w {stage[8]:.4f} "
        "(bound >= 0.90; paper ~0.99)"
    )


def _check_fig16_combined(runner) -> tuple[bool, str]:
    combined = _averages(experiments.fig16, runner, "combined")
    ok = 0.93 <= combined[4] <= 1.005 and combined[8] >= 0.90
    return ok, (
        f"combined 4w {combined[4]:.4f}, 8w {combined[8]:.4f} "
        "(bound 0.93..1.005, >= 0.90; paper 0.978 average)"
    )


def _check_fig16_worst(runner) -> tuple[bool, str]:
    worst = {
        width: _lowest(_benchmark_rows(experiments.fig16(runner, width)), lambda row: row[1])
        for width in (4, 8)
    }
    ok = min(value for value, _ in worst.values()) >= 0.85
    (value4, name4), (value8, name8) = worst[4], worst[8]
    return ok, (
        f"worst 4w {value4:.4f} ({name4}), 8w {value8:.4f} ({name8}) "
        "(bound >= 0.85; paper worst 0.952, bzip 8w)"
    )


# ----------------------------------------------------------------------
# Circuit claims, the cost summary and the predictor designs.
# ----------------------------------------------------------------------
def _check_timing(runner) -> tuple[bool, str]:
    rows = experiments.timing_claims(runner).rows
    worst = max(abs(measured - paper) / paper for _, measured, paper in rows)
    return worst < 0.01, (
        f"max relative error {worst:.3%} vs the paper's six numbers (bound < 1%)"
    )


def _check_cost_hardware(runner) -> tuple[bool, str]:
    change = {row[0]: row[3] for row in experiments.cost_summary(runner).rows}
    wakeup = change["wakeup delay, 64 entries (ps)"]
    access = change["RF access time (ns)"]
    area = change["RF area (rel)"]
    ok = wakeup < -15.0 and access < -15.0 and area < -30.0
    return ok, (
        f"wakeup delay {wakeup:+.1f}%, RF access {access:+.1f}%, RF area {area:+.1f}% "
        "(bound < -15%, < -15%, < -30%; paper -19.7%, -20.5%, no area figure)"
    )


def _check_cost_ipc(runner) -> tuple[bool, str]:
    change = {row[0]: row[3] for row in experiments.cost_summary(runner).rows}
    ipc4 = change["IPC, 4-wide (normalized)"]
    ipc8 = change["IPC, 8-wide (normalized)"]
    ok = ipc4 > -8.0 and ipc8 > -8.0
    return ok, (
        f"IPC 4w {ipc4:+.2f}%, 8w {ipc8:+.2f}% (bound > -8%; paper -2.2% average)"
    )


def _check_predictors_competitive(runner) -> tuple[bool, str]:
    rows = experiments.predictor_designs(runner).rows
    margin, name = _lowest(rows, lambda row: row[1] - max(row[2], row[3]))
    return margin >= -6.0, (
        f"worst bimodal - best of two-level/gshare {margin:+.1f} pp ({name}) "
        "(bound >= -6 pp; paper: bimodal matches them)"
    )


def _check_predictors_static(runner) -> tuple[bool, str]:
    rows = experiments.predictor_designs(runner).rows
    margin, name = _lowest(rows, lambda row: row[1] - row[4])
    return margin >= -3.0, (
        f"worst bimodal - static-right {margin:+.1f} pp ({name}) "
        "(bound >= -3 pp; paper: a trained predictor beats static placement)"
    )


# ----------------------------------------------------------------------
# Ablations and sweeps beyond the paper's figures.
# ----------------------------------------------------------------------
def _check_ablation_predictor(runner) -> tuple[bool, str]:
    spreads = {row[0]: max(row[1:]) - min(row[1:])
               for row in sweeps.predictor_size_ablation(runner).rows}
    name = max(spreads, key=spreads.get)
    return spreads[name] < 0.06, (
        f"largest spread over sizes and nopred {spreads[name]:.4f} ({name}) "
        "(bound < 0.06; paper 0.012 between 1k and nopred, 4w)"
    )


def _check_ablation_window(runner) -> tuple[bool, str]:
    rows = sweeps.spec_window_ablation(runner).rows
    margin, name = _lowest(rows, lambda row: row[1] - row[3])
    return margin >= -0.05, (
        f"worst window=1 - window=3 {margin:+.4f} ({name}) "
        "(bound >= -0.05; beyond the paper: a longer shadow only squashes more)"
    )


def _check_ablation_recovery(runner) -> tuple[bool, str]:
    rows = sweeps.recovery_ablation(runner).rows
    margin, name = _lowest(rows, lambda row: row[2] - row[1])
    return margin >= -0.05, (
        f"worst selective - non-selective {margin:+.4f} ({name}) "
        "(bound >= -0.05; paper §3.1: compatible with selective recovery)"
    )


def _check_sweep_window(runner) -> tuple[bool, str]:
    rows = experiments.ALL_EXPERIMENTS["sweep-window"](runner).rows
    value, size = _lowest(rows, lambda row: row[3])
    return value >= 0.9, (
        f"lowest seq wakeup normalized {value:.4f} (window {size}) "
        "(bound >= 0.9; beyond the paper, which fixes 64/128)"
    )


def _check_sweep_width(runner) -> tuple[bool, str]:
    rows = experiments.ALL_EXPERIMENTS["sweep-width"](runner).rows
    value, width = _lowest(rows, lambda row: row[2])
    return value >= 0.9, (
        f"lowest seq wakeup normalized {value:.4f} (width {width}) "
        "(bound >= 0.9; paper 0.996, 0.994 at 4, 8 wide)"
    )


ALL_CHECKS: tuple[Check, ...] = (
    Check("table1-configs", "Table 1: 64/128 RUU entries, 2/4 memory ports", _check_table1),
    Check("table2-mcf-slowest", "mcf is the lowest-IPC benchmark", _check_table2_ordering),
    Check("table2-8w-not-slower", "8-wide is faster on every benchmark", _check_table2_widths),
    Check("fig2-band", "18~36% of instructions are 2-source-format", _check_fig2_band),
    Check("fig2-stores", "stores are a separate, minor category", _check_fig2_stores),
    Check("fig3-two-source", "6~23% of instructions are true 2-source", _check_fig3_two_source),
    Check("fig3-demoted", "zero/duplicate sources demote some instructions", _check_fig3_demoted),
    Check("fig4-uncommon", "few 2-source insts have 0 ready operands", _check_fig4_uncommon),
    Check("fig4-rows-sum", "0/1/2-ready is a complete breakdown", _check_fig4_rows),
    Check("fig6-simultaneous-rare", "simultaneous wakeups are rare", _check_fig6_simultaneous),
    Check("fig6-rows-sum", "slack 0/1/2/3+ is a complete breakdown", _check_fig6_rows),
    Check("table3-order-stable", "~90% repeat their previous wakeup order",
          _check_table3_stability),
    Check("table3-left-split", "last-arriving side split is a share", _check_table3_left),
    Check("fig7-accuracy", "a bimodal last-arriving predictor is accurate", _check_fig7_accuracy),
    Check("fig7-size-trend", "accuracy is flat in table size", _check_fig7_size_trend),
    Check("fig10-rare", "<4% of insts need two RF port reads", _check_fig10_rare),
    Check("fig14-seq-wakeup", "seq wakeup costs ~0.4%/0.6% IPC", _check_fig14_seq_wakeup),
    Check("fig14-nopred", "without a predictor it costs 1.6%/2.6%", _check_fig14_nopred),
    Check("fig14-predictor-helps", "the predictor does not hurt", _check_fig14_predictor),
    Check("fig14-vs-tag-elim", "seq wakeup >= tag elim on average", _check_fig14_tag_elim),
    Check("fig15-seq-rf", "seq register access costs ~1.1%/0.7% IPC", _check_fig15_seq_rf),
    Check("fig15-crossbar", "crossbar arbitration rarely binds", _check_fig15_crossbar),
    Check("fig15-extra-stage", "an extra RF stage costs only depth", _check_fig15_extra_stage),
    Check("fig16-combined", "combined techniques cost ~2.2% IPC", _check_fig16_combined),
    Check("fig16-worst-case", "no benchmark loses much (worst 4.8%)", _check_fig16_worst),
    Check("timing-anchors", "466->374 ps wakeup; 1.71->1.36 ns RF", _check_timing),
    Check("cost-hardware-savings", "halving structures saves delay and area", _check_cost_hardware),
    Check("cost-ipc-paid", "for an IPC cost in single percents", _check_cost_ipc),
    Check("predictors-bimodal-competitive", "bimodal matches sophisticated designs",
          _check_predictors_competitive),
    Check("predictors-beats-static", "training beats static placement", _check_predictors_static),
    Check("ablation-predictor-flat", "IPC is insensitive to predictor size",
          _check_ablation_predictor),
    Check("ablation-window-shadow", "a longer replay shadow does not help",
          _check_ablation_window),
    Check("ablation-recovery-selective", "seq wakeup composes with selective recovery",
          _check_ablation_recovery),
    Check("sweep-window-flat", "seq wakeup cost stays flat in window size", _check_sweep_window),
    Check("sweep-width-flat", "seq wakeup cost stays flat in machine width", _check_sweep_width),
)


def scorecard(runner: ExperimentRunner) -> ExperimentResult:
    """Run every shape check; returns a PASS/FAIL table."""
    result = ExperimentResult(
        "Scorecard",
        "Shape-preservation checks against the paper's conclusions",
        ["check", "verdict", "detail", "paper claim"],
    )
    # The checks share the base-machine runs; resolve them all through the
    # parallel engine before any check starts pulling results one by one.
    runner.prefetch_base()
    for check in ALL_CHECKS:
        ok, detail = check.predicate(runner)
        result.rows.append(
            [check.name, "PASS" if ok else "FAIL", detail, check.paper_claim]
        )
    return result
