#!/usr/bin/env python3
"""Compare every half-price technique against the base machine (Figs 14-16).

Usage::

    python examples/halfprice_comparison.py [--benchmarks bzip,mcf,...]
                                            [--width {4,8}] [--insts N]

Runs the synthetic SPEC CINT2000 clones on the base machine and on each
technique variant, printing normalized IPC — a condensed view of the
paper's Figures 14, 15 and 16.
"""

import argparse

from repro.analysis.runner import ExperimentRunner
from repro.pipeline import EIGHT_WIDE, FOUR_WIDE, RegFileModel, SchedulerModel
from repro.workloads import SPEC_BENCHMARKS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmarks", default="bzip,crafty,mcf,perl")
    parser.add_argument("--width", type=int, default=4, choices=(4, 8))
    parser.add_argument("--insts", type=int, default=10_000)
    parser.add_argument("--warmup", type=int, default=15_000)
    args = parser.parse_args()

    names = tuple(b for b in args.benchmarks.split(",") if b in SPEC_BENCHMARKS)
    runner = ExperimentRunner(insts=args.insts, warmup=args.warmup, benchmarks=names)
    base = FOUR_WIDE if args.width == 4 else EIGHT_WIDE

    variants = {
        "seq wakeup (pred)": base.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP),
        "seq wakeup (nopred)": base.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, predictor_entries=None
        ),
        "tag elimination": base.with_techniques(scheduler=SchedulerModel.TAG_ELIM),
        "seq RF access": base.with_techniques(regfile=RegFileModel.SEQUENTIAL),
        "1 extra RF stage": base.with_techniques(regfile=RegFileModel.EXTRA_STAGE),
        "reg + crossbar": base.with_techniques(regfile=RegFileModel.CROSSBAR),
        "combined": base.with_techniques(
            scheduler=SchedulerModel.SEQ_WAKEUP, regfile=RegFileModel.SEQUENTIAL
        ),
    }

    for name in names:
        base_ipc = runner.base(name, args.width).ipc
        print(f"\n{name}: base IPC {base_ipc:.3f} ({base.name})")
        print("  normalized IPC (1.0 = base)")
        for label, config in variants.items():
            print(f"    {label:22s} {runner.normalized_ipc(name, config):.3f}")

    print("\naverages across selected benchmarks:")
    for label, config in variants.items():
        values = [runner.normalized_ipc(name, config) for name in names]
        mean = sum(values) / len(values)
        print(f"  {label:22s} {mean:.4f}  ({mean - 1.0:+.2%})")


if __name__ == "__main__":
    main()
