#!/usr/bin/env python3
"""Quickstart: assemble a kernel, run it functionally, then simulate timing.

Usage::

    python examples/quickstart.py [kernel] [--width {4,8}]

Shows the three layers of the library working together:

1. the HPRISC assembler + functional emulator execute a real program;
2. the cycle-level out-of-order processor replays the committed stream;
3. the half-price techniques are switched on for comparison.
"""

import argparse

from repro.isa.emulator import Emulator
from repro.pipeline import EIGHT_WIDE, FOUR_WIDE, SchedulerModel, RegFileModel, simulate
from repro.workloads import EmulatorFeed, KERNELS, kernel_program


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kernel", nargs="?", default="dotproduct", choices=sorted(KERNELS))
    parser.add_argument("--width", type=int, default=4, choices=(4, 8))
    args = parser.parse_args()

    program = kernel_program(args.kernel)
    print(f"kernel: {args.kernel} ({len(program)} static instructions)")

    # Layer 1: architectural execution.
    emulator = Emulator(program)
    steps = emulator.run()
    print(f"functional emulation: {steps} instructions, r1 = {emulator.read_reg(1)}")

    # Layer 2: cycle-level timing on the base machine.
    base_config = FOUR_WIDE if args.width == 4 else EIGHT_WIDE
    feed = EmulatorFeed(program, name=args.kernel)
    base = simulate(feed, base_config, max_insts=10**6, warmup=0)
    stats = base.stats
    print(f"\nbase {base_config.name} machine:")
    print(f"  cycles={stats.cycles}  committed={stats.committed}  IPC={stats.ipc:.3f}")
    print(f"  branch mispredict rate: {stats.branch_mispredict_rate:.1%}")
    print(f"  load-miss replays: {stats.load_miss_replays}")
    print(f"  2-source instructions dispatched: {stats.two_source_dispatched}")

    # Layer 3: the half-price machine (both techniques).
    halfprice_config = base_config.with_techniques(
        scheduler=SchedulerModel.SEQ_WAKEUP, regfile=RegFileModel.SEQUENTIAL
    )
    halfprice = simulate(feed, halfprice_config, max_insts=10**6, warmup=0)
    delta = (base.ipc - halfprice.ipc) / base.ipc if base.ipc else 0.0
    print(f"\nhalf-price machine ({halfprice_config.name}):")
    print(f"  IPC={halfprice.ipc:.3f}  ({delta:+.2%} vs base)")
    print(f"  sequential register accesses: {halfprice.stats.sequential_rf_accesses}")
    print("\nThe half-price machine halves wakeup-bus load and register read")
    print("ports; the IPC cost above is what the paper argues is negligible.")


if __name__ == "__main__":
    main()
