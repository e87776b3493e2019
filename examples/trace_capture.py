#!/usr/bin/env python3
"""Capture a workload to a binary tracefile and replay it.

Usage::

    python examples/trace_capture.py [--benchmark gcc] [--ops 20000]

Shows the tracefile workflow: generate once, persist, replay across
machine variants with bit-identical inputs (useful for sharing inputs or
isolating the generator's cost from the simulator's).  The file is the
same versioned ``.hpt`` container ``repro trace capture`` writes; see
docs/TRACES.md.
"""

import argparse
import os
import tempfile
import time

from repro.pipeline import FOUR_WIDE, SchedulerModel, simulate
from repro.trace import TraceFeed, capture_stream
from repro.workloads import SPEC_BENCHMARKS, SyntheticWorkload, get_profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="gcc", choices=SPEC_BENCHMARKS)
    parser.add_argument("--ops", type=int, default=20_000)
    args = parser.parse_args()

    workload = SyntheticWorkload(get_profile(args.benchmark), seed=42)
    path = os.path.join(tempfile.gettempdir(), f"{args.benchmark}.hpt")

    start = time.time()
    header = capture_stream(workload, path, name=args.benchmark, limit=args.ops)
    size_kb = os.path.getsize(path) / 1024
    print(f"captured {header['insts']} ops to {path} ({size_kb:.0f} KiB) "
          f"in {time.time() - start:.2f}s")

    feed = TraceFeed(path)
    budget = args.ops // 3
    base = simulate(feed, FOUR_WIDE, max_insts=budget, warmup=budget)
    seq = simulate(
        feed,
        FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP),
        max_insts=budget, warmup=budget,
    )
    print(f"replayed on base:        IPC={base.ipc:.3f}")
    print(f"replayed on seq wakeup:  IPC={seq.ipc:.3f} "
          f"({seq.ipc / base.ipc - 1:+.2%})")
    print("\nThe tracefile pins the exact dynamic instruction stream, so")
    print("machine comparisons are input-identical by construction.")


if __name__ == "__main__":
    main()
