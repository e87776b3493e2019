#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the checkout root::

    python3 perfbench/run.py --workload regen --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with spans around
every layer call and prints the per-layer metrics instead.  Labelled
``<workload>/<metric> = value unit`` lines come first; the last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile

from common import ROOT, SRC, WORK_ROOT, Context, per_layer_units

WORKLOADS = ("regen", "serve", "trace", "fuzz")
#: workload name -> module (``trace`` would shadow the standard library)
MODULES = {"regen": "regen", "serve": "serve", "trace": "traces", "fuzz": "fuzz"}


def _terminate(signum, _frame):
    # Turn SIGTERM into an exception so every ``finally`` stops the
    # processes it started.
    raise SystemExit(128 + signum)


def _hermetic(work) -> None:
    """Drop inherited ``REPRO_*`` knobs and keep every temporary file and
    default result store inside this run's scratch directory."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    # Nothing should fall back to the default store; if something does, it
    # lands here and not in the repository's results/cache/.
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-store")


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program sources under {SRC} (or no BENCHMARK.json); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())

    signal.signal(signal.SIGTERM, _terminate)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        _hermetic(work)
        sys.path.insert(0, str(SRC))
        from repro.fastsim import resolve_backend

        module = importlib.import_module(MODULES[args.workload])
        ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                      work=work)
        ctx.speed.start()
        try:
            outcome = module.run(ctx, expected.get(args.workload, {}))
        finally:
            ctx.speed.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    # End-to-end times are reported at reference host speed (see
    # common.HostSpeed); per-layer times of the traced pass stay raw.
    lines = [
        ("env/backend", resolve_backend(), ""),
        ("env/nproc", os.cpu_count(), ""),
        ("env/python", platform.python_version(), ""),
        ("env/host_speed_factor", ctx.speed.factor(), ""),
        ("env/host_speed_samples", len(ctx.speed.samples), ""),
        *outcome.lines,
        (f"{args.workload}/failed", f"{outcome.failed}/{outcome.attempted}", "ops"),
    ]
    for name, value, unit in lines:
        if isinstance(value, tuple):
            scaled, measured = value
            print(f"{name} = {_format(scaled)} {unit} (measured {_format(measured)})")
        else:
            print(f"{name} = {_format(value)} {unit}".rstrip())
    if args.trace:
        units = per_layer_units()
        for name, value in outcome.metrics.items():
            print(f"{args.workload}/{name} = {_format(value)} {units.get(name, '')}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
        print(f"FAILED: {problem}", file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"error: workload did not report {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
