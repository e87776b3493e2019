#!/usr/bin/env python3
"""Record a change's benchmark: perfbench medians against the parent's.

Runs ``perfbench/run.py`` on two fresh copies of the program, the base
revision and the change, in alternated pairs (base first in even pairs,
change first in odd ones, so drift in host speed hits both sides), and
writes one JSON file with, per workload and end-to-end metric, the
median and quartiles of each side, both scaled to reference host speed
and raw where perfbench prints the raw value, plus the pair count, the
number of pairs the change won, ``env/host_speed_factor``, the backend
and nproc.  ``cpu_s`` holds each side's median and quartiles of the CPU
seconds (user + system) that one perfbench run and the processes it
waited for used, so a CPU-bound change can be read apart from time the
host took from the vCPUs.  A run stops at ``run_seconds`` by whole passes,
so ``cpu_s`` also counts how many passes fit; ``cpu_ms_per_op`` divides
each run's CPU time by the operations it attempted (``attempted`` in
perfbench's JSON result) into a cost per operation, with the same median
and quartiles.  Both include the run's set-up: interpreter start, imports
and the work planned before timing starts.  After the pairs, one ``--trace 1`` pass per
side adds the per-layer rows (raw, as perfbench prints them) under
``layers``.  Run from the root of the checkout::

    python3 scripts/bench_record.py --out BENCH_<n>.json --workloads serve --pairs 10
    python3 scripts/bench_record.py --out BENCH_<n>.json --workloads regen,trace,fuzz

The change is the working tree (its tracked and untracked, not ignored
files) and the base defaults to ``HEAD``, so an uncommitted change is
measured against its parent; pass ``--base HEAD~1`` once it is
committed.  The base is exported with ``git archive`` and the change
copied, each into a fresh temporary directory, as the benchmark itself
runs them; every run lasts ``run_seconds`` from ``BENCHMARK.json``.  An
existing ``--out`` file keeps the workloads this run does not measure.
Exits 1 when any run reports a failed operation.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("regen", "serve", "trace", "fuzz")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_revision(revision: str, target: Path) -> str:
    """Unpack the committed files of *revision* into *target*; its sha."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True,
        capture_output=True,
    ).stdout
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)
    return _git("rev-parse", revision)


def copy_working_tree(target: Path) -> str:
    """Copy the working tree's tracked and untracked, not ignored files."""
    listing = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listing.split("\0")):
        source = ROOT / name
        if source.is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)
    dirty = bool(_git("status", "--porcelain"))
    return _git("rev-parse", "HEAD") + ("+working-tree" if dirty else "")


def parse_run(stdout: str) -> dict:
    """perfbench's output: the JSON result plus its labelled lines."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    labelled = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if not sep or not rest:
            continue
        value, _, tail = rest.partition(" ")
        raw = tail.rpartition("(measured ")[2].rstrip(")") if "(measured " in tail else None
        labelled[name] = (value, raw)
    return {"result": result, "labelled": labelled}


def raw_value(run: dict, workload: str, spec: dict, value: float) -> float | None:
    """The unscaled value of an end-to-end metric: the value itself when it
    is not a time (perfbench scales only times), else the raw value of the
    labelled line that prints it (named after it, or else the one whose
    scaled value it is), else None."""
    metric, labelled = spec["name"], run["labelled"]
    if spec["unit"] not in ("s", "ms"):
        return value
    candidates = [f"{workload}/{metric}", *labelled]
    for name in candidates:
        printed, raw = labelled.get(name, (None, None))
        try:
            matches = math.isclose(float(printed), value, rel_tol=1e-5)
        except (TypeError, ValueError):
            continue
        if matches:
            return float(raw) if raw is not None else value
    return None


def perfbench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} in {checkout} exited {completed.returncode}:\n"
                           f"{completed.stderr[-2000:]}")
    run = parse_run(completed.stdout)
    run["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return run


def cpu_ms_per_op(run: dict) -> float | None:
    """CPU milliseconds per attempted operation of one run, set-up included."""
    attempted = run["result"]["attempted"]
    return 1000 * run["cpu_s"] / attempted if attempted else None


def spread(values: list) -> dict | None:
    values = sorted(v for v in values if v is not None)
    if not values:
        return None
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(workload: str, runs: dict, end_to_end: list) -> dict:
    """Per-metric medians and quartiles of both sides, from paired runs."""
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        entry = {"unit": spec["unit"], "better": spec["better"]}
        values = {}
        for side, side_runs in runs.items():
            scaled = [run["result"]["metrics"][name]["value"] for run in side_runs]
            raw = [raw_value(run, workload, spec, v) for run, v in zip(side_runs, scaled)]
            values[side] = scaled
            entry[side] = {"scaled": spread(scaled), "raw": spread(raw)}
        entry["change_better_pairs"] = sum(
            (change < base) if lower else (change > base)
            for base, change in zip(values["base"], values["change"])
        )
        metrics[name] = entry
    first = runs["base"][0]["labelled"]
    return {
        "pairs": len(runs["base"]),
        "backend": first["env/backend"][0],
        "nproc": int(first["env/nproc"][0]),
        "host_speed_factor": {
            side: spread([float(run["labelled"]["env/host_speed_factor"][0])
                          for run in side_runs])
            for side, side_runs in runs.items()
        },
        "cpu_s": {side: spread([run["cpu_s"] for run in side_runs])
                  for side, side_runs in runs.items()},
        "cpu_ms_per_op": {side: spread([cpu_ms_per_op(run) for run in side_runs])
                          for side, side_runs in runs.items()},
        "failed": {
            side: sum(run["result"]["failed"] for run in side_runs)
            for side, side_runs in runs.items()
        },
        "correct": all(run["result"]["correct"] for side in runs.values() for run in side),
        "metrics": metrics,
    }


def layer_rows(traced: dict, per_layer: list) -> dict:
    """Each per-layer metric of one traced pass per side."""
    return {
        spec["name"]: {
            "unit": spec["unit"], "better": spec["better"],
            **{side: run["result"]["metrics"][spec["name"]]["value"]
               for side, run in traced.items()},
        }
        for spec in per_layer
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--pairs must be >= 1")

    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix="bench-record-"))
    try:
        checkouts = {"base": scratch / "base", "change": scratch / "change"}
        revisions = {"base": export_revision(args.base, checkouts["base"]),
                     "change": copy_working_tree(checkouts["change"])}
        benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = benchmark["run_seconds"]

        document = json.loads(args.out.read_text()) if args.out.is_file() else {}
        recorded = document.setdefault("workloads", {})
        for workload in workloads:
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    print(f"{workload} pair {pair + 1}/{args.pairs}: {side}",
                          file=sys.stderr, flush=True)
                    runs[side].append(
                        perfbench(checkouts[side], workload, args.seed, seconds))
            traced = {}
            for side in ("base", "change"):
                print(f"{workload} traced pass: {side}", file=sys.stderr, flush=True)
                traced[side] = perfbench(checkouts[side], workload, args.seed, seconds,
                                         trace=1)
            summary = summarize(workload, runs, benchmark["end_to_end"])
            summary["correct"] = summary["correct"] and all(
                run["result"]["correct"] for run in traced.values())
            recorded[workload] = {
                **revisions, "seed": args.seed, "seconds": seconds, **summary,
                "layers": layer_rows(traced, benchmark["per_layer"]),
            }
        args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {args.out}", file=sys.stderr)
    ok = all(recorded[w]["correct"] for w in workloads)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
