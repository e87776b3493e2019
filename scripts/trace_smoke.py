#!/usr/bin/env python
"""CI smoke test for the trace subsystem (see docs/TRACES.md).

End to end, from source, with no committed fixtures trusted blindly:

1. recaptures one committed corpus tracefile and asserts bit-identity
   with the checked-in file (capture determinism / corpus drift);
2. replays a committed trace through python and, when the extension is
   built, native, and asserts the serialized statistics are
   byte-identical;
3. captures the uncommitted 1M-instruction scale trace
   (``vector_sum_1m``) and proves the acceptance bound: SimPoint-style
   sampled simulation touches <= 10% of the instructions while landing
   within 2% of the full-trace weighted IPC.

Artifacts (sampling report + summary JSON) land in
``trace-smoke-artifacts/`` for CI to upload.

Run from the repository root:  PYTHONPATH=src python scripts/trace_smoke.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.analysis.cache import serialize_result  # noqa: E402
from repro.fastsim import apply_backend, available_backends, make_processor  # noqa: E402
from repro.pipeline.config import FOUR_WIDE  # noqa: E402
from repro.trace import (  # noqa: E402
    CORPUS_BY_NAME,
    TraceFeed,
    capture_corpus_entry,
    corpus_path,
    simulate_sampled,
)

ARTIFACTS = Path(os.environ.get("TRACE_SMOKE_ARTIFACTS", "trace-smoke-artifacts"))

#: The committed trace used for the drift and parity legs.
PARITY_TRACE = "sieve_105k"
#: The acceptance-bound trace (not committed; captured here from source).
SCALE_TRACE = "vector_sum_1m"
MAX_COVERAGE = 0.10
MAX_ERROR = 0.02


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    summary: dict = {"backends": list(available_backends())}
    print(f"installed backends: {', '.join(summary['backends'])}")
    scratch = Path(tempfile.mkdtemp(prefix="trace-smoke-"))

    # -- 1. capture determinism vs the committed corpus file ------------
    committed = corpus_path(PARITY_TRACE)
    if not committed.is_file():
        fail(f"committed corpus file missing: {committed}")
    fresh = scratch / committed.name
    capture_corpus_entry(CORPUS_BY_NAME[PARITY_TRACE], fresh)
    if fresh.read_bytes() != committed.read_bytes():
        fail(f"{PARITY_TRACE}: fresh capture differs from the committed file")
    print(f"capture determinism: {PARITY_TRACE} matches the committed bytes")

    # -- 2. cross-backend byte parity on a full trace replay ------------
    feed = TraceFeed(committed)
    blobs = {}
    for backend in summary["backends"]:
        config = apply_backend(FOUR_WIDE, backend)
        processor = make_processor(feed, config, backend=backend)
        result = processor.run(max_insts=len(feed.ops))
        blobs[backend] = json.dumps(serialize_result(result), sort_keys=True)
        print(f"full replay [{backend}]: IPC {result.ipc:.4f}")
    if len(set(blobs.values())) != 1:
        fail("serialized stats differ across backends")
    summary["parity"] = {"trace": PARITY_TRACE, "insts": len(feed.ops)}
    print(f"cross-backend parity: {len(blobs)} backend(s) byte-identical")

    # -- 3. the acceptance bound at 1M-instruction scale ----------------
    backend = summary["backends"][-1]  # native when built, else python
    config = apply_backend(FOUR_WIDE, backend)
    scale_path = scratch / f"{SCALE_TRACE}.hpt"
    header = capture_corpus_entry(CORPUS_BY_NAME[SCALE_TRACE], scale_path)
    if header["insts"] < 1_000_000:
        fail(f"{SCALE_TRACE} is only {header['insts']} instructions")
    scale = TraceFeed(scale_path)
    full = make_processor(scale, config, backend=backend).run(max_insts=len(scale.ops))
    report = simulate_sampled(scale, config)
    error = abs(report["weighted_ipc"] - full.ipc) / full.ipc
    summary["scale"] = {
        "trace": SCALE_TRACE,
        "backend": backend,
        "insts": header["insts"],
        "full_ipc": full.ipc,
        "weighted_ipc": report["weighted_ipc"],
        "error": error,
        "coverage": report["coverage"],
    }
    print(
        f"sampled [{backend}]: weighted IPC {report['weighted_ipc']:.4f} vs "
        f"full {full.ipc:.4f}  (err {100 * error:.2f}%, "
        f"coverage {report['coverage']:.3f})"
    )

    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    (ARTIFACTS / "sampling-report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    (ARTIFACTS / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    if report["coverage"] > MAX_COVERAGE:
        fail(f"coverage {report['coverage']:.3f} > {MAX_COVERAGE}")
    if error > MAX_ERROR:
        fail(f"sampled IPC error {100 * error:.2f}% > {100 * MAX_ERROR}%")
    print("OK: trace smoke passed")


if __name__ == "__main__":
    main()
