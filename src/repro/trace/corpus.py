"""The shipped trace corpus: named, reproducible real-workload traces.

Every entry is a kernel run captured to a tracefile under
``workloads/traces/`` (override with ``REPRO_TRACE_DIR``).  Capture is
byte-deterministic — the emulator is deterministic and the tracefile
format carries no timestamps — so ``scripts/make_corpus.py`` regenerates
the committed files bit-for-bit and CI verifies the corpus matches its
source.

Committed entries are sized around 60–110k dynamic instructions each:
long enough that sampled simulation is meaningfully cheaper than a full
run, small enough that the compressed files stay a few tens of KB.  The
``vector_sum_1m`` entry (≥1M instructions) is *not* committed; the CI
trace-smoke job captures it from source to prove the sampling accuracy
bound at scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.cache import repo_root
from repro.trace.capture import capture_kernel
from repro.trace.feed import TraceFeed, trace_info
from repro.trace.format import TraceFormatError


@dataclass(frozen=True)
class CorpusEntry:
    """One named corpus workload: a kernel and its capture parameters."""

    name: str
    kernel: str
    kwargs: dict = field(default_factory=dict)
    committed: bool = True
    note: str = ""


#: The corpus, in listing order.
CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "vector_sum_80k", "vector_sum", {"n": 16_000},
        note="streaming loads, regular loop",
    ),
    CorpusEntry(
        "dotproduct_96k", "dotproduct", {"n": 12_000},
        note="two-source multiply-accumulate",
    ),
    CorpusEntry(
        "sieve_105k", "sieve", {"n": 5_000},
        note="nested loops, strided stores",
    ),
    CorpusEntry(
        "strsearch_76k", "strsearch", {"n": 4_000},
        note="data-dependent inner-loop exits",
    ),
    CorpusEntry(
        "hash_probe_71k", "hash_probe", {"n": 6_000},
        note="randomized table probes",
    ),
    CorpusEntry(
        "bubble_sort_104k", "bubble_sort", {"n": 160},
        note="quadratic compare/swap phases",
    ),
    CorpusEntry(
        "vector_sum_1m", "vector_sum", {"n": 200_000},
        committed=False,
        note="1M-instruction scale proof (captured by CI, not committed)",
    ),
)

CORPUS_BY_NAME: dict[str, CorpusEntry] = {entry.name: entry for entry in CORPUS}


def corpus_dir() -> Path:
    """Where corpus tracefiles live (``REPRO_TRACE_DIR`` overrides)."""
    env = os.environ.get("REPRO_TRACE_DIR", "")
    if env:
        return Path(env)
    return repo_root() / "workloads" / "traces"


def corpus_path(entry: CorpusEntry | str) -> Path:
    name = entry.name if isinstance(entry, CorpusEntry) else entry
    return corpus_dir() / f"{name}.hpt"


def capture_corpus_entry(entry: CorpusEntry, path: Path | None = None) -> dict:
    """(Re)capture one corpus entry; returns the tracefile header."""
    return capture_kernel(
        entry.kernel,
        path if path is not None else corpus_path(entry),
        name=entry.name,
        **entry.kwargs,
    )


def resolve_trace(ref: str) -> Path:
    """Resolve a trace reference — corpus name or filesystem path.

    Corpus names win over paths (they contain no separators or dots, so
    collisions cannot happen in practice).  A known corpus name whose file
    has not been captured yet gets a hint instead of a bare ENOENT.
    """
    entry = CORPUS_BY_NAME.get(ref)
    if entry is not None:
        path = corpus_path(entry)
        if not path.is_file():
            raise TraceFormatError(
                f"corpus trace {ref!r} is not captured at {path}; run "
                f"`repro trace capture {entry.kernel} --corpus {ref}` or "
                "scripts/make_corpus.py"
            )
        return path
    path = Path(ref)
    if not path.is_file():
        known = ", ".join(sorted(CORPUS_BY_NAME))
        raise TraceFormatError(
            f"{ref!r} is neither a corpus trace name nor a tracefile path "
            f"(corpus: {known})"
        )
    return path


def load_corpus_feed(ref: str, *, limit: int | None = None) -> TraceFeed:
    """TraceFeed for a corpus name or tracefile path."""
    return TraceFeed(resolve_trace(ref), limit=limit)


def corpus_listing() -> list[dict]:
    """One row per corpus entry for ``repro workloads`` (header-only I/O)."""
    rows = []
    for entry in CORPUS:
        path = corpus_path(entry)
        row = {
            "name": entry.name,
            "kernel": entry.kernel,
            "kwargs": dict(entry.kwargs),
            "committed": entry.committed,
            "note": entry.note,
            "path": str(path),
        }
        if path.is_file():
            try:
                info = trace_info(path)
            except TraceFormatError as error:
                row["error"] = str(error)
            else:
                row["insts"] = info["insts"]
                row["trace_sha256"] = info["trace_sha256"]
                row["bytes"] = info["bytes"]
        else:
            row["missing"] = True
        rows.append(row)
    return rows
