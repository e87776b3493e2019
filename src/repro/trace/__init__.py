"""repro.trace — binary tracefile capture, replay and sampled simulation.

The trace subsystem turns long functional-emulator executions into
portable workloads:

* :mod:`repro.trace.format` — the versioned binary tracefile container
  (delta-encoded records, zlib chunks, per-chunk CRCs, self-describing
  header carrying the trace and program content hashes);
* :mod:`repro.trace.capture` — capture kernels/programs/streams to disk;
* :mod:`repro.trace.feed` — :class:`TraceFeed`, a first-class replay feed
  accepted by all three cycle-loop backends with bit-identical stats;
* :mod:`repro.trace.sampling` — SimPoint-style sampled simulation (BBV
  profiling, deterministic k-means, weighted IPC aggregation);
* :mod:`repro.trace.corpus` — the shipped named corpus under
  ``workloads/traces/``;
* :mod:`repro.trace.run` — cache-integrated full and sampled runs, keyed
  on trace content hashes (never paths).

See ``docs/TRACES.md`` for the format spec and workflow.
"""

from repro.trace.capture import (
    capture_kernel,
    capture_program,
    capture_stream,
    program_sha256,
)
from repro.trace.corpus import (
    CORPUS,
    CORPUS_BY_NAME,
    CorpusEntry,
    capture_corpus_entry,
    corpus_dir,
    corpus_listing,
    corpus_path,
    load_corpus_feed,
    resolve_trace,
)
from repro.trace.feed import TraceFeed, trace_info, trace_token
from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    isa_version,
    read_header,
)
from repro.trace.run import run_full, run_sampled, sampled_job, trace_job
from repro.trace.sampling import (
    DEFAULT_DIMS,
    DEFAULT_INTERVAL,
    DEFAULT_K,
    DEFAULT_SAMPLE_SEED,
    DEFAULT_SAMPLE_WARMUP,
    kmeans,
    pick_representatives,
    profile_intervals,
    project_bbv,
    simulate_sampled,
)

__all__ = [
    "CORPUS",
    "CORPUS_BY_NAME",
    "CorpusEntry",
    "DEFAULT_DIMS",
    "DEFAULT_INTERVAL",
    "DEFAULT_K",
    "DEFAULT_SAMPLE_SEED",
    "DEFAULT_SAMPLE_WARMUP",
    "TRACE_FORMAT_VERSION",
    "TraceFeed",
    "TraceFormatError",
    "TraceReader",
    "TraceWriter",
    "capture_corpus_entry",
    "capture_kernel",
    "capture_program",
    "capture_stream",
    "corpus_dir",
    "corpus_listing",
    "corpus_path",
    "isa_version",
    "kmeans",
    "load_corpus_feed",
    "pick_representatives",
    "profile_intervals",
    "program_sha256",
    "project_bbv",
    "read_header",
    "resolve_trace",
    "run_full",
    "run_sampled",
    "sampled_job",
    "simulate_sampled",
    "trace_info",
    "trace_job",
    "trace_token",
]
