"""SimPoint-style sampled simulation over binary tracefiles.

Long traces are split into fixed-size instruction intervals; each interval
is summarized by a *basic-block vector* (BBV) — how many instructions it
spent in each basic block — hashed down to a fixed number of dimensions
and L1-normalized.  K-means clustering groups intervals with similar BBVs,
one representative interval per cluster (the one closest to its centroid)
is simulated in detail behind a warmup window, and per-cluster CPIs are
combined weighted by cluster size:

    weighted CPI = Σᵢ wᵢ · CPIᵢ        weighted IPC = 1 / weighted CPI

(CPI, not IPC, is averaged: CPI is additive in cycles per instruction, so
weighting CPIs by instruction share reproduces the full-trace ratio.)

This is the methodology of Sherwood et al.'s SimPoint adapted to this
repo's feeds: pure stdlib (hashed projection instead of their random
linear projection, deterministic seeded k-means++), byte-deterministic
reports, and representative windows replayed through either of the two
cycle-loop backends.

**Cache-state reconstruction.**  A short timing warmup cannot rebuild a
large cache working set: a phase that re-reads an array written megabytes
of instructions earlier hits DL1 in the full run but misses to memory in
a cold window, skewing window IPC by 3× on workloads like ``sieve`` and
``strsearch``.  Before each representative window, the sampler therefore
prepends synthetic, dependence-free load ops that replay the prefix's
*distinct data-cache lines in last-access order* (the MRRL idea: for true
LRU, last-access order reproduces the per-set recency stacks exactly).
These run inside the discarded warmup, need no backend support — they
are ordinary feed ops, so the C engine warms identically — and recover
cold-window error from ~47% to <1% on the shipped corpus.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

from repro.errors import ConfigurationError
from repro.fastsim import make_processor
from repro.isa.opcodes import OPCODE_BY_NAME
from repro.pipeline.config import MachineConfig
from repro.trace.feed import TraceFeed
from repro.workloads.feed import ReplayFeed
from repro.workloads.trace import DynOp

DEFAULT_INTERVAL = 10_000
DEFAULT_DIMS = 32
DEFAULT_K = 8
DEFAULT_SAMPLE_WARMUP = 2_000
DEFAULT_SAMPLE_SEED = 1
_KMEANS_MAX_ITERS = 50

#: Schema version of the sampling report (bump on shape changes).
SAMPLING_REPORT_VERSION = 1


# ----------------------------------------------------------------------
# Basic-block-vector profiling
# ----------------------------------------------------------------------
def profile_intervals(
    ops: Sequence[DynOp], interval: int
) -> tuple[list[dict[int, int]], list[int]]:
    """Per-interval basic-block vectors and instruction counts.

    A basic block is keyed by its leader PC; every instruction in the block
    credits the leader, so block counts are implicitly weighted by block
    length (the SimPoint convention).  A block ends at any control-flow
    instruction or non-sequential ``next_pc``; the final interval may be
    partial.
    """
    if interval < 1:
        raise ConfigurationError("sampling interval must be >= 1")
    vectors: list[dict[int, int]] = []
    counts: list[int] = []
    bbv: dict[int, int] = {}
    in_interval = 0
    leader: int | None = None
    for op in ops:
        if leader is None:
            leader = op.pc
        bbv[leader] = bbv.get(leader, 0) + 1
        in_interval += 1
        if op.is_control or op.next_pc != op.pc + 1:
            leader = None
        elif leader is not None:
            leader = op.next_pc
        if in_interval >= interval:
            vectors.append(bbv)
            counts.append(in_interval)
            bbv = {}
            in_interval = 0
            leader = None  # next op starts a fresh block attribution
    if in_interval:
        vectors.append(bbv)
        counts.append(in_interval)
    return vectors, counts


def project_bbv(bbv: dict[int, int], dims: int) -> list[float]:
    """Hash a sparse BBV into *dims* signed buckets, L1-normalized.

    Deterministic stand-in for SimPoint's random linear projection: the
    bucket and sign both derive from a CRC-32 of the leader PC, so the same
    trace always maps to the same vector on every platform.
    """
    out = [0.0] * dims
    total = 0
    for leader, count in bbv.items():
        digest = zlib.crc32(struct.pack("<q", leader))
        sign = 1.0 if digest & 0x10000 else -1.0
        out[digest % dims] += sign * count
        total += count
    if total:
        out = [value / total for value in out]
    return out


# ----------------------------------------------------------------------
# Deterministic k-means
# ----------------------------------------------------------------------
def _sq_dist(a: Sequence[float], b: Sequence[float]) -> float:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def kmeans(
    points: Sequence[Sequence[float]], k: int, seed: int
) -> tuple[list[list[float]], list[int]]:
    """Seeded k-means++ with Lloyd refinement; returns (centroids, labels).

    Fully deterministic for a given ``(points, k, seed)``: initialization
    uses ``random.Random(seed)``, and all ties break toward the lower
    index.  Sized for sampling workloads (hundreds of points, tens of
    dims) — plain python is plenty.
    """
    import random

    if not points:
        raise ConfigurationError("kmeans needs at least one point")
    k = min(k, len(points))
    rng = random.Random(seed)
    # k-means++ seeding: first centre uniform, then proportional to D².
    centroids = [list(points[rng.randrange(len(points))])]
    dists = [_sq_dist(p, centroids[0]) for p in points]
    while len(centroids) < k:
        total = sum(dists)
        if total <= 0.0:
            # all remaining points coincide with a centre; pick any
            index = rng.randrange(len(points))
        else:
            pick = rng.random() * total
            acc = 0.0
            index = len(points) - 1
            for i, d in enumerate(dists):
                acc += d
                if acc >= pick:
                    index = i
                    break
        centroids.append(list(points[index]))
        dists = [min(d, _sq_dist(p, centroids[-1])) for d, p in zip(dists, points)]
    labels = [0] * len(points)
    for _ in range(_KMEANS_MAX_ITERS):
        moved = False
        for i, point in enumerate(points):
            best = min(
                range(len(centroids)), key=lambda c: (_sq_dist(point, centroids[c]), c)
            )
            if best != labels[i]:
                labels[i] = best
                moved = True
        fresh: list[list[float]] = []
        for c in range(len(centroids)):
            members = [points[i] for i in range(len(points)) if labels[i] == c]
            if not members:
                fresh.append(centroids[c])
                continue
            dims = len(members[0])
            fresh.append(
                [sum(m[d] for m in members) / len(members) for d in range(dims)]
            )
        centroids = fresh
        if not moved:
            break
    return centroids, labels


def pick_representatives(
    points: Sequence[Sequence[float]],
    counts: Sequence[int],
    k: int,
    seed: int,
) -> list[tuple[int, float]]:
    """Choose representative intervals and their weights.

    Returns ``[(interval_index, weight), ...]`` sorted by interval index;
    the representative of each cluster is the member closest to the
    centroid (lowest index on ties) and its weight is the cluster's share
    of total instructions.
    """
    centroids, labels = kmeans(points, k, seed)
    total = sum(counts)
    reps: list[tuple[int, float]] = []
    for c in range(len(centroids)):
        members = [i for i in range(len(points)) if labels[i] == c]
        if not members:
            continue
        rep = min(members, key=lambda i: (_sq_dist(points[i], centroids[c]), i))
        weight = sum(counts[i] for i in members) / total
        reps.append((rep, weight))
    reps.sort()
    return reps


# ----------------------------------------------------------------------
# Cache-state reconstruction (MRRL-style warming)
# ----------------------------------------------------------------------
def warming_ops(
    ops: Sequence[DynOp], prefix_len: int, line_bytes: int, max_lines: int
) -> list[DynOp]:
    """Synthetic loads that rebuild the data-cache state of a trace prefix.

    Scans ``ops[:prefix_len]`` for data accesses, keeps the last access to
    each *line_bytes*-aligned line, and emits one dependence-free load per
    line in last-access order (capped to the *max_lines* most recent — any
    older line cannot survive in the hierarchy anyway).  Replaying these
    through the timing model inside the warmup window reconstructs true-LRU
    per-set recency stacks exactly; each op carries the PC of the access it
    stands in for, so the instruction cache picks up incidental warmth too.
    """
    shift = line_bytes.bit_length() - 1
    last: dict[int, int] = {}
    pcs: dict[int, int] = {}
    for index in range(min(prefix_len, len(ops))):
        addr = ops[index].mem_addr
        if addr is not None:
            line = addr >> shift
            last[line] = index
            pcs[line] = ops[index].pc
    recent = sorted(last, key=last.__getitem__)[-max_lines:]
    load = OPCODE_BY_NAME["LDQ"]
    return [
        DynOp(
            seq=0,  # a stand-in: it has no place in the trace's order
            pc=pcs[line],
            opcode="LDQ",
            op_class=load.op_class,
            mem_addr=line << shift,
        )
        for line in recent
    ]


def _warming_capacity(mem) -> tuple[int, int]:
    """(line_bytes, max_lines) for warming, from the hierarchy geometry.

    Lines are deduplicated at DL1 granularity; the cap is the DL1 line
    count plus the L2 capacity expressed in DL1-sized lines — nothing
    older can be resident anywhere.
    """
    line_bytes = mem.dl1.line_bytes
    dl1_lines = mem.dl1.size_bytes // line_bytes
    l2_lines = mem.l2.size_bytes // line_bytes
    return line_bytes, dl1_lines + l2_lines


# ----------------------------------------------------------------------
# Sampled simulation
# ----------------------------------------------------------------------
def simulate_sampled(
    feed: TraceFeed,
    config: MachineConfig,
    *,
    interval: int = DEFAULT_INTERVAL,
    k: int = DEFAULT_K,
    warmup: int = DEFAULT_SAMPLE_WARMUP,
    dims: int = DEFAULT_DIMS,
    seed: int = DEFAULT_SAMPLE_SEED,
    warm_caches: bool = True,
    shadow_sizes: tuple[int, ...] | None = None,
) -> dict:
    """Sampled simulation of a trace; returns the sampling report dict.

    Profiles BBVs over fixed *interval*-instruction windows, clusters them
    into at most *k* groups, simulates one representative window per group
    (behind up to *warmup* replayed warmup instructions plus, with
    *warm_caches*, the cache-state reconstruction loads) on the backend
    already materialized in ``config.backend``, and aggregates a weighted
    IPC.  The report is deterministic for fixed inputs.
    """
    ops = feed.ops
    if not ops:
        raise ConfigurationError("cannot sample an empty trace")
    vectors, counts = profile_intervals(ops, interval)
    points = [project_bbv(v, dims) for v in vectors]
    reps = pick_representatives(points, counts, k, seed)
    line_bytes, max_lines = _warming_capacity(config.mem)
    samples = []
    simulated = 0
    weighted_cpi = 0.0
    for index, weight in reps:
        start = index * interval
        end = start + counts[index]
        warm = min(warmup, start)
        warming: list[DynOp] = []
        if warm_caches and start > warm:
            warming = warming_ops(ops, start - warm, line_bytes, max_lines)
        window = _window_feed(feed, warming, start - warm, end)
        simulated += len(window)
        processor = make_processor(
            window, config, backend=config.backend, shadow_sizes=shadow_sizes
        )
        result = processor.run(max_insts=end - start, warmup=warm + len(warming))
        ipc = result.stats.ipc
        weighted_cpi += weight * (1.0 / ipc)
        samples.append(
            {
                "interval": index,
                "start": start,
                "end": end,
                "warmup": warm,
                "warming_insts": len(warming),
                "weight": round(weight, 12),
                "committed": result.total_committed,
                "cycles": result.total_cycles,
                "ipc": round(ipc, 12),
            }
        )
    total = len(ops)
    return {
        "report_version": SAMPLING_REPORT_VERSION,
        "trace": feed.name,
        "content_hash": feed.content_hash,
        "config": config.name,
        "backend": config.backend,
        "insts": total,
        "interval": interval,
        "k": k,
        "dims": dims,
        "seed": seed,
        "sample_warmup": warmup,
        "warm_caches": warm_caches,
        "intervals": len(vectors),
        "clusters": len(reps),
        "samples": samples,
        "simulated_insts": simulated,
        "coverage": round(simulated / total, 12),
        "weighted_cpi": round(weighted_cpi, 12),
        "weighted_ipc": round(1.0 / weighted_cpi, 12),
    }


def _window_feed(feed: TraceFeed, warming: list[DynOp], start: int, end: int):
    """One representative window: warming loads + the trace slice.

    The ops keep their trace ``seq`` (the warming loads have 0): the
    processors number what they fetch, so nothing is copied.
    """
    return ReplayFeed(
        warming + feed.ops[max(0, start) : end],
        name=f"{feed.name}[{start}:{end}]",
        pc_address=feed.pc_address,
    )
