"""Shared pieces of the benchmark: hermetic environment, timing helpers,
process accounting and the span tracer used by ``--trace 1`` runs.

Nothing here imports :mod:`repro` at module level: ``run.py`` first checks
that the checkout holds the program's sources, then points ``sys.path`` at
them.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

#: checkout root (the benchmark lives in ``<root>/perfbench``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: per-run scratch space (stores, spools, temp files); removed at exit
WORK_ROOT = ROOT / ".bench_work"
#: span dumps of traced runs, kept after exit
OUT_DIR = ROOT / ".bench_out"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *fraction* of all samples at or below it."""
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return float(ordered[min(max(rank, 1), len(ordered)) - 1])


def digest(payload) -> str:
    """Short content hash of a JSON-able value or of bytes/str."""
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
_KERNEL_DOCUMENT = {f"key{i}": [i, i * 0.5, str(i)] for i in range(64)}


def _speed_kernel() -> int:
    """Fixed work in the mix the program spends its time on: interpreter-
    bound dict, tuple and string work, JSON round trips, hashing, and
    reading a small file through the page cache."""
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(5000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        total += len(str(i))
    items.sort()
    for _ in range(10):
        text = json.dumps(_KERNEL_DOCUMENT, sort_keys=True)
        total += len(json.loads(text))
        total += hashlib.sha256(text.encode()).digest()[0]
        with open(__file__, "rb") as handle:
            total += len(handle.read())
    return total + len(table)


def _cpu_ticks() -> tuple[int, int]:
    """(ticks stolen by the hypervisor, all ticks) over every vCPU since boot."""
    with open("/proc/stat") as handle:
        fields = [int(field) for field in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _sampler(connection, interval_s: float) -> None:
    samples = []
    while not connection.poll(interval_s):
        started = time.thread_time()
        _speed_kernel()
        samples.append((time.perf_counter(), time.thread_time() - started, *_cpu_ticks()))
    connection.recv()
    connection.send(samples)
    connection.close()


class HostSpeed:
    """How fast this shared host runs interpreter-bound code, moment by moment.

    The benchmark's host is a shared virtual machine.  Its speed changes
    every few seconds (the same interpreter-bound work takes 1.3 to 1.7
    times as long in slow spells), and for minutes at a time the
    hypervisor can take a large share of the vCPUs' time (steal), which
    slows work spread over both vCPUs most.  Unchanged, the program's raw
    times moved by up to 40% over minutes.  While a run measures, a helper
    process times a fixed kernel every ``INTERVAL_S`` seconds in CPU time
    (so it sees how fast a vCPU runs, not how busy the workload keeps it)
    and reads the steal counter.  Each measured interval is multiplied by
    ``REFERENCE_S / trimmed mean(kernel time)`` and by the share of vCPU
    time not stolen, both over the samples within ``WINDOW_S`` of it: the
    result is in seconds of an unstolen host on which the kernel takes
    ``REFERENCE_S``.  Neither reading involves program code, so a change
    to the program moves a scaled time exactly as much as the raw one.
    """

    #: kernel CPU time on this 2-vCPU x86-64 sandbox, CPython 3.11
    REFERENCE_S = 0.005
    INTERVAL_S = 0.1
    #: samples this close to an interval calibrate it ...
    WINDOW_S = 1.0
    #: ... if there are at least this many (else the whole run's do)
    MIN_SAMPLES = 5

    def __init__(self):
        #: ``(perf_counter() after the kernel, kernel CPU seconds, stolen
        #: ticks, all ticks)``
        self.samples: list[tuple[float, float, int, int]] = []
        self._connection = None
        self._process = None

    def start(self) -> None:
        # fork: the helper runs one pure function, and a spawned
        # interpreter would re-import the benchmark for nothing.
        context = multiprocessing.get_context("fork")
        self._connection, child_end = context.Pipe()
        self._process = context.Process(
            target=_sampler, args=(child_end, self.INTERVAL_S), daemon=True
        )
        self._process.start()
        child_end.close()

    @property
    def pid(self) -> int | None:
        return self._process.pid if self._process is not None else None

    def stop(self) -> None:
        if self._process is None:
            return
        try:
            self._connection.send(None)
            self.samples = self._connection.recv()
        finally:
            self._process.join(timeout=10)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._connection.close()
            self._process = None

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Multiply a time measured between *start* and *end* (the whole
        run when omitted) by this to express it at reference speed; 1.0
        when nothing was sampled."""
        near = []
        if start is not None:
            near = [sample for sample in self.samples
                    if start - self.WINDOW_S <= sample[0] <= end + self.WINDOW_S]
        if len(near) < self.MIN_SAMPLES:
            near = self.samples
        if not near:
            return 1.0
        ordered = sorted(cpu for _, cpu, _, _ in near)
        cut = len(ordered) // 20
        kept = ordered[cut:len(ordered) - cut]
        stolen = near[-1][2] - near[0][2]
        ticks = near[-1][3] - near[0][3]
        unstolen = 1.0 - stolen / ticks if ticks > 0 else 1.0
        return self.REFERENCE_S / (sum(kept) / len(kept)) * unstolen

    def timed(self, intervals, reduce=median) -> tuple[float, float]:
        """``(at reference speed, as measured)`` of *reduce* over the
        durations of ``(start, end)`` perf_counter() intervals."""
        scaled = [(end - start) * self.factor(start, end) for start, end in intervals]
        return reduce(scaled), reduce([end - start for start, end in intervals])


@dataclass
class Context:
    """One benchmark invocation."""

    seed: int
    seconds: float
    trace: bool
    #: scratch directory of this run (inside the checkout)
    work: Path
    speed: HostSpeed = field(default_factory=HostSpeed)


@dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: one line per failed check or operation
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: ``(name, value, unit)`` rows printed above the JSON result line; a
    #: time scaled to reference host speed is ``(name, (scaled, measured), unit)``
    lines: list[tuple[str, object, str]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


# ----------------------------------------------------------------------
# Environment and processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Environment for processes the benchmark starts: the hermetic parent
    environment plus the checkout's sources on ``PYTHONPATH``."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def time_subprocess(code: str, repeats: int = 3) -> list[tuple[float, float]]:
    """Intervals of *repeats* fresh interpreters running *code*.

    Used as the set-up time of the in-process workloads: interpreter start
    plus importing (and initialising) the layers the workload drives.
    """
    intervals = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        intervals.append((started, time.perf_counter()))
    return intervals


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids(skip: int | None) -> list[int]:
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the parent pid is the second field after the parenthesised name
        if int(stat.rsplit(")", 1)[1].split()[1]) == me and int(entry) != skip:
            children.append(int(entry))
    return children


def peak_rss_mb(ctx: Context) -> float:
    """Sum of the peak resident set sizes (VmHWM) of this process and its
    live children, the host-speed helper excepted: the warm pool's workers
    in ``regen``, the three servers in ``serve``.  Grandchildren are left
    out: whether a serve worker ever starts its own pool depends on how
    jobs happen to batch."""
    total_kb = _vm_hwm_kb(os.getpid())
    total_kb += sum(_vm_hwm_kb(pid) for pid in _child_pids(ctx.speed.pid))
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
#: root span name: its self time is the time no layer span covers
ROOT_SPAN = "bench"


class Tracer:
    """In-memory span recorder.

    A span is ``[id, name, start, end, parent_id, thread]``; the parent is
    the innermost open span of the same thread.  Every measured pass runs
    inside a :data:`ROOT_SPAN` span per thread, so layer self times plus
    the roots' self time add up to the traced wall time exactly.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        with self._lock:
            record = [len(self.spans), name, time.perf_counter(), None, parent,
                      threading.get_ident()]
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, function):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "thread"],
            "spans": self.spans,
        }))

    # -- analysis ---------------------------------------------------------
    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of spans called *name* (optionally only those with an
        ancestor called *under*)."""
        by_id = {record[0]: record for record in self.spans}
        out = []
        for record in self.spans:
            if record[1] != name:
                continue
            if under is not None:
                parent = record[4]
                while parent is not None and by_id[parent][1] != under:
                    parent = by_id[parent][4]
                if parent is None:
                    continue
            out.append(record[3] - record[2])
        return out

    def total(self, name: str, under: str | None = None) -> float:
        return sum(self.durations(name, under))

    def self_times(self) -> dict[str, float]:
        """Self time per layer (the span name's prefix before the first
        dot); the root spans' self time is reported as ``unattributed``."""
        covered: dict[int, float] = {}
        for record in self.spans:
            if record[4] is not None:
                covered[record[4]] = covered.get(record[4], 0.0) + record[3] - record[2]
        layers: dict[str, float] = {}
        for record in self.spans:
            own = record[3] - record[2] - covered.get(record[0], 0.0)
            layer = "unattributed" if record[1] == ROOT_SPAN else record[1].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def root_wall(self) -> float:
        return sum(r[3] - r[2] for r in self.spans if r[1] == ROOT_SPAN)


def root(tracer: Tracer | None):
    """Root span of one measured operation; a no-op when untraced."""
    return tracer.span(ROOT_SPAN) if tracer is not None else nullcontext()


class Patches:
    """Replace functions and methods with traced wrappers; undo on exit.

    A function imported by name into several modules is replaced in every
    loaded ``repro`` module that holds the same object.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def attr(self, owner, attribute: str, name: str, wrapper=None) -> None:
        original = getattr(owner, attribute)
        replacement = wrapper(original) if wrapper else self.tracer.wrap(name, original)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def function(self, original, name: str, wrapper=None) -> None:
        replacement = wrapper(original) if wrapper else self.tracer.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attribute, original))
                    setattr(module, attribute, replacement)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def patch_common_layers(patches: Patches, counters: dict) -> None:
    """Spans around the layers several workloads share: the cycle loop
    (``fastsim``), the warm pool, the result store, fingerprinting and
    deserialization, and the memoizing runner."""
    import repro.fastsim as fastsim
    from repro.analysis import cache, store
    from repro.analysis.pool import WorkerPool
    from repro.analysis.runner import ExperimentRunner
    from repro.pipeline.processor import Processor

    tracer = patches.tracer
    patched_classes: set[type] = set()

    def traced_run(original):
        def run(self, *args, **kwargs):
            with tracer.span("fastsim.run"):
                result = original(self, *args, **kwargs)
            counters["fastsim.insts"] = counters.get("fastsim.insts", 0) + result.total_committed
            return result
        return run

    def patch_class(cls: type) -> None:
        if cls not in patched_classes:
            patched_classes.add(cls)
            patches.attr(cls, "run", "fastsim.run", traced_run)

    def traced_build(original):
        def make_processor(*args, **kwargs):
            with tracer.span("fastsim.build"):
                processor = original(*args, **kwargs)
            patch_class(type(processor))
            return processor
        return make_processor

    patch_class(Processor)
    patches.function(fastsim.make_processor, "fastsim.build", traced_build)
    patches.attr(WorkerPool, "run", "pool.run")

    def traced_get(original):
        def get(self, fingerprint):
            with tracer.span("store.get"):
                record = original(self, fingerprint)
            counters["store.gets"] = counters.get("store.gets", 0) + 1
            if record is not None:
                counters["store.get_hits"] = counters.get("store.get_hits", 0) + 1
            return record
        return get

    def traced_put(original):
        def put(self, fingerprint, record):
            with tracer.span("store.put"):
                stored = original(self, fingerprint, record)
            counters["store.puts"] = counters.get("store.puts", 0) + 1
            return stored
        return put

    patches.attr(store.DirectoryStore, "get", "store.get", traced_get)
    patches.attr(store.DirectoryStore, "put", "store.put", traced_put)
    patches.attr(store.DirectoryStore, "claim", "store.claim")
    patches.function(cache.fingerprint, "cache.fingerprint")
    patches.function(cache.deserialize_result, "cache.deserialize")
    patches.attr(ExperimentRunner, "result", "runner.result")
    patches.attr(ExperimentRunner, "prefetch", "runner.prefetch")


#: per-layer metrics every workload reports; a layer a workload bypasses
#: reads 0 (see README.md for which workload loads which layer)
PER_LAYER = [
    ("fastsim.build_s", "s"), ("fastsim.run_s", "s"), ("fastsim.insts", "count"),
    ("fastsim.kips", "1000/s"),
    ("pool.wall_s", "s"), ("pool.jobs", "count"), ("pool.chunks", "count"),
    ("pool.worker_starts", "count"), ("pool.config_ships", "count"),
    ("pool.crash_replacements", "count"),
    ("store.get_s", "s"), ("store.gets", "count"), ("store.hit_ratio", "ratio"),
    ("store.put_s", "s"), ("store.puts", "count"), ("store.claim_s", "s"),
    ("cache.fingerprint_s", "s"), ("cache.deserialize_s", "s"),
    ("runner.disk_hits", "count"), ("runner.memo_hits", "count"),
    ("runner.prefetch_warm_hits", "count"), ("runner.simulated", "count"),
    ("client.submit_ms_p50", "ms"), ("client.wait_ms_p50", "ms"),
    ("client.retries", "count"), ("serve.coalesce_hits", "count"),
    ("serve.simulated", "count"), ("serve.hit_ratio", "ratio"),
    ("serve.batch_size_mean", "jobs"), ("router.dispatch_batch_size_mean", "jobs"),
    ("router.steals", "count"),
    ("trace.decode_s", "s"), ("trace.profile_s", "s"), ("trace.cluster_s", "s"),
    ("trace.warming_s", "s"), ("trace.window_run_s", "s"), ("trace.full_run_s", "s"),
    ("trace.coverage", "ratio"), ("trace.warming_insts", "count"),
    ("verify.progen_s", "s"), ("isa.assemble_s", "s"), ("verify.check_s", "s"),
    ("verify.runs", "count"), ("verify.failures", "count"),
]

#: layers whose self time is reported as ``<layer>.self_s``
LAYERS = ("fastsim", "pool", "store", "cache", "runner", "experiments",
          "client", "trace", "verify", "isa")


def layer_metrics(tracer: Tracer, counters: dict, untraced_wall: float,
                  traced_wall: float) -> dict:
    """Per-layer rows common to every workload, from spans and counters.

    *counters* carries the program's own counters collected by the
    workload; names in :data:`PER_LAYER` that no span or counter produced
    read 0.
    """
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update({key: value for key, value in counters.items() if key in values})
    values["fastsim.build_s"] = tracer.total("fastsim.build")
    values["fastsim.run_s"] = tracer.total("fastsim.run")
    values["fastsim.insts"] = counters.get("fastsim.insts", 0)
    if values["fastsim.run_s"] > 0:
        values["fastsim.kips"] = values["fastsim.insts"] / values["fastsim.run_s"] / 1000.0
    values["pool.wall_s"] = tracer.total("pool.run")
    values["store.get_s"] = tracer.total("store.get")
    values["store.put_s"] = tracer.total("store.put")
    values["store.claim_s"] = tracer.total("store.claim")
    if counters.get("store.gets"):
        values["store.hit_ratio"] = counters.get("store.get_hits", 0) / counters["store.gets"]
    values["cache.fingerprint_s"] = tracer.total("cache.fingerprint")
    values["cache.deserialize_s"] = tracer.total("cache.deserialize")
    selfs = tracer.self_times()
    for layer in LAYERS:
        values[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    values["tracing.wall_s"] = tracer.root_wall()
    values["tracing.unattributed_s"] = selfs.get("unattributed", 0.0)
    values["tracing.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    return values


def per_layer_units() -> dict[str, str]:
    units = dict(PER_LAYER)
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["tracing.wall_s"] = "s"
    units["tracing.unattributed_s"] = "s"
    units["tracing.overhead_ratio"] = "ratio"
    return units


def sum_registry(into: dict, document: dict, names: dict[str, str]) -> None:
    """Add counters of a registry ``as_dict()`` (or ``/metrics``) document
    into *into*, renaming ``program name -> benchmark name``."""
    for source, target in names.items():
        value = document.get(source, 0)
        if isinstance(value, (int, float)):
            into[target] = into.get(target, 0) + value
