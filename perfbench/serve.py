"""``serve``: closed-loop ``run`` jobs through the documented cluster.

``repro serve --router`` in front of two ``--worker`` servers that share
one result store, every server with a spool.  ``CLIENTS`` threads of this
process each submit a job and wait for it to finish before submitting the
next (closed loop, like sweep scripts and ``repro submit --wait``).  A
quarter of the jobs are first-time fingerprints (they simulate and publish
to the store); the rest repeat earlier fingerprints, some while the first
copy is still in flight (they coalesce).
"""

from __future__ import annotations

import random
import re
import signal
import subprocess
import sys
import threading
import time

from common import (OUT_DIR, Outcome, Patches, Tracer, child_env, digest, layer_metrics,
                    median, peak_rss_mb, percentile, root)

from repro.analysis.cache import ResultCache
from repro.analysis.pool import shutdown_pool
from repro.analysis.runner import ExperimentRunner
from repro.obs.export import write_stats_json
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import parse_spec
from repro.workloads.profiles import SPEC_BENCHMARKS

#: run length of every job (measured / warmup instructions)
INSTS, WARMUP = 300, 150
#: jobs per pass, closed-loop client threads, share of first-time jobs
JOBS, CLIENTS, NEW_EVERY = 1000, 2, 4
#: chance that a repeat names the newest fingerprint (often still in flight)
IN_FLIGHT_REPEAT = 0.05
#: cluster boots per run; set-up time is their median
BOOTS = 3
WORKERS = 2

WORKER_COUNTERS = ("serve.coalesce_hits", "serve.simulated", "serve.completed",
                   "pool.jobs_dispatched", "pool.chunks_sent", "pool.worker_starts",
                   "pool.config_ships", "pool.crash_replacements")
ROUTER_COUNTERS = ("router.coalesce_hits", "router.steals")


def request_mix(seed: int, first_seed: int) -> list[dict]:
    """``JOBS`` run specs: exactly one in ``NEW_EVERY`` is a first-time
    fingerprint (the first job always is); the rest repeat earlier ones.

    First-time specs cycle through the twelve benchmark profiles, so every
    seed asks for the same amount of simulation work."""
    rng = random.Random(seed)
    new = [True] * (JOBS // NEW_EVERY) + [False] * (JOBS - JOBS // NEW_EVERY)
    rng.shuffle(new)
    new[new.index(True)], new[0] = new[0], True
    specs: list[dict] = []
    unique: list[dict] = []
    for is_new in new:
        if is_new:
            index = len(unique)
            spec = {"benchmark": SPEC_BENCHMARKS[index % len(SPEC_BENCHMARKS)],
                    "seed": first_seed + index, "insts": INSTS, "warmup": WARMUP}
            unique.append(spec)
        elif rng.random() < IN_FLIGHT_REPEAT:
            spec = unique[-1]
        else:
            spec = rng.choice(unique)
        specs.append(dict(spec))
    return specs


class Cluster:
    """One router and ``WORKERS`` workers as subprocesses."""

    def __init__(self, work, generation: int):
        self.work = work
        self.generation = generation
        self.processes: list[subprocess.Popen] = []
        self.worker_urls: list[str] = []
        self.router_url = ""

    def _start(self, name: str, args: list[str], announce: str) -> tuple:
        log = self.work / f"{name}-{self.generation}.log"
        with open(log, "w") as handle:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *args],
                stdout=handle, stderr=subprocess.STDOUT, env=child_env(),
            )
        self.processes.append(process)
        return log, process, announce

    def _await_announce(self, log, process, announce: str, deadline: float) -> str:
        while time.monotonic() < deadline:
            match = re.search(announce, log.read_text())
            if match:
                return match.group(1)
            if process.poll() is not None:
                raise RuntimeError(f"{log.name}: exited {process.returncode}: "
                                   f"{log.read_text()[-500:]}")
            time.sleep(0.01)
        raise RuntimeError(f"{log.name}: no announce line within the boot deadline")

    def boot(self) -> tuple[float, float]:
        """Start everything; returns the interval until all ``/healthz``
        answer."""
        started = time.perf_counter()
        deadline = time.monotonic() + 60
        store = self.work / "store"
        pending = [
            self._start(f"w{index}", [
                "--worker", "--port", "0", "--workers", "2", "--name", f"w{index}",
                "--store", str(store),
                "--spool", str(self.work / f"spool-w{index}-{self.generation}"),
            ], r"worker \[w\d\] on (http://\S+)")
            for index in range(WORKERS)
        ]
        self.worker_urls = [self._await_announce(*item, deadline) for item in pending]
        router = self._start("router", [
            "--router", "--port", "0",
            "--spool", str(self.work / f"spool-router-{self.generation}"),
            *(part for url in self.worker_urls for part in ("--worker-url", url)),
        ], r"routing on (http://\S+)")
        self.router_url = self._await_announce(*router, deadline)
        for url in [*self.worker_urls, self.router_url]:
            client = ServeClient(url, timeout=5)
            while True:
                try:
                    client.healthz()
                    break
                except ServeError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
        return started, time.perf_counter()

    def metrics(self) -> tuple[dict, list[dict]]:
        router = ServeClient(self.router_url, timeout=30).metrics()["metrics"]
        workers = [ServeClient(url, timeout=30).metrics()["metrics"]
                   for url in self.worker_urls]
        return router, workers

    def stop(self) -> None:
        # Router first, so it never sees its workers vanish mid-drain.
        for process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.processes = []


def _histogram_growth(after: dict, before: dict) -> tuple[float, float]:
    """(sum, count) of a histogram's growth between two snapshots."""
    total = count = 0.0
    for bucket, value in (after or {}).items():
        grown = value - (before or {}).get(bucket, 0)
        total += float(bucket) * grown
        count += grown
    return total, count


class Sweep:
    """One pass: ``JOBS`` closed-loop jobs from ``CLIENTS`` threads."""

    def __init__(self, cluster: Cluster, specs: list[dict], tracer: Tracer | None):
        self.cluster = cluster
        self.specs = specs
        self.tracer = tracer
        self.next = 0
        self.lock = threading.Lock()
        #: ``(submit, done)`` of every job that finished
        self.intervals: list[tuple[float, float]] = []
        self.documents: list[dict | None] = [None] * len(specs)
        self.errors: list[str] = []
        self.retries = 0

    def _sleep(self, seconds: float) -> None:
        with self.lock:
            self.retries += 1
        time.sleep(seconds)

    def _client_loop(self) -> None:
        client = ServeClient(self.cluster.router_url, timeout=60, sleep=self._sleep)
        with root(self.tracer):
            while True:
                with self.lock:
                    index = self.next
                    self.next += 1
                if index >= len(self.specs):
                    return
                started = time.perf_counter()
                try:
                    receipt = client.submit(self.specs[index])[0]
                    document = client.wait(receipt["id"], timeout=120, poll=5.0)
                except ServeError as error:
                    with self.lock:
                        self.errors.append(f"job {index}: {error}")
                    continue
                finished = time.perf_counter()
                with self.lock:
                    self.intervals.append((started, finished))
                    self.documents[index] = document

    def run(self) -> tuple[float, float]:
        threads = [threading.Thread(target=self._client_loop) for _ in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return started, time.perf_counter()


def check_documents(specs, documents, work, outcome: Outcome) -> tuple[int, str]:
    """Compare every served document with the offline export of its spec,
    counting each mismatching job as failed; returns the number of unique
    fingerprints and a digest of their documents."""
    offline = ExperimentRunner(insts=INSTS, warmup=WARMUP,
                               cache=ResultCache(work / "offline-store"))
    jobs: dict[str, list[tuple[dict, dict]]] = {}
    for spec, document in zip(specs, documents):
        if document is None:
            continue  # already failed in the sweep
        if document.get("status") != "done":
            outcome.fail(f"job {document.get('id')} ended {document.get('status')}")
            continue
        jobs.setdefault(document["fingerprint"], []).append((spec, document))
    parsed = {key: parse_spec(dict(members[0][0])) for key, members in jobs.items()}
    offline.prefetch([(s.benchmark, s.config(), s.seed, False) for s in parsed.values()])
    shutdown_pool()
    served_documents = {}
    for key, members in sorted(jobs.items()):
        spec = parsed[key]
        direct = offline.export_run(spec.benchmark, spec.config(), work / "offline",
                                    seed=spec.seed).read_bytes()
        for _, document in members:
            stats = document["result"]["stats"]
            if write_stats_json(stats, work / "served").read_bytes() != direct:
                outcome.fail(f"job {document['id']} ({spec.benchmark}/seed={spec.seed}): "
                             "served document differs from the offline export")
        served_documents[key] = members[0][1]["result"]["stats"]
    return len(jobs), digest(served_documents)


def run(ctx, expected: dict) -> Outcome:
    outcome = Outcome()
    boots = []
    cluster = None
    passes: list[tuple[Sweep, tuple[float, float]]] = []
    try:
        for generation in range(BOOTS):
            if cluster is not None:
                cluster.stop()
            cluster = Cluster(ctx.work, generation)
            boots.append(cluster.boot())
        plan = [None, "traced", None] if ctx.trace else [None]
        metrics_before = metrics_after = None
        rss = 0.0
        for number, mode in enumerate(plan):
            specs = request_mix(ctx.seed * 1000 + number, (ctx.seed * 10 + number) * 1000)
            tracer = Tracer() if mode else None
            patches = None
            if tracer is not None:
                patches = Patches(tracer)
                patches.attr(ServeClient, "submit", "client.submit")
                patches.attr(ServeClient, "wait", "client.wait")
                metrics_before = cluster.metrics()
            try:
                sweep = Sweep(cluster, specs, tracer)
                interval = sweep.run()
            finally:
                if patches is not None:
                    patches.restore()
            if tracer is not None:
                metrics_after = cluster.metrics()
                traced = (sweep, interval, tracer)
            rss = max(rss, peak_rss_mb(ctx))
            passes.append((sweep, interval))
    finally:
        if cluster is not None:
            cluster.stop()
    ctx.speed.stop()

    unique, digests = 0, []
    for sweep, _ in passes:
        outcome.attempted += len(sweep.specs)
        for error in sweep.errors:
            outcome.fail(error)
        count, documents = check_documents(sweep.specs, sweep.documents, ctx.work, outcome)
        unique += count
        digests.append(documents)
    known = expected.get(str(ctx.seed))
    if known is not None and known != digests[0]:
        outcome.fail(f"served documents digest {digests[0]} != seed commit's {known}")
    sweep, interval = passes[0]
    setup_s = ctx.speed.timed(boots)
    wall = ctx.speed.timed([interval])
    # A failed job counts as missing every latency limit.
    failed = [float("inf")] * len(sweep.errors)
    p50_ms, p99_ms = (
        ctx.speed.timed(sweep.intervals, lambda x: 1000 * percentile(x + failed, fraction))
        for fraction in (0.50, 0.99)
    )
    beyond = sum(end - start > p99_ms[1] / 1000 for start, end in sweep.intervals)
    outcome.lines += [
        ("serve/setup_s", setup_s, "s"),
        ("serve/jobs_per_s", len(sweep.intervals) / wall[0], "1/s"),
        ("serve/lat_p50_ms", p50_ms, "ms"),
        ("serve/lat_p99_ms", p99_ms, "ms"),
        ("serve/lat_samples", len(sweep.intervals) + len(failed), "count"),
        ("serve/lat_beyond_p99", beyond + len(failed), "count"),
        ("serve/unique_fingerprints", unique, "count"),
        ("serve/documents_digest", digests[0], ""),
    ]
    if ctx.trace:
        sweep, traced_interval, tracer = traced
        untraced_wall = median([end - start for s, (start, end) in passes if s is not sweep])
        outcome.metrics = layer_metrics(
            tracer, serve_counters(sweep, metrics_before, metrics_after, tracer),
            untraced_wall=untraced_wall,
            traced_wall=traced_interval[1] - traced_interval[0],
        )
        tracer.write(OUT_DIR / f"serve-seed{ctx.seed}.json")
    else:
        outcome.metrics = {
            "setup_s": setup_s[0],
            "wall_s": wall[0],
            "p50_ms": p50_ms[0],
            "peak_rss_mb": rss,
        }
    return outcome


def serve_counters(sweep: Sweep, before, after, tracer: Tracer) -> dict:
    """Per-layer counters of the traced pass: the client's own spans plus
    the growth of the router's and workers' ``/metrics`` counters."""
    (router_before, workers_before), (router_after, workers_after) = before, after
    grown: dict[str, float] = {}
    for name in ROUTER_COUNTERS:
        grown[name] = router_after.get(name, 0) - router_before.get(name, 0)
    for b, a in zip(workers_before, workers_after):
        for name in WORKER_COUNTERS:
            grown[name] = grown.get(name, 0) + a.get(name, 0) - b.get(name, 0)
    batch_total = batch_count = 0.0
    for b, a in zip(workers_before, workers_after):
        total, count = _histogram_growth(a.get("serve.batch_size"), b.get("serve.batch_size"))
        batch_total += total
        batch_count += count
    dispatch_total, dispatch_count = _histogram_growth(
        router_after.get("router.dispatch_batch_size"),
        router_before.get("router.dispatch_batch_size"))
    jobs = len(sweep.specs)
    submits = tracer.durations("client.submit")
    waits = tracer.durations("client.wait")
    return {
        "client.submit_ms_p50": 1000 * median(submits) if submits else 0.0,
        "client.wait_ms_p50": 1000 * median(waits) if waits else 0.0,
        "client.retries": sweep.retries,
        "serve.coalesce_hits": grown["serve.coalesce_hits"] + grown["router.coalesce_hits"],
        "serve.simulated": grown["serve.simulated"],
        "serve.hit_ratio": 1.0 - grown["serve.simulated"] / jobs,
        "serve.batch_size_mean": batch_total / batch_count if batch_count else 0.0,
        "router.dispatch_batch_size_mean":
            dispatch_total / dispatch_count if dispatch_count else 0.0,
        "router.steals": grown["router.steals"],
        "pool.jobs": grown["pool.jobs_dispatched"],
        "pool.chunks": grown["pool.chunks_sent"],
        "pool.worker_starts": grown["pool.worker_starts"],
        "pool.config_ships": grown["pool.config_ships"],
        "pool.crash_replacements": grown["pool.crash_replacements"],
    }
