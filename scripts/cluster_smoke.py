#!/usr/bin/env python
"""CI soak test for the cluster serving tier (docs/SERVING.md, Cluster mode).

Boots one router and three workers as real subprocesses over a shared
result store, drives a 1000-job sweep with heavy fingerprint overlap,
SIGKILLs one worker mid-run, and asserts the cluster's core guarantees:

* zero lost jobs — every one of the 1000 submissions reaches ``done``;
* bounded work — the store holds exactly one blob per unique
  fingerprint, and the surviving workers' simulation counters sum to at
  most the unique-fingerprint count (the shared store turns the dead
  worker's finished work into hits, never recomputes of published blobs
  into duplicates);
* byte parity — every unique result served through the cluster is
  byte-identical to what offline ``repro export-stats`` writes for the
  same inputs;
* answered at admission — resubmitting the sweep's unique specs once
  more returns every receipt already ``done``, carrying its job
  document, and dispatches nothing; waiting on them sends no request;
* kept-alive connections — the router accepts at most a tenth as many
  connections as it answers requests;
* no leaked claims — after the drain, every store claim file left
  behind names the SIGKILLed worker's pid (a leaked claim would stall
  its fingerprint for ``REPRO_CLAIM_STALE_S``);
* no orphans — the warm pool workers the SIGKILLed worker had forked
  exit with it instead of living on under init (Linux ``/proc`` only).

A metrics snapshot (router queue depth, latency quantiles, dispatch and
re-dispatch counters, per-worker state) is written to
``cluster-smoke-artifacts/`` for CI to upload.

Run from the repository root:  PYTHONPATH=src python scripts/cluster_smoke.py
"""

import contextlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.analysis.cache import ResultCache  # noqa: E402
from repro.analysis.runner import ExperimentRunner  # noqa: E402
from repro.analysis.store import QUARANTINE_DIR  # noqa: E402
from repro.obs.export import write_stats_json  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.protocol import parse_spec  # noqa: E402

WORKERS = 3
JOBS = 1000
BATCH = 50
RUN = {"insts": 300, "warmup": 150}
BENCHMARKS = ("gzip", "gcc", "bzip", "mcf", "twolf")
SEEDS = (11, 12, 13, 14, 15)
ARTIFACTS = Path(os.environ.get("CLUSTER_SMOKE_ARTIFACTS", "cluster-smoke-artifacts"))

_processes: list[subprocess.Popen] = []


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def boot(args: list[str], announce_re: str, env: dict) -> tuple[subprocess.Popen, str]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    _processes.append(process)
    line = process.stdout.readline()
    match = re.search(announce_re, line)
    if not match:
        fail(f"no announce line matching {announce_re!r}: {line!r}")
    return process, match.group(1)


def stat_fields(pid) -> list[str]:
    """``/proc/<pid>/stat`` after the command name (state, ppid, ...);
    empty once the process is gone, or where there is no ``/proc``."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def is_live(pid) -> bool:
    """Running or sleeping: an exited zombie nobody reaped is not live."""
    fields = stat_fields(pid)
    return bool(fields) and fields[0] != "Z"


def live_children(pid: int) -> list[int]:
    return [
        int(entry.name)
        for entry in Path("/proc").glob("[0-9]*")
        if stat_fields(entry.name)[1:2] == [str(pid)] and is_live(entry.name)
    ]


def main() -> None:
    scratch = Path(tempfile.mkdtemp(prefix="cluster-smoke-"))
    store = scratch / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # Shrink the claim-stale horizon so the SIGKILLed worker's abandoned
    # store claims are taken over in seconds, not minutes.
    env["REPRO_CLAIM_STALE_S"] = "5"
    # Workers fan batched misses out over a 2-process warm pool on any
    # host, so the SIGKILLed worker has pool children to orphan.
    env["REPRO_JOBS"] = "2"

    workers = []
    for index in range(WORKERS):
        process, url = boot(
            ["--worker", "--port", "0", "--workers", "2",
             "--name", f"w{index}", "--store", str(store),
             "--spool", str(scratch / f"spool-w{index}")],
            r"worker \[w\d\] on (http://\S+)", env,
        )
        workers.append((process, url))
        print(f"worker w{index} up at {url}")

    router_process, router_url = boot(
        ["--router", "--port", "0", "--spool", str(scratch / "router-spool"),
         *(part for _p, url in workers for part in ("--worker-url", url))],
        r"routing on (http://\S+)", env,
    )
    print(f"router up at {router_url}")

    client = ServeClient(router_url, timeout=60)

    # 1000 jobs over 25 unique fingerprints (5 benchmarks x 5 seeds),
    # shuffled so overlap arrives interleaved, like a real sweep fanout.
    unique = [
        {"benchmark": benchmark, "seed": seed, **RUN}
        for benchmark in BENCHMARKS
        for seed in SEEDS
    ]
    sweep = [dict(spec) for spec in unique * (JOBS // len(unique))]
    random.Random(7).shuffle(sweep)

    receipts = []
    killed = False
    orphans_to_check: list[int] = []
    started = time.monotonic()
    for offset in range(0, len(sweep), BATCH):
        receipts.extend(client.submit(sweep[offset:offset + BATCH]))
        if not killed and offset >= len(sweep) // 2:
            # Mid-run, with work in flight: hard-kill one worker.  Its
            # jobs must re-dispatch to the survivors with no losses.
            victim, victim_url = workers[0]
            orphans_to_check = live_children(victim.pid)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            killed = True
            print(
                f"SIGKILLed worker w0 ({victim_url}) mid-run, "
                f"with {len(orphans_to_check)} pool children"
            )
    if len(receipts) != JOBS:
        fail(f"expected {JOBS} receipts, got {len(receipts)}")

    # No orphans: the dead worker's pool children see EOF and exit.
    deadline = time.monotonic() + 10
    while any(map(is_live, orphans_to_check)) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = [pid for pid in orphans_to_check if is_live(pid)]
    for pid in orphans:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    if orphans:
        fail(f"the SIGKILLed worker left live pool children {orphans}")

    statuses = {}
    for receipt in receipts:
        document = client.wait(receipt["id"], timeout=600, poll=2.0)
        statuses[receipt["id"]] = document["status"]
    elapsed = time.monotonic() - started

    # Zero lost jobs.
    if len(statuses) != JOBS:
        fail(f"{JOBS - len(statuses)} job ids were dropped")
    not_done = [job_id for job_id, status in statuses.items() if status != "done"]
    if not_done:
        fail(f"{len(not_done)} jobs did not finish: {not_done[:5]}")

    fingerprints = {receipt["fingerprint"] for receipt in receipts}
    if len(fingerprints) != len(unique):
        fail(f"expected {len(unique)} unique fingerprints, saw {len(fingerprints)}")

    # Bounded work: one published blob per fingerprint, and the surviving
    # workers simulated at most once per fingerprint.
    blobs = [
        blob for blob in store.rglob("*.json") if QUARANTINE_DIR not in blob.parts
    ]
    if len(blobs) != len(fingerprints):
        fail(f"store holds {len(blobs)} blobs for {len(fingerprints)} fingerprints")
    survivor_simulated = 0
    for _process, url in workers[1:]:
        metrics = ServeClient(url, timeout=30).metrics()["metrics"]
        survivor_simulated += metrics.get("serve.simulated", 0)
    if survivor_simulated > len(fingerprints):
        fail(
            f"survivors simulated {survivor_simulated} times for "
            f"{len(fingerprints)} unique fingerprints"
        )
    print(
        f"{JOBS} jobs done in {elapsed:.1f}s: {len(fingerprints)} unique "
        f"fingerprints, {len(blobs)} store blobs, "
        f"{survivor_simulated} survivor simulations"
    )

    # Byte parity: every unique result == the offline export-stats bytes.
    offline = ExperimentRunner(
        insts=RUN["insts"], warmup=RUN["warmup"],
        cache=ResultCache(scratch / "offline-cache"),
    )
    by_fingerprint = {}
    for index, receipt in enumerate(receipts):
        by_fingerprint.setdefault(receipt["fingerprint"], (receipt["id"], sweep[index]))
    for fingerprint, (job_id, wire) in sorted(by_fingerprint.items()):
        spec = parse_spec(dict(wire))
        document = client.job(job_id)["result"]["stats"]
        served = write_stats_json(document, scratch / "served")
        direct = offline.export_run(
            spec.benchmark, spec.config(), scratch / "offline", seed=spec.seed
        )
        if served.read_bytes() != direct.read_bytes():
            fail(f"served stats for {spec.benchmark}/seed={spec.seed} differ from offline export")
    print(f"byte parity verified for all {len(by_fingerprint)} unique results")

    # Answered at admission: every unique spec has a done primary on the
    # router, so resubmitting them settles each one on the spot and
    # dispatches nothing to a worker.
    dispatches = client.metrics()["metrics"].get("router.dispatches", 0)
    repeats = client.submit([dict(spec) for spec in unique])
    late = [receipt["id"] for receipt in repeats if receipt["status"] != "done"]
    if late:
        fail(f"{len(late)} resubmitted finished specs were not done at submit: {late[:5]}")
    counters = client.metrics()["metrics"]
    grown = counters.get("router.dispatches", 0) - dispatches
    if grown:
        fail(f"resubmitting finished specs dispatched {grown} jobs to workers")
    bare = [
        receipt["id"] for receipt in repeats
        if receipt.get("document", {}).get("status") != "done"
        or receipt["document"].get("fingerprint") != receipt["fingerprint"]
    ]
    if bare:
        fail(f"{len(bare)} done receipts carry no done document of their job: {bare[:5]}")
    # Their waits are answered from the receipts: the only request
    # between the two /metrics reads is the second read itself.
    requests = counters.get("router.http_requests", 0)
    for receipt in repeats:
        client.wait(receipt["id"], timeout=60)
    sent = client.metrics()["metrics"].get("router.http_requests", 0) - requests - 1
    if sent:
        fail(f"waiting on {len(repeats)} done receipts sent {sent} requests")
    print(f"all {len(repeats)} resubmitted unique specs were done at submit, "
          "and waiting on them sent no request")

    # Snapshot router metrics for the CI artifact before draining.
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    router_metrics = client.metrics()
    (ARTIFACTS / "router_metrics.json").write_text(
        json.dumps(router_metrics, indent=2, sort_keys=True) + "\n"
    )
    workers_view = client.request("GET", "/v1/workers")
    (ARTIFACTS / "workers.json").write_text(
        json.dumps(workers_view, indent=2, sort_keys=True) + "\n"
    )
    counters = router_metrics["metrics"]
    print(
        "router: "
        f"dispatches={counters.get('router.dispatches', 0)} "
        f"redispatches={counters.get('router.redispatches', 0)} "
        f"evictions={counters.get('router.worker_evictions', 0)} "
        f"coalesce_hits={counters.get('router.coalesce_hits', 0)}"
    )
    # Kept-alive connections: the client's requests ride a few connections
    # (a new one only after the router closes an idle one).
    requests = counters.get("router.http_requests", 0)
    connections = counters.get("router.http_connections", 0)
    print(f"router: {requests} requests over {connections} accepted connections")
    if not connections or connections * 10 > requests:
        fail(f"the router accepted {connections} connections for {requests} requests")
    if counters.get("router.worker_evictions", 0) < 1:
        fail("the router never marked the SIGKILLed worker unhealthy in its roster")
    # Each submitted batch holds at most len(unique) distinct fingerprints,
    # so at least BATCH - len(unique) jobs per batch must coalesce (more
    # coalesce when a primary from an earlier batch is still pending).
    floor = (JOBS // BATCH) * (BATCH - len(unique))
    if counters.get("router.coalesce_hits", 0) < floor:
        fail("cluster-wide coalescing fell short of the overlap in the sweep")

    # Graceful drain of the whole cluster: router first, then survivors.
    for process, label in [(router_process, "router")] + [
        (process, url) for process, url in workers[1:]
    ]:
        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            fail(f"{label} did not exit within 60s of SIGTERM")
        if code != 0:
            fail(f"{label} exited {code} on SIGTERM")

    # No leaked claims: the drained processes released every claim they
    # took (batched drains hold one per simulated miss); only the
    # SIGKILLed worker may have left any.  Claim files hold "<pid> <time>".
    victim_pid = str(workers[0][0].pid)
    leftover = sorted(store.rglob("*.claim"))
    for claim in leftover:
        holder = (claim.read_text().split() or ["<empty>"])[0]
        if holder != victim_pid:
            fail(f"claim {claim.name} left by pid {holder}, not the SIGKILLed worker {victim_pid}")
    print(f"{len(leftover)} claims left in the store, all the SIGKILLed worker's")
    print("PASS: cluster smoke")


if __name__ == "__main__":
    try:
        main()
    finally:
        for process in _processes:
            if process.poll() is None:
                process.kill()
                process.wait()
