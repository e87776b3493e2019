#!/usr/bin/env python
"""CI smoke test for the job server (see docs/SERVING.md).

Boots ``repro serve`` as a real subprocess, submits a 20-job sweep with
overlapping specs, asserts that coalescing actually happened (coalesce-hit
counter > 0, simulations <= distinct fingerprints) and that batched
dispatch engaged (a ``serve.batch_size`` bucket > 1) with zero lost jobs,
checks that resubmitting the finished sweep and waiting on it costs one
request (its receipts carry their done job documents), then SIGTERMs the server and asserts a clean drain.  The final metrics
snapshot (queue depth, latency histogram, counters) lands in
``serve-smoke-artifacts/`` for CI to upload.

Run from the repository root:  PYTHONPATH=src python scripts/serve_smoke.py
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.serve.client import ServeClient  # noqa: E402

ARTIFACTS = Path(os.environ.get("SERVE_SMOKE_ARTIFACTS", "serve-smoke-artifacts"))


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    spool = tempfile.mkdtemp(prefix="serve-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--spool", spool, "--no-cache"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"serving on (http://\S+)", line)
        if not match:
            fail(f"server did not announce its address: {line!r}")
        base_url = match.group(1)
        print(f"server up at {base_url}")

        client = ServeClient(base_url, timeout=30)
        # 20 jobs over 5 distinct configs: 4-way overlap per fingerprint.
        sweep = [
            {"benchmark": benchmark, "seed": seed, "insts": 300, "warmup": 150}
            for benchmark in ("gzip", "gcc", "bzip", "mcf", "twolf")
            for _repeat in range(4)
            for seed in (11,)
        ]
        receipts = client.submit(sweep)
        if len(receipts) != 20:
            fail(f"expected 20 receipts, got {len(receipts)}")
        for receipt in receipts:
            document = client.wait(receipt["id"], timeout=300)
            if document["status"] != "done":
                fail(f"job {receipt['id']} ended {document['status']}")

        snapshot = client.metrics()
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        (ARTIFACTS / "server_metrics.json").write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
        metrics = snapshot["metrics"]
        coalesce_hits = metrics.get("serve.coalesce_hits", 0)
        simulated = metrics.get("serve.simulated", 0)
        print(f"20 jobs done: {coalesce_hits} coalesce hits, {simulated} simulations")
        if coalesce_hits <= 0:
            fail("no coalesce hits on an overlapping sweep")
        if simulated > 5:
            fail(f"{simulated} simulations for 5 distinct configs")
        # Batched dispatch must engage (all 5 primaries land in one POST
        # before a worker wakes) and must not lose or fail a single job.
        batches = metrics.get("serve.batch_size", {})
        print(f"batch sizes drained: {batches}")
        if not any(int(size) > 1 for size in batches):
            fail(f"batched dispatch never engaged: serve.batch_size={batches}")
        if metrics.get("serve.failed", 0):
            fail(f"{metrics['serve.failed']} job(s) failed during the sweep")

        # The sweep again: every receipt is done at admission and carries
        # its job document, so submit_and_wait costs the POST alone.
        requests = metrics.get("serve.http_requests", 0)
        documents = client.submit_and_wait(sweep, timeout=60)
        if any(document["status"] != "done" for document in documents):
            fail("a resubmitted finished spec did not end done")
        sent = client.metrics()["metrics"].get("serve.http_requests", 0) - requests
        # the POST and this /metrics read
        if sent != 2:
            fail(f"resubmitting the finished sweep sent {sent - 1} requests, not 1")
        print("the finished sweep resubmitted and waited on in one request")

        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            fail("server did not exit within 60s of SIGTERM")
        tail = process.stdout.read()
        print(tail, end="")
        if code != 0:
            fail(f"server exited {code} on SIGTERM")
        if "drained:" not in tail:
            fail("server did not report a drain summary")
        print("PASS: serve smoke")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    main()
