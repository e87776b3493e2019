"""Acceptance soak: 200 submissions, 20 configs, one graceful restart.

Mirrors the issue's acceptance criterion end to end: 200 concurrent
submissions over 20 distinct configurations must complete with at most
20 actual simulations (coalescing proven), zero lost jobs across one
graceful restart, and stats bytes identical to the offline path.
"""

import random
import threading

from repro.analysis.cache import ResultCache
from repro.analysis.runner import ExperimentRunner
from repro.obs.export import write_stats_json
from repro.serve.client import ServeClient
from repro.serve.executor import JobExecutor
from repro.serve.protocol import parse_spec
from tests.serve.background import BackgroundServer

SOAK = {"insts": 120, "warmup": 60}

# 20 distinct configs: 2 benchmarks x 5 seeds x 2 schedulers.
CONFIGS = [
    {"kind": "run", "benchmark": benchmark, "seed": seed, "scheduler": scheduler, **SOAK}
    for benchmark in ("gzip", "gcc")
    for seed in range(5)
    for scheduler in ("base", "seq_wakeup")
]


def _submit_concurrently(base_url: str, specs: list[dict], threads: int = 8) -> list[str]:
    """Submit specs from many threads at once; returns job ids in order."""
    ids: list[str | None] = [None] * len(specs)
    errors: list[Exception] = []
    chunks = [list(range(i, len(specs), threads)) for i in range(threads)]

    def worker(indexes: list[int]) -> None:
        client = ServeClient(base_url, timeout=30)
        try:
            for index in indexes:
                (receipt,) = client.submit(specs[index])
                ids[index] = receipt["id"]
        except Exception as exc:  # surfaced below; keeps other threads going
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(chunk,)) for chunk in chunks]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    assert not errors, errors
    assert all(job_id is not None for job_id in ids)
    return ids  # type: ignore[return-value]


def test_soak_200_submissions_restart_and_parity(tmp_path):
    rng = random.Random(2003)
    specs = [CONFIGS[rng.randrange(len(CONFIGS))] for _ in range(200)]
    # Every distinct config appears at least once in the 200.
    for config in CONFIGS:
        specs[specs.index(config) if config in specs else 0] = config
    spool = tmp_path / "spool"
    cache = tmp_path / "cache"

    # Phase 1: accept the first half, let workers start chewing, then
    # drain gracefully mid-flight.
    first = BackgroundServer(
        port=0, workers=2, spool=spool,
        executor=JobExecutor(cache=ResultCache(cache)),
    )
    first.start()
    first_ids = _submit_concurrently(first.base_url, specs[:100])
    first.stop(graceful=True)

    # Jobs that finished before the drain already delivered results; the
    # rest must survive the restart under their original ids.
    done_before_restart = {
        job_id for job_id, job in first.server.table.jobs.items() if job.status == "done"
    }
    recovered_ids = [job_id for job_id in first_ids if job_id not in done_before_restart]
    assert len(done_before_restart) + len(recovered_ids) == 100  # nothing dropped

    # Phase 2: a restarted server recovers the unfinished backlog and
    # takes the second half of the load.
    executor = JobExecutor(cache=ResultCache(cache))
    second = BackgroundServer(port=0, workers=4, spool=spool, executor=executor)
    second.start()
    try:
        second_ids = _submit_concurrently(second.base_url, specs[100:])
        client = ServeClient(second.base_url, timeout=30)
        all_ids = first_ids + second_ids
        statuses = dict.fromkeys(done_before_restart, "done")
        for job_id in recovered_ids + second_ids:
            statuses[job_id] = client.wait(job_id, timeout=300, poll=2.0)["status"]

        # Zero lost jobs: every one of the 200 ids reached `done`.
        assert len(all_ids) == 200 and len(set(all_ids)) == 200
        assert len(statuses) == 200
        assert all(status == "done" for status in statuses.values())

        # Coalescing proven: at most one simulation per distinct config,
        # across both server generations combined (shared disk cache).
        total_simulated = first.server.executor.simulated() + executor.simulated()
        assert total_simulated <= len(CONFIGS)

        # Byte parity with the offline path for a sample of the results.
        offline = ExperimentRunner(
            insts=SOAK["insts"], warmup=SOAK["warmup"],
            cache=ResultCache(tmp_path / "offline-cache"),
        )
        for index in rng.sample(range(100, 200), 3):
            wire = specs[index]
            spec = parse_spec(wire)
            job_id = all_ids[index]
            document = client.job(job_id)["result"]["stats"]
            served = write_stats_json(document, tmp_path / "served")
            direct = offline.export_run(
                spec.benchmark, spec.config(), tmp_path / "offline",
                seed=spec.seed, shadow=spec.shadow,
            )
            assert served.read_bytes() == direct.read_bytes()
    finally:
        second.stop(graceful=True)
