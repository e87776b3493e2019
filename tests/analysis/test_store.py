"""Contract tests for the shared content-addressed result store.

The store is the durability substrate of the cluster serving tier
(docs/SERVING.md, "Cluster mode"): atomic first-writer-wins publication,
checksum-verified reads with quarantine of torn blobs, and cross-process
claims that keep two threads or processes from simulating one
fingerprint.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading
import time

import pytest

from repro.analysis import runner as runner_mod
from repro.analysis.cache import ResultCache, fingerprint, serialize_result
from repro.analysis.parallel import Job
from repro.analysis.runner import ExperimentRunner
from repro.analysis.store import (
    QUARANTINE_DIR,
    DirectoryStore,
    record_checksum,
)
from repro.fastsim import apply_backend
from repro.pipeline.config import FOUR_WIDE
from repro.serve.executor import JobExecutor
from repro.serve.protocol import parse_spec
from repro.trace import run as trace_run
from repro.trace.capture import capture_kernel
from repro.trace.feed import TraceFeed

INSTS = 300
WARMUP = 150


def _record(fingerprint: str, payload: int = 1) -> dict:
    record = {"fingerprint": fingerprint, "payload": payload}
    record["checksum"] = record_checksum(record)
    return record


FP = "ab" + "0" * 62


class TestPublication:
    def test_round_trip(self, tmp_path):
        store = DirectoryStore(tmp_path)
        assert store.get(FP) is None
        assert store.put(FP, _record(FP)) is True
        loaded = store.get(FP)
        assert loaded is not None and loaded["payload"] == 1
        assert FP in store
        assert store.fingerprints() == [FP]

    def test_first_writer_wins(self, tmp_path):
        store = DirectoryStore(tmp_path)
        assert store.put(FP, _record(FP, payload=1)) is True
        assert store.put(FP, _record(FP, payload=2)) is False
        assert store.get(FP)["payload"] == 1
        assert store.duplicate_publishes == 1

    def test_concurrent_writers_publish_exactly_one_blob(self, tmp_path):
        """N racing writers on one fingerprint leave exactly one blob."""
        store = DirectoryStore(tmp_path)
        barrier = threading.Barrier(8)
        outcomes = []

        def publish(index: int) -> None:
            barrier.wait()
            outcomes.append(store.put(FP, _record(FP, payload=index)))

        threads = [threading.Thread(target=publish, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        blobs = [
            blob
            for blob in tmp_path.rglob("*.json")
            if QUARANTINE_DIR not in blob.parts
        ]
        assert len(blobs) == 1
        # The surviving blob is complete and verifiable, whoever won.
        record = store.get(FP)
        assert record is not None and record["payload"] in range(8)

    def test_blobs_are_sharded_by_prefix(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put(FP, _record(FP))
        assert (tmp_path / FP[:2] / f"{FP}.json").is_file()


class TestQuarantine:
    def test_torn_blob_is_quarantined_and_recomputable(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put(FP, _record(FP))
        path = tmp_path / FP[:2] / f"{FP}.json"
        # Truncate mid-record: the classic torn write.
        path.write_bytes(path.read_bytes()[:10])
        assert store.get(FP) is None
        assert store.quarantined == 1
        # The evidence is preserved, the slot reads empty, and a fresh
        # publication (the recompute) lands cleanly.
        quarantined = list((tmp_path / QUARANTINE_DIR).glob(f"{FP}.*.json"))
        assert len(quarantined) == 1
        assert store.put(FP, _record(FP, payload=9)) is True
        assert store.get(FP)["payload"] == 9

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put(FP, _record(FP))
        path = tmp_path / FP[:2] / f"{FP}.json"
        record = json.loads(path.read_text())
        record["payload"] = 999  # tamper without re-stamping
        path.write_text(json.dumps(record))
        assert store.get(FP) is None
        assert store.quarantined == 1

    def test_wrong_fingerprint_is_quarantined(self, tmp_path):
        store = DirectoryStore(tmp_path)
        other = "cd" + "0" * 62
        store.put(FP, _record(FP))
        # Copy the valid blob into another fingerprint's slot.
        source = tmp_path / FP[:2] / f"{FP}.json"
        target = tmp_path / other[:2] / f"{other}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert store.get(other) is None
        assert store.quarantined == 1

    def test_quarantine_excluded_from_listing(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put(FP, _record(FP))
        path = tmp_path / FP[:2] / f"{FP}.json"
        path.write_text("{ torn")
        assert store.get(FP) is None
        assert store.fingerprints() == []


class TestClaims:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        store = DirectoryStore(tmp_path)
        claim = store.claim(FP)
        assert claim is not None
        assert store.claim(FP) is None
        claim.release()
        second = store.claim(FP)
        assert second is not None
        second.release()

    def test_release_is_idempotent(self, tmp_path):
        store = DirectoryStore(tmp_path)
        claim = store.claim(FP)
        claim.release()
        claim.release()

    def test_stale_claim_is_broken(self, tmp_path, monkeypatch):
        """A claim abandoned by a dead holder does not wedge the slot."""
        monkeypatch.setenv("REPRO_CLAIM_STALE_S", "0.05")
        holder = DirectoryStore(tmp_path)
        assert holder.claim(FP) is not None  # never released: holder "died"
        time.sleep(0.1)
        contender = DirectoryStore(tmp_path)
        taken_over = contender.claim(FP)
        assert taken_over is not None
        taken_over.release()

    def test_wait_sees_publication(self, tmp_path):
        store = DirectoryStore(tmp_path)

        def publish_soon():
            time.sleep(0.05)
            store.put(FP, _record(FP))

        thread = threading.Thread(target=publish_soon)
        thread.start()
        record = store.wait(FP, timeout=5.0)
        thread.join()
        assert record is not None and record["payload"] == 1

    def test_wait_times_out_to_none(self, tmp_path):
        store = DirectoryStore(tmp_path)
        assert store.wait(FP, timeout=0.05) is None


class TestClaimProtocol:
    def test_lookup_or_claim_outcomes(self, tmp_path):
        store = DirectoryStore(tmp_path)
        value, claim = store.lookup_or_claim(FP, lambda record: record)
        assert value is None and claim is not None
        assert store.lookup_or_claim(FP, lambda record: record) == (None, None)
        store.put(FP, _record(FP))
        claim.release()
        value, claim = store.lookup_or_claim(FP, lambda record: record["payload"])
        assert (value, claim) == (1, None)

    def test_undecodable_record_is_a_miss(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put(FP, _record(FP))
        value, claim = store.lookup_or_claim(FP, lambda record: None)
        assert value is None and claim is not None
        claim.release()

    def test_get_or_compute_publishes_before_releasing(self, tmp_path):
        store = DirectoryStore(tmp_path)
        claim_file = tmp_path / FP[:2] / f"{FP}.claim"

        def compute(positions):
            assert claim_file.is_file()  # computed under the claim
            return [("fresh", _record(FP, payload=7))]

        assert store.get_or_compute([FP], compute, lambda record: record["payload"]) == ["fresh"]
        assert store.get(FP)["payload"] == 7
        assert not claim_file.exists()
        assert store.get_or_compute([FP], compute, lambda record: record["payload"]) == [7]

    def test_waiter_takes_over_a_claim_released_without_publishing(
        self, tmp_path, monkeypatch
    ):
        """A holder whose computation failed releases its claim; a waiter
        notices within a fraction of the stale horizon and computes."""
        monkeypatch.setenv("REPRO_CLAIM_STALE_S", "1.0")
        store = DirectoryStore(tmp_path)
        holder = store.claim(FP)
        threading.Timer(0.2, holder.release).start()
        started = time.monotonic()
        value = store.get_or_compute(
            [FP], lambda positions: [("mine", _record(FP))], lambda record: record["payload"]
        )
        assert value == ["mine"]
        assert time.monotonic() - started < 1.0

    def test_batch_publishes_its_claims_before_waiting(self, tmp_path, monkeypatch):
        """One compute call for the keys this caller won; keys held
        elsewhere are waited for only once its own claims are published
        and released, so two batches holding each other's keys never
        stall."""
        monkeypatch.setenv("REPRO_CLAIM_STALE_S", "30")
        store = DirectoryStore(tmp_path)
        hit, mine, theirs = (f"{prefix}{FP[2:]}" for prefix in ("a1", "a2", "a3"))
        store.put(hit, _record(hit, payload=0))
        holder = store.claim(theirs)
        calls = []

        def compute(positions):
            calls.append(positions)
            return [("computed", _record(mine, payload=2)) for _ in positions]

        def publish_after_mine():
            # The other holder needs *mine* before it can finish *theirs*.
            store.wait(mine, timeout=10.0)
            while (tmp_path / mine[:2] / f"{mine}.claim").exists():
                time.sleep(0.01)
            store.put(theirs, _record(theirs, payload=3))
            holder.release()

        other = threading.Thread(target=publish_after_mine)
        other.start()
        started = time.monotonic()
        values = store.get_or_compute(
            [hit, mine, theirs], compute, lambda record: record["payload"]
        )
        other.join()
        assert values == [0, "computed", 3]
        assert calls == [[1]]
        assert time.monotonic() - started < 3.0


class TestRunnerCoalescing:
    """Threads sharing one runner: the store claim is the only dedupe."""

    def test_concurrent_result_calls_simulate_once(self, tmp_path):
        runner = ExperimentRunner(insts=INSTS, warmup=WARMUP, cache=ResultCache(tmp_path))
        start = threading.Barrier(6, timeout=30)
        results = []
        errors = []

        def call():
            try:
                start.wait()
                results.append(runner.result("gzip", FOUR_WIDE, seed=3))
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=call) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not errors
        assert len(results) == 6
        assert runner.metrics.get("runner.simulated").value == 1
        records = [serialize_result(result) for result in results]
        assert all(record == records[0] for record in records)

    def test_prefetch_waits_for_a_miss_claimed_elsewhere(self, tmp_path, monkeypatch):
        """prefetch() returns once the claim holder has published, and the
        result it waited for is in the memo."""
        monkeypatch.setenv("REPRO_CLAIM_STALE_S", "30")
        cache = ResultCache(tmp_path)
        runner = ExperimentRunner(insts=INSTS, warmup=WARMUP, cache=cache)
        job = Job("gzip", apply_backend(FOUR_WIDE), runner.seed, INSTS, WARMUP)
        expected = ExperimentRunner(insts=INSTS, warmup=WARMUP, cache=False).result(
            "gzip", FOUR_WIDE
        )
        holder = cache.backend.claim(fingerprint(job))
        published = threading.Event()

        def publish():
            ResultCache(tmp_path).store(job, expected)
            published.set()
            holder.release()

        timer = threading.Timer(0.3, publish)
        timer.start()
        try:
            assert runner.prefetch([("gzip", FOUR_WIDE, runner.seed, False)]) == 0
            assert published.is_set()
        finally:
            timer.join()
        served = runner.result("gzip", FOUR_WIDE)
        assert runner.metrics.get("runner.memo_hits").value == 1
        assert runner.metrics.get("runner.simulated") is None
        assert serialize_result(served) == serialize_result(expected)

    def test_distinct_seeds_still_simulate_separately(self):
        runner = ExperimentRunner(insts=80, warmup=40, cache=False)
        first = runner.result("gzip", FOUR_WIDE, seed=1)
        second = runner.result("gzip", FOUR_WIDE, seed=2)
        assert first is not second
        assert runner.metrics.get("runner.simulated").value == 2


class _PublishOnClaim(DirectoryStore):
    """A leader that published and released between a caller's miss and
    its claim: ``claim()`` publishes the leader's record, then contends."""

    def __init__(self, root, leader: DirectoryStore):
        super().__init__(root)
        self._pending = {digest: leader.get(digest) for digest in leader.fingerprints()}

    def claim(self, fingerprint):
        if fingerprint in self._pending:
            self.put(fingerprint, self._pending.pop(fingerprint))
        return super().claim(fingerprint)


def _late_cache(root, leader: ResultCache) -> ResultCache:
    """A cache on a store the leader's records reach only at claim time."""
    cache = ResultCache(root)
    cache.backend = _PublishOnClaim(root, leader.backend)
    return cache


def _forbid(*args, **kwargs):
    raise AssertionError("simulated a fingerprint that was published before its claim")


class TestClaimWindow:
    """Winning the claim is not proof of a miss: re-read before computing."""

    @pytest.mark.parametrize("entry", ["result", "prefetch"])
    def test_runner_never_simulates_a_record_published_before_its_claim(
        self, entry, tmp_path, monkeypatch
    ):
        leader = ResultCache(tmp_path / "leader")
        expected = ExperimentRunner(insts=INSTS, warmup=WARMUP, cache=leader).result(
            "gzip", FOUR_WIDE
        )
        runner = ExperimentRunner(
            insts=INSTS, warmup=WARMUP, cache=_late_cache(tmp_path / "store", leader)
        )
        monkeypatch.setattr(runner_mod, "run_jobs", _forbid)
        if entry == "prefetch":
            assert runner.prefetch([("gzip", FOUR_WIDE, runner.seed, False)]) == 0
        served = runner.result("gzip", FOUR_WIDE)
        assert runner.metrics.get("runner.simulated") is None
        assert (served.total_cycles, served.total_committed) == (
            expected.total_cycles,
            expected.total_committed,
        )

    def test_run_full_never_simulates_a_record_published_before_its_claim(
        self, tmp_path, monkeypatch
    ):
        source = tmp_path / "t.hpt"
        capture_kernel("vector_sum", source, n=400)
        leader = ResultCache(tmp_path / "leader")
        expected = trace_run.run_full(TraceFeed(source), FOUR_WIDE, cache=leader)
        cache = _late_cache(tmp_path / "store", leader)
        monkeypatch.setattr(trace_run, "make_processor", _forbid)
        served = trace_run.run_full(TraceFeed(source), FOUR_WIDE, cache=cache)
        assert served.total_cycles == expected.total_cycles


#: entry points that turn a cold miss into a published result
ENTRY_POINTS = ["result", "prefetch", "execute_batch", "run_full"]


def _run_one(entry, directory, trace, barrier, queue):
    cache = ResultCache(directory)
    runner = ExperimentRunner(
        insts=INSTS, warmup=WARMUP, benchmarks=("gzip",), jobs=1, cache=cache
    )
    if entry == "execute_batch":
        executor = JobExecutor(cache=cache, jobs=1)
        spec = parse_spec({"benchmark": "gzip", "insts": INSTS, "warmup": WARMUP})
        barrier.wait(timeout=60)
        [document] = executor.execute_batch([spec])
        queue.put(
            {"simulated": executor.simulated(), "signature": json.dumps(document, sort_keys=True)}
        )
        return
    if entry == "run_full":
        simulated = []
        build = trace_run.make_processor

        def counting_build(*args, **kwargs):
            simulated.append(1)
            return build(*args, **kwargs)

        trace_run.make_processor = counting_build
        feed = TraceFeed(trace)
        barrier.wait(timeout=60)
        result = trace_run.run_full(feed, FOUR_WIDE, cache=cache)
        queue.put({"simulated": len(simulated), "signature": result.total_cycles})
        return
    barrier.wait(timeout=60)
    if entry == "prefetch":
        runner.prefetch([("gzip", FOUR_WIDE, runner.seed, False)])
    result = runner.result("gzip", FOUR_WIDE)
    counter = runner.metrics.get("runner.simulated")
    queue.put(
        {
            "simulated": counter.value if counter is not None else 0,
            "signature": (result.total_cycles, result.total_committed),
        }
    )


class TestCrossProcessSingleflight:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_two_runner_processes_share_one_simulation(self, entry, tmp_path):
        """Two processes on one store, cold misses overlapping: one simulation.

        Whichever entry point turns the miss into a published result, the
        store claim makes one process the computing leader; the other
        waits for — or finds — the published blob instead of duplicating
        the work.
        """
        trace = tmp_path / "t.hpt"
        capture_kernel("vector_sum", trace, n=2_000)
        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        queue = context.Queue()
        processes = [
            context.Process(
                target=_run_one, args=(entry, tmp_path / "store", trace, barrier, queue)
            )
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        outcomes = [queue.get(timeout=120) for _ in processes]
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        assert sum(outcome["simulated"] for outcome in outcomes) == 1
        signatures = {json.dumps(outcome["signature"]) for outcome in outcomes}
        assert len(signatures) == 1  # the waiter got the leader's result
