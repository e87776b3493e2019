"""Queue persistence: journal mechanics and crash/restart recovery."""

import json

from repro.analysis.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.executor import JobExecutor
from repro.serve.jobs import JobTable, SpoolJournal
from repro.serve.protocol import parse_spec

from .conftest import tiny_run
from tests.serve.background import BackgroundServer


def _submit(table: JobTable, journal: SpoolJournal, wire: dict):
    job, _coalesced = table.submit(parse_spec(wire))
    journal.record_submit(job)
    return job


class TestSpoolJournal:
    def test_submit_then_recover(self, tmp_path):
        table, journal = JobTable(), SpoolJournal(tmp_path)
        _submit(table, journal, tiny_run())
        _submit(table, journal, tiny_run("gcc"))
        recovered = SpoolJournal(tmp_path).recover()
        assert [job_id for job_id, _spec in recovered] == ["j-000001", "j-000002"]
        assert recovered[0][1].benchmark == "gzip"

    def test_done_jobs_are_not_recovered(self, tmp_path):
        table, journal = JobTable(), SpoolJournal(tmp_path)
        first = _submit(table, journal, tiny_run())
        _submit(table, journal, tiny_run("gcc"))
        for settled in table.finish(first, result={"kind": "run"}):
            journal.record_done(settled)
        recovered = SpoolJournal(tmp_path).recover()
        assert [job_id for job_id, _spec in recovered] == ["j-000002"]

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        table, journal = JobTable(), SpoolJournal(tmp_path)
        _submit(table, journal, tiny_run())
        with journal.path.open("a") as handle:
            handle.write('{"op": "submit", "id": "j-0000')  # crash mid-write
        recovered = SpoolJournal(tmp_path).recover()
        assert [job_id for job_id, _spec in recovered] == ["j-000001"]

    def test_compact_rewrites_only_pending(self, tmp_path):
        table, journal = JobTable(), SpoolJournal(tmp_path)
        jobs = [_submit(table, journal, tiny_run(seed=index)) for index in range(1, 5)]
        for settled in table.finish(jobs[0], result={}):
            journal.record_done(settled)
        for settled in table.finish(jobs[2], error="boom"):
            journal.record_done(settled)
        journal.compact(table.pending(), next_id=table.next_id)
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 3  # id watermark + one submit per pending job
        fresh = SpoolJournal(tmp_path)
        assert [job_id for job_id, _spec in fresh.recover()] == ["j-000002", "j-000004"]
        assert fresh.next_id == 5

    def test_watermark_prevents_id_reuse_after_compaction(self, tmp_path):
        table, journal = JobTable(), SpoolJournal(tmp_path)
        jobs = [_submit(table, journal, tiny_run(seed=index)) for index in range(1, 4)]
        # The highest-numbered job completes; compaction drops its records.
        for settled in table.finish(jobs[2], result={}):
            journal.record_done(settled)
        journal.compact(table.pending(), next_id=table.next_id)

        fresh_table, fresh_journal = JobTable(), SpoolJournal(tmp_path)
        for job_id, spec in fresh_journal.recover():
            fresh_table.submit(spec, job_id=job_id)
        fresh_table.reserve_next_id(fresh_journal.next_id)
        new_job, _ = fresh_table.submit(parse_spec(tiny_run(seed=99)))
        assert new_job.id == "j-000004"  # j-000003 is never reissued


class TestCrashRestart:
    def test_crash_loses_nothing_and_restart_completes(self, tmp_path):
        spool = tmp_path / "spool"
        cache = tmp_path / "cache"
        specs = [tiny_run(seed=seed) for seed in range(4)]

        # Phase 1: accept jobs but never run them (workers=0), then crash.
        first = BackgroundServer(
            port=0, workers=0, spool=spool,
            executor=JobExecutor(cache=ResultCache(cache)),
        )
        first.start()
        ids = [r["id"] for r in ServeClient(first.base_url).submit(specs)]
        first.stop(graceful=False)  # simulated crash: no drain, no compaction

        # The journal still holds every submission, none marked done.
        assert len(SpoolJournal(spool).recover()) == 4

        # Phase 2: a fresh process over the same spool finishes the backlog.
        second = BackgroundServer(
            port=0, workers=2, spool=spool,
            executor=JobExecutor(cache=ResultCache(cache)),
        )
        with second:
            client = ServeClient(second.base_url)
            for job_id in ids:
                document = client.wait(job_id, timeout=60, poll=1.0)
                assert document["status"] == "done"
                assert document["id"] == job_id  # original ids survive restart
        assert SpoolJournal(spool).recover() == []

    def test_graceful_drain_persists_queued_jobs(self, tmp_path):
        spool = tmp_path / "spool"
        server = BackgroundServer(
            port=0, workers=0, spool=spool,
            executor=JobExecutor(cache=ResultCache(tmp_path / "cache")),
        )
        server.start()
        ServeClient(server.base_url).submit([tiny_run(seed=s) for s in range(3)])
        server.stop(graceful=True)
        # Drain compacts the journal down to the id watermark plus
        # exactly the pending jobs.
        lines = SpoolJournal(spool).path.read_text().splitlines()
        assert len(lines) == 4
        assert len(SpoolJournal(spool).recover()) == 3

    def test_restart_does_not_resimulate_coalesced_backlog(self, tmp_path):
        spool = tmp_path / "spool"
        cache = tmp_path / "cache"
        first = BackgroundServer(
            port=0, workers=0, spool=spool,
            executor=JobExecutor(cache=ResultCache(cache)),
        )
        first.start()
        # Six jobs, two distinct fingerprints.
        ids = [
            r["id"]
            for r in ServeClient(first.base_url).submit(
                [tiny_run()] * 3 + [tiny_run("gcc")] * 3
            )
        ]
        first.stop(graceful=False)

        executor = JobExecutor(cache=ResultCache(cache))
        second = BackgroundServer(port=0, workers=2, spool=spool, executor=executor)
        with second:
            client = ServeClient(second.base_url)
            for job_id in ids:
                assert client.wait(job_id, timeout=60, poll=1.0)["status"] == "done"
            assert executor.simulated() == 2  # coalescing re-established on recovery

    def test_job_answered_at_admission_is_journaled_done(self, tmp_path):
        spool = tmp_path / "spool"
        cache = tmp_path / "cache"
        first = BackgroundServer(
            port=0, workers=1, spool=spool,
            executor=JobExecutor(cache=ResultCache(cache)),
        )
        first.start()
        client = ServeClient(first.base_url)
        client.submit_and_wait([tiny_run(seed=41)], timeout=60)
        (answered,) = client.submit(tiny_run(seed=41))
        assert answered["status"] == "done"
        first.stop(graceful=False)  # simulated crash: no compaction

        records = [json.loads(line) for line in SpoolJournal(spool).path.read_text().splitlines()]
        assert [r["op"] for r in records if r.get("id") == answered["id"]] == ["submit", "done"]

        second = BackgroundServer(
            port=0, workers=0, spool=spool,
            executor=JobExecutor(cache=ResultCache(cache)),
        )
        with second:
            assert second.server.recovered == 0
            (fresh,) = ServeClient(second.base_url).submit(tiny_run(seed=42))
        assert int(fresh["id"].split("-")[1]) > int(answered["id"].split("-")[1])
