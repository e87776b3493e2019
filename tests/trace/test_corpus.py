"""The shipped corpus, and content-hash (never path) cache identity."""

import json
import shutil

import pytest

from repro.analysis.cache import ResultCache, fingerprint
from repro.pipeline.config import FOUR_WIDE
from repro.trace import run as trace_run
from repro.trace.capture import capture_kernel
from repro.trace.corpus import (
    CORPUS,
    CORPUS_BY_NAME,
    capture_corpus_entry,
    corpus_listing,
    corpus_path,
    load_corpus_feed,
    resolve_trace,
)
from repro.trace.feed import TraceFeed
from repro.trace.format import TraceFormatError, read_header
from repro.trace.run import run_full, run_sampled, sampled_job, trace_job

#: a small sampling plan: a 4k-instruction trace in 1k windows
SAMPLING = {"interval": 1_000, "k": 2, "warmup": 200}


class TestShippedCorpus:
    def test_every_committed_entry_is_readable(self):
        for entry in CORPUS:
            if not entry.committed:
                continue
            header = read_header(corpus_path(entry))
            assert header["name"] == entry.name
            assert header["source"]["kernel"] == entry.kernel
            assert header["insts"] > 60_000

    def test_committed_files_match_fresh_capture(self, tmp_path):
        entry = CORPUS_BY_NAME["vector_sum_80k"]
        fresh = tmp_path / "fresh.hpt"
        capture_corpus_entry(entry, fresh)
        assert fresh.read_bytes() == corpus_path(entry).read_bytes()

    def test_listing_reports_committed_sizes(self):
        rows = {row["name"]: row for row in corpus_listing()}
        assert rows["sieve_105k"]["insts"] == read_header(corpus_path("sieve_105k"))["insts"]
        assert not rows["vector_sum_1m"].get("insts")

    def test_resolve_prefers_corpus_names_and_errors_helpfully(self, tmp_path):
        assert resolve_trace("sieve_105k") == corpus_path("sieve_105k")
        with pytest.raises(TraceFormatError, match="corpus"):
            resolve_trace("not_a_trace")
        loose = tmp_path / "loose.hpt"
        capture_kernel("fibonacci", loose)
        assert resolve_trace(str(loose)) == loose


class TestContentHashIdentity:
    """Satellite: fingerprints key on file *content*, never path or mtime."""

    def test_fingerprint_survives_copy_and_mtime(self, tmp_path):
        source = tmp_path / "a" / "trace.hpt"
        source.parent.mkdir()
        capture_kernel("fibonacci", source)
        copy = tmp_path / "b" / "renamed.hpt"
        copy.parent.mkdir()
        shutil.copy(source, copy)
        copy.touch()  # fresh mtime
        original = TraceFeed(source)
        moved = TraceFeed(copy)
        assert original.content_hash == moved.content_hash
        assert fingerprint(trace_job(original.content_hash, FOUR_WIDE)) == fingerprint(
            trace_job(moved.content_hash, FOUR_WIDE)
        )

    def test_different_content_changes_the_fingerprint(self, tmp_path):
        whole = tmp_path / "whole.hpt"
        short = tmp_path / "short.hpt"
        capture_kernel("fibonacci", whole)
        capture_kernel("fibonacci", short, limit=100)
        a = TraceFeed(whole).content_hash
        b = TraceFeed(short).content_hash
        assert a != b
        assert fingerprint(trace_job(a, FOUR_WIDE)) != fingerprint(trace_job(b, FOUR_WIDE))

    def test_sampling_plan_changes_the_fingerprint(self, tmp_path):
        path = tmp_path / "t.hpt"
        capture_kernel("fibonacci", path)
        digest = TraceFeed(path).content_hash
        base = fingerprint(sampled_job(digest, FOUR_WIDE))
        assert base != fingerprint(sampled_job(digest, FOUR_WIDE, k=3))
        assert base != fingerprint(sampled_job(digest, FOUR_WIDE, interval=5_000))
        assert base != fingerprint(sampled_job(digest, FOUR_WIDE, warm_caches=False))
        assert base != fingerprint(trace_job(digest, FOUR_WIDE))


class TestCachedRuns:
    def test_run_full_round_trips_through_the_store(self, tmp_path):
        source = tmp_path / "t.hpt"
        capture_kernel("vector_sum", source, n=400)
        feed = TraceFeed(source)
        cache = ResultCache(tmp_path / "cache")
        first = run_full(feed, FOUR_WIDE, cache=cache)
        hits_before = cache.hits
        second = run_full(feed, FOUR_WIDE, cache=cache)
        assert cache.hits == hits_before + 1
        assert second.stats.cycles == first.stats.cycles
        assert second.ipc == first.ipc
        # Published under the fingerprint the serving tier computes for
        # the same wire spec.
        digest = fingerprint(trace_job(feed.content_hash, FOUR_WIDE))
        assert cache.backend.get(digest) is not None

    def test_run_full_refuses_a_non_positive_budget(self, tmp_path):
        """``insts=0`` shares the whole-trace key, so it must never run."""
        source = tmp_path / "t.hpt"
        capture_kernel("vector_sum", source, n=400)
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="insts"):
            run_full(TraceFeed(source), FOUR_WIDE, insts=0, cache=cache)
        assert cache.backend.fingerprints() == []

    def test_cache_is_shared_across_paths(self, tmp_path):
        source = tmp_path / "t.hpt"
        capture_kernel("vector_sum", source, n=400)
        copy = tmp_path / "elsewhere.hpt"
        shutil.copy(source, copy)
        cache = ResultCache(tmp_path / "cache")
        run_full(TraceFeed(source), FOUR_WIDE, cache=cache)
        hits_before = cache.hits
        run_full(TraceFeed(copy), FOUR_WIDE, cache=cache)
        assert cache.hits == hits_before + 1

    def test_run_sampled_second_call_is_served_from_the_store(self, tmp_path, monkeypatch):
        source = tmp_path / "t.hpt"
        capture_kernel("vector_sum", source, n=1_000)
        feed = TraceFeed(source)
        cache = ResultCache(tmp_path / "cache")
        first = run_sampled(feed, FOUR_WIDE, cache=cache, **SAMPLING)

        def explode(*args, **kwargs):
            raise AssertionError("a stored sampled report was simulated again")

        monkeypatch.setattr(trace_run, "simulate_sampled", explode)
        second = run_sampled(TraceFeed(source), FOUR_WIDE, cache=cache, **SAMPLING)
        assert json.dumps(second, sort_keys=True) == json.dumps(first, sort_keys=True)

    def test_tampered_sampled_blob_is_quarantined_and_recomputed(self, tmp_path):
        source = tmp_path / "t.hpt"
        capture_kernel("vector_sum", source, n=1_000)
        feed = TraceFeed(source)
        cache = ResultCache(tmp_path / "cache")
        first = run_sampled(feed, FOUR_WIDE, cache=cache, **SAMPLING)
        digest = fingerprint(sampled_job(feed.content_hash, FOUR_WIDE, **SAMPLING))
        blob = tmp_path / "cache" / digest[:2] / f"{digest}.json"
        record = json.loads(blob.read_text())
        record["report"]["weighted_ipc"] = 99.0  # tamper without re-stamping
        blob.write_text(json.dumps(record))

        again = run_sampled(feed, FOUR_WIDE, cache=cache, **SAMPLING)
        assert cache.backend.quarantined == 1
        assert json.dumps(again, sort_keys=True) == json.dumps(first, sort_keys=True)
        # The recompute republished a verifiable blob in the slot.
        assert cache.backend.get(digest)["report"] == first

    def test_load_corpus_feed_limit(self):
        feed = load_corpus_feed("vector_sum_80k", limit=500)
        assert len(feed.ops) == 500
