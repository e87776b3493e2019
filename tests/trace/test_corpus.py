"""The shipped corpus, and content-hash (never path) cache identity."""

import hashlib
import json
import shutil

import pytest

from repro.analysis.cache import ResultCache, fingerprint, serialize_result
from repro.analysis.runner import SHADOW_SIZES
from repro.fastsim import apply_backend
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


#: sha256 of ``serialize_result(run_full(...))`` and of the sampled report
#: on the first PINNED_INSTS records of each committed trace, on the python
#: backend.  Any change to simulated timing, statistics or trace decoding
#: moves one of them; a deliberate timing-model change re-records them.
PINNED_INSTS = 20_000
PINNED_SAMPLING = {"interval": 2_500, "k": 4, "warmup": 500}
PINNED = {
    "vector_sum_80k": (
        "551421a84059a55cbfdba46e362012e47212a1d41cd5b3e5c37107279ac75fa3",
        "35ea663103ccbf59bc2fb9069884f8e9a09b8369fe70e88df925b4e2081ed07f",
    ),
    "dotproduct_96k": (
        "b5f73bb97f2ae9e05d5121eda9d21c4151aa165db51e84f1c58db5032301f456",
        "5d2728c679deace49705cb3a97a704b5289d9126e8a60ad318ebc2087cb83756",
    ),
    "strsearch_76k": (
        "8906071436920b31c1b58c637026f2aafc4da223591a1b79cac585c5aec4a64f",
        "2c0cff9f31987ac74a30cbf1573b7c3aa5d50523daf4413895a69bd2668f21fc",
    ),
    "hash_probe_71k": (
        "f7071092a7686c830e5e598f67b06dc40d4a7d8b3efdddb9053fd940199847e2",
        "38d96cd1ef6bfd41a9a54434ff6bc690a3fd99622174c062ade0ea08944b4ac7",
    ),
    "bubble_sort_104k": (
        "9a7fe9a09f7a3689bcdacd06ab9efa553e7b3ae391243153085fad560c205407",
        "b119c3bfe952ef4958b840edf54bcc36f98c64ae038a29550dc86e906efaf75a",
    ),
    "sieve_105k": (
        "3f1b3edb74d8009fa664594614350e56a6f26332a76478c0f3b8157bf7cb37ab",
        "e0fb1c25cda9af45eebafa9f578e761b0d9dce1bff9e4a5d5888551befcbd672",
    ),
}


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestPinnedOutputs:
    """Full and sampled runs of every committed trace, byte for byte."""

    def test_every_committed_trace_is_pinned(self):
        assert sorted(PINNED) == sorted(entry.name for entry in CORPUS if entry.committed)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_full_and_sampled_outputs(self, name):
        config = apply_backend(FOUR_WIDE, "python")
        feed = load_corpus_feed(name, limit=PINNED_INSTS)
        full = run_full(feed, config, shadow_sizes=SHADOW_SIZES)
        report = run_sampled(feed, config, **PINNED_SAMPLING)
        assert (_sha256(serialize_result(full)), _sha256(report)) == PINNED[name]
