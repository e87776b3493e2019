"""Self-validating result-cache records: corrupt files are misses.

Regression tests for the partial-write hazard: before v2 of the record
format, any JSON that parsed and carried the right fingerprint was served
as a hit — a torn write that flushed only a prefix (or a hand-edited
record) could feed wrong numbers into every downstream figure.  Records
now embed a checksum over their own payload and are rejected wholesale on
any mismatch.
"""

import json

from repro.analysis.cache import CACHE_FORMAT_VERSION, ResultCache, fingerprint
from repro.analysis.parallel import Job
from repro.analysis.store import record_checksum
from repro.pipeline.config import FOUR_WIDE
from repro.pipeline.processor import Processor
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

JOB = Job("gzip", FOUR_WIDE, 3, 300, 150)


def store_one(tmp_path):
    workload = SyntheticWorkload(get_profile(JOB.benchmark), seed=JOB.seed)
    result = Processor(workload, FOUR_WIDE).run(max_insts=JOB.insts, warmup=JOB.warmup)
    cache = ResultCache(tmp_path)
    path = cache.store(JOB, result)
    return cache, path, result


def load_one(cache):
    return cache.load(JOB)


class TestRecordChecksum:
    def test_stored_record_carries_valid_checksum(self, tmp_path):
        _, path, _ = store_one(tmp_path)
        record = json.loads(path.read_text())
        assert record["checksum"] == record_checksum(record)

    def test_intact_record_is_a_hit(self, tmp_path):
        cache, _, result = store_one(tmp_path)
        loaded = load_one(cache)
        assert loaded is not None
        assert loaded.total_cycles == result.total_cycles
        assert cache.hits == 1

    def test_tampered_counter_is_a_miss(self, tmp_path):
        cache, path, _ = store_one(tmp_path)
        record = json.loads(path.read_text())
        record["counters"]["committed"] += 1  # bit rot / manual edit
        path.write_text(json.dumps(record, sort_keys=True))
        assert load_one(cache) is None
        assert cache.hits == 0

    def test_missing_checksum_is_a_miss(self, tmp_path):
        """A pre-v2 style record (no checksum field) is never served."""
        cache, path, _ = store_one(tmp_path)
        record = json.loads(path.read_text())
        del record["checksum"]
        path.write_text(json.dumps(record, sort_keys=True))
        assert load_one(cache) is None

    def test_truncated_file_is_a_miss(self, tmp_path):
        cache, path, _ = store_one(tmp_path)
        payload = path.read_text()
        path.write_text(payload[: len(payload) // 2])  # torn write
        assert load_one(cache) is None

    def test_partial_record_with_valid_json_is_a_miss(self, tmp_path):
        """The original hazard: a parseable record missing whole sections."""
        cache, path, _ = store_one(tmp_path)
        record = json.loads(path.read_text())
        del record["order"]  # JSON landed, but only partially materialized
        path.write_text(json.dumps(record, sort_keys=True))
        assert cache.load(JOB) is None

    def test_structurally_broken_record_never_crashes(self, tmp_path):
        """Even with a 'valid' checksum, a malformed record is just a miss."""
        cache, path, _ = store_one(tmp_path)
        record = json.loads(path.read_text())
        del record["order"]
        record["checksum"] = record_checksum(record)  # adversarial re-sign
        path.write_text(json.dumps(record, sort_keys=True))
        assert load_one(cache) is None

    def test_corrupt_record_recomputes_and_heals(self, tmp_path):
        cache, path, result = store_one(tmp_path)
        path.write_text("}{ not json")
        assert load_one(cache) is None
        # Re-store overwrites the broken file and it serves again.
        cache.store(JOB, result)
        assert load_one(cache) is not None

    def test_format_version_participates_in_fingerprint(self):
        """Bumping the record format invalidates every old record key."""
        digest = fingerprint(JOB)
        assert CACHE_FORMAT_VERSION >= 2
        assert len(digest) == 64
