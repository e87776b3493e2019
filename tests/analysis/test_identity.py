"""One simulation identity: golden fingerprints, blob bytes and the config memo.

Every cached run, served job and stats export is keyed by
``fingerprint(job)``.  The digests below are literal: a change that moves
any of them silently orphans every stored blob, so it must be a
deliberate version bump that updates this table.  The stored blob files
are pinned the same way (SHA-256 of the file's bytes): they move only
with ``TIMING_MODEL_VERSION`` or ``CACHE_FORMAT_VERSION``, as
``results/ci_baseline/`` does.
"""

import copy
import dataclasses
import hashlib

import pytest

from repro.analysis.cache import ResultCache, fingerprint
from repro.analysis.parallel import Job
from repro.analysis.runner import ExperimentRunner
from repro.obs.export import build_stats_export
from repro.pipeline.config import FOUR_WIDE
from repro.pipeline.processor import Processor
from repro.serve.protocol import parse_spec
from repro.trace.capture import capture_kernel
from repro.trace.feed import TraceFeed
from repro.trace.run import run_full, run_sampled, sampled_job, trace_job
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

#: trace_sha256 of the corpus trace vector_sum_80k
TRACE = {
    "kind": "trace",
    "trace": "vector_sum_80k",
    "content_hash": "0597e6b63d20f672dbbf51465f66947a50374ff8ff9c81a281634b6d31d3dfae",
}

GOLDEN = [
    (
        {"benchmark": "gzip", "insts": 300, "warmup": 150, "seed": 3},
        "72f4fe2bd5f5beae0900e962bd1f52e7572e581562ae604bc1be6d31daae3ee1",
    ),
    (
        {"benchmark": "gcc", "width": 8, "scheduler": "seq_wakeup",
         "regfile": "sequential", "backend": "native", "shadow": True,
         "insts": 2000, "warmup": 1000, "seed": 7},
        "72c7484a9f7f0a161191dc91561780f562fc6e9c1d649b6ea600859fd13c3116",
    ),
    (
        TRACE,
        "91edf3ccfd3388b16901625c369a40846a4a2668db39d1dad9e00746e97aad1b",
    ),
    (
        {**TRACE, "insts": 5000, "warmup": 100, "shadow": True},
        "7ef19b8e5045257f71c0fc93c6d505f79e39b2cbf2cb58d394395359040e8ed6",
    ),
    (
        {**TRACE, "sampled": True},
        "70f827859830b66e348ad65e2f124ecf556a9619af6f06a78bf4001f7c106653",
    ),
    (
        {**TRACE, "sampled": True, "k": 5, "warm_caches": False},
        "c3dc8a2abd9ecf2983994d2f01a52e6778bb6a3288baec0cbb7b2941cec86293",
    ),
    (
        {"kind": "verify", "source": "addi r1, r0, 5\nhalt\n", "configs": ["base"],
         "budget": 1000},
        "b1244faa9ce09f1af5e1b5c548ae7d5bdc694d1b35e4c1865d9151b441e6fdd9",
    ),
]


@pytest.mark.parametrize(
    "wire,digest", GOLDEN, ids=["run", "run-8wide-native", "trace", "trace-budget",
                                "sampled", "sampled-k5", "verify"]
)
def test_golden_fingerprint(wire, digest):
    spec = parse_spec(wire)
    assert spec.fingerprint() == digest
    if wire.get("kind") != "verify":
        assert fingerprint(spec.job()) == digest


#: the sampling plan of tests/trace/test_corpus.py
SAMPLING = {"interval": 1_000, "k": 2, "warmup": 200}

#: SHA-256 of each published blob file
BLOB_SHA256 = {
    "gzip": "270b5a2e7a4f44807f01f5a82a0eac2cd5f01d660f5b74184a018cf5b968e35c",
    "trace-full": "7ae73e8dc10c8b9695a6586eb3d39edbb9af57e8c1c1742043b7c81ba8f2783f",
    "trace-sampled": "ec4da4f9057378f5b06f6beefcf1b0141fcc33a0d2500943c91b6af219826ce8",
}


class TestBlobBytes:
    """A refactor of the store or the cache must not move a stored byte."""

    @pytest.fixture(scope="class")
    def published(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("blobs")
        cache = ResultCache(root / "store")
        job = Job("gzip", FOUR_WIDE, 3, 300, 150)
        runner = ExperimentRunner(insts=300, warmup=150, seed=3, jobs=1, cache=cache)
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("REPRO_BACKEND", raising=False)  # the key holds the backend
            runner.result(job.benchmark, job.config)
        source = root / "vector_sum.hpt"
        capture_kernel("vector_sum", source, n=1_000)
        feed = TraceFeed(source)
        run_full(feed, FOUR_WIDE, cache=cache)
        run_sampled(feed, FOUR_WIDE, cache=cache, **SAMPLING)
        keys = {
            "gzip": job,
            "trace-full": trace_job(feed.content_hash, FOUR_WIDE),
            "trace-sampled": sampled_job(feed.content_hash, FOUR_WIDE, **SAMPLING),
        }
        blobs = {}
        for name, key in keys.items():
            digest = fingerprint(key)
            blob = cache.directory / digest[:2] / f"{digest}.json"
            blobs[name] = hashlib.sha256(blob.read_bytes()).hexdigest()
        return blobs

    @pytest.mark.parametrize("name", sorted(BLOB_SHA256))
    def test_blob_file_bytes_are_pinned(self, published, name):
        assert published[name] == BLOB_SHA256[name]


class TestConfigMemo:
    JOB = Job("gzip", FOUR_WIDE, 3, 300, 150)

    @pytest.fixture(scope="class")
    def result(self):
        workload = SyntheticWorkload(get_profile("gzip"), seed=3)
        return Processor(workload, FOUR_WIDE).run(max_insts=300, warmup=150)

    def test_mutating_an_export_leaves_the_identity_alone(self, result):
        digest = fingerprint(self.JOB)
        expected = copy.deepcopy(build_stats_export(result, self.JOB)["config"])
        mutated = build_stats_export(result, self.JOB)
        mutated["config"]["width"] = 99
        mutated["config"]["mem"]["dl1"]["size_bytes"] = 1
        assert fingerprint(self.JOB) == digest
        twin = Job("gzip", dataclasses.replace(FOUR_WIDE), 3, 300, 150)
        for job in (self.JOB, twin):
            assert build_stats_export(result, job)["config"] == expected
        assert expected["width"] == 4
        assert expected["mem"]["dl1"]["size_bytes"] == 64 * 1024

    def test_equal_distinct_configs_share_a_digest(self):
        twin = dataclasses.replace(FOUR_WIDE)
        assert twin is not FOUR_WIDE
        assert fingerprint(Job("gzip", twin, 3, 300, 150)) == fingerprint(self.JOB)
