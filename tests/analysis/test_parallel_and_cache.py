"""Determinism and invalidation tests for the parallel engine + result cache.

The contract under test (docs/PERFORMANCE.md): results served through the
process pool or the on-disk cache are indistinguishable from a fresh serial
simulation, and the cache never serves a record whose fingerprint inputs
(workload, seed, run lengths, machine config, timing-model version) changed.
"""

import dataclasses
import json

import pytest

import repro.analysis.cache as cache_mod
import repro.analysis.runner as runner_mod
from repro.analysis import experiments
from repro.analysis.cache import ResultCache, fingerprint, serialize_result
from repro.analysis.parallel import Job, env_int, execute_job, run_jobs
from repro.analysis.runner import SHADOW_SIZES, ExperimentRunner
from repro.pipeline.config import FOUR_WIDE, SchedulerModel
from repro.workloads.synthetic import clear_shared_workloads

INSTS = 600
WARMUP = 800
SEQ_WAKEUP = FOUR_WIDE.with_techniques(scheduler=SchedulerModel.SEQ_WAKEUP)


def _signature(result):
    return (result.total_cycles, result.total_committed, result.ipc)


class TestDeterminism:
    def test_pool_matches_serial(self):
        jobs = [
            Job(benchmark, config, 42, INSTS, WARMUP)
            for benchmark in ("gzip", "mcf")
            for config in (FOUR_WIDE, SEQ_WAKEUP)
        ]
        serial = [execute_job(job) for job in jobs]
        pooled = run_jobs(jobs, workers=2)
        assert [_signature(r) for r in pooled] == [_signature(r) for r in serial]

    def test_cache_round_trip_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh = execute_job(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP))
        cache.store(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP), fresh)
        loaded = cache.load(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP))
        assert loaded is not None
        assert _signature(loaded) == _signature(fresh)
        assert loaded.stats.replayed == fresh.stats.replayed
        assert loaded.stats.branch_mispredicts == fresh.stats.branch_mispredicts

    def test_shadow_bank_survives_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh = execute_job(
            Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP, shadow_sizes=SHADOW_SIZES)
        )
        cache.store(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP, SHADOW_SIZES), fresh)
        loaded = cache.load(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP, SHADOW_SIZES))
        assert loaded.stats.shadow_bank.accuracy_table() == (
            fresh.stats.shadow_bank.accuracy_table()
        )
        assert loaded.stats.shadow_bank.frac_simultaneous == (
            fresh.stats.shadow_bank.frac_simultaneous
        )

    def test_runner_disk_layer_matches_fresh_compute(self, tmp_path):
        writer = ExperimentRunner(
            insts=INSTS, warmup=WARMUP, benchmarks=("gzip",),
            cache=ResultCache(tmp_path),
        )
        computed = writer.result("gzip", FOUR_WIDE)
        reader = ExperimentRunner(
            insts=INSTS, warmup=WARMUP, benchmarks=("gzip",),
            cache=ResultCache(tmp_path),
        )
        served = reader.result("gzip", FOUR_WIDE)
        assert reader.cache.hits == 1
        assert _signature(served) == _signature(computed)

    def test_second_prefetch_simulates_nothing(self, tmp_path):
        requests = [("gzip", FOUR_WIDE, 42, False), ("mcf", FOUR_WIDE, 42, False)]
        writer = ExperimentRunner(
            insts=INSTS, warmup=WARMUP, benchmarks=("gzip", "mcf"), jobs=1,
            cache=ResultCache(tmp_path),
        )
        assert writer.prefetch(requests) == 2
        reader = ExperimentRunner(
            insts=INSTS, warmup=WARMUP, benchmarks=("gzip", "mcf"), jobs=1,
            cache=ResultCache(tmp_path),
        )
        assert reader.prefetch(requests) == 0
        assert reader.cache.hits == 2

    def test_shared_feeds_match_fresh_programs_in_fig14_order(self, monkeypatch):
        """The pool and an inline run, both replaying shared feeds, give
        the bytes of runs that each build their program afresh."""
        submitted = []

        def record(jobs, workers=None):
            submitted.extend(jobs)
            return [execute_job(job) for job in jobs]

        monkeypatch.setattr(runner_mod, "run_jobs", record)
        runner = ExperimentRunner(
            insts=300, warmup=150, benchmarks=("gzip", "mcf", "vortex"), cache=False
        )
        experiments.fig14(runner)
        monkeypatch.undo()
        assert len(submitted) == 3 * 2 * 4

        def encoded(results):
            return [json.dumps(serialize_result(r), sort_keys=True) for r in results]

        fresh = []
        for job in submitted:
            clear_shared_workloads()
            fresh.append(execute_job(job))
        clear_shared_workloads()
        assert encoded(run_jobs(submitted, workers=2)) == encoded(fresh)
        assert encoded(run_jobs(submitted, workers=1)) == encoded(fresh)


class TestCacheInvalidation:
    def _store_one(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_job(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP))
        cache.store(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP), result)
        return cache

    def test_identical_params_hit(self, tmp_path):
        cache = self._store_one(tmp_path)
        assert cache.load(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP)) is not None
        assert cache.hits == 1

    def test_model_version_bump_misses(self, tmp_path, monkeypatch):
        cache = self._store_one(tmp_path)
        monkeypatch.setattr(
            cache_mod, "TIMING_MODEL_VERSION", cache_mod.TIMING_MODEL_VERSION + 1
        )
        assert cache.load(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP)) is None

    # the parameter is named "bench": pytest-benchmark reserves "benchmark"
    @pytest.mark.parametrize(
        "bench,seed,insts,warmup",
        [
            ("mcf", 42, INSTS, WARMUP),
            ("gzip", 43, INSTS, WARMUP),
            ("gzip", 42, INSTS + 1, WARMUP),
            ("gzip", 42, INSTS, WARMUP + 1),
        ],
    )
    def test_changed_run_identity_misses(self, tmp_path, bench, seed, insts, warmup):
        cache = self._store_one(tmp_path)
        assert cache.load(Job(bench, FOUR_WIDE, seed, insts, warmup)) is None

    def test_changed_config_misses(self, tmp_path):
        cache = self._store_one(tmp_path)
        assert cache.load(Job("gzip", SEQ_WAKEUP, 42, INSTS, WARMUP)) is None
        renamed = dataclasses.replace(FOUR_WIDE, ruu_size=FOUR_WIDE.ruu_size * 2)
        assert cache.load(Job("gzip", renamed, 42, INSTS, WARMUP)) is None

    def test_shadow_request_is_a_distinct_key(self, tmp_path):
        cache = self._store_one(tmp_path)
        assert cache.load(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP, SHADOW_SIZES)) is None

    def test_fingerprint_tracks_model_version(self, monkeypatch):
        before = fingerprint(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP))
        monkeypatch.setattr(
            cache_mod, "TIMING_MODEL_VERSION", cache_mod.TIMING_MODEL_VERSION + 1
        )
        after = fingerprint(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP))
        assert before != after

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cache = self._store_one(tmp_path)
        blobs = list(tmp_path.rglob("*.json"))
        assert blobs, "store published no blob"
        for path in blobs:
            path.write_text("{ not json")
        assert cache.load(Job("gzip", FOUR_WIDE, 42, INSTS, WARMUP)) is None


class TestEnvInt:
    def test_garbage_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "three")
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_KNOB"):
            assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_valid_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "5")
        assert env_int("REPRO_TEST_KNOB", 7) == 5

    def test_absent_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7) == 7
