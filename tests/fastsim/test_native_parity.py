"""Bit-parity of the native backend against the python reference.

The heavyweight gate is ``repro fuzz --cross-backend`` (random programs,
full config matrix); these tests pin a fast deterministic slice of the
same contract in tier-1: identical serialized results — every counter,
histogram and predictor-bank count — on representative machine variants,
plus the cross-backend fuzz plumbing itself.  Every parity test is
parameterized over the fast backends and skips cleanly when the compiled
extension is missing.
"""

import dataclasses
import json

import pytest

from repro.analysis.cache import serialize_result
from repro.fastsim import make_processor, native_available
from repro.memory import CacheConfig, MemoryHierarchyConfig
from repro.pipeline.config import (
    EIGHT_WIDE,
    FOUR_WIDE,
    BypassModel,
    RecoveryModel,
    RegFileModel,
    RenameModel,
    SchedulerModel,
)
from repro.workloads.feed import EmulatorFeed, ReplayFeed
from repro.workloads.kernels import kernel_program
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticWorkload

_VARIANTS = {
    "base": FOUR_WIDE,
    "seq-wakeup+sel": FOUR_WIDE.with_techniques(
        scheduler=SchedulerModel.SEQ_WAKEUP, recovery=RecoveryModel.SELECTIVE
    ),
    "tag-elim": FOUR_WIDE.with_techniques(scheduler=SchedulerModel.TAG_ELIM),
    "kitchen-sink": FOUR_WIDE.with_techniques(
        scheduler=SchedulerModel.SEQ_WAKEUP,
        regfile=RegFileModel.SEQUENTIAL,
        rename=RenameModel.HALF_PORTS,
        bypass=BypassModel.HALF,
        recovery=RecoveryModel.SELECTIVE,
    ),
    "8-wide": EIGHT_WIDE,
}

#: Fast backends under parity test.
_FAST_BACKENDS = ("native",)


def _require_native():
    if not native_available():
        pytest.skip(
            "native backend needs the compiled extension "
            "(pip install -e .[native])"
        )


def _payload(processor, insts, warmup):
    result = processor.run(max_insts=insts, warmup=warmup)
    return json.dumps(serialize_result(result), sort_keys=True)


def _assert_parity(
    make_feed, config, fast_backend, insts=1_200, warmup=0, shadow=None
):
    payloads = {}
    for backend in ("python", fast_backend):
        processor = make_processor(
            make_feed(), config, backend=backend, shadow_sizes=shadow
        )
        payloads[backend] = _payload(processor, insts, warmup)
    assert payloads["python"] == payloads[fast_backend]


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
@pytest.mark.parametrize("name", sorted(_VARIANTS))
def test_synthetic_workload_parity(name, backend):
    _require_native()
    config = _VARIANTS[name]
    _assert_parity(
        lambda: SyntheticWorkload(get_profile("gzip"), seed=3), config, backend
    )


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
def test_parity_with_warmup_and_shadow_bank(backend):
    _require_native()
    _assert_parity(
        lambda: SyntheticWorkload(get_profile("gcc"), seed=7),
        FOUR_WIDE,
        backend,
        warmup=200,
        shadow=(64, 256),
    )


#: Every level and latency differs from Table 1: the native engine takes
#: its cache geometry and latencies from ``config.mem``.
_SMALL_MEMORY = MemoryHierarchyConfig(
    il1=CacheConfig("IL1", 1024, 1, 32),
    dl1=CacheConfig("DL1", 512, 2, 16),
    l2=CacheConfig("L2", 4096, 4, 64),
    il1_latency=1,
    dl1_latency=3,
    l2_latency=11,
    memory_latency=40,
)


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
@pytest.mark.parametrize("profile", ["gcc", "mcf"])
def test_non_table1_memory_geometry_parity(profile, backend):
    _require_native()
    config = dataclasses.replace(FOUR_WIDE, name="small-memory", mem=_SMALL_MEMORY)
    _assert_parity(
        lambda: SyntheticWorkload(get_profile(profile), seed=3),
        config,
        backend,
        insts=3_000,
        warmup=1_000,
    )


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
def test_emulator_feed_parity(backend):
    """A generator feed (an emulator run) is bit-exact too."""
    _require_native()
    program = kernel_program("pointer_chase")
    _assert_parity(
        lambda: EmulatorFeed(program, name="pointer_chase"), FOUR_WIDE, backend
    )


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
def test_replay_feed_parity(backend):
    """A materialized list feed (ReplayFeed) matches the reference too."""
    _require_native()
    workload = SyntheticWorkload(get_profile("vortex"), seed=5)
    feed = ReplayFeed.from_stream(workload, 1_600)
    _assert_parity(lambda: feed_copy(feed), FOUR_WIDE, backend)


def feed_copy(feed):
    """Fresh ReplayFeed over the same ops (processors consume feeds once)."""
    return ReplayFeed(
        feed.ops, name=feed.name, pc_address=getattr(feed, "pc_address", None)
    )


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
def test_short_run_encodes_only_what_it_can_fetch(backend):
    """A list feed streams through chunked ingest like a generator feed.

    A 300 + 150 run on a 20k-op ReplayFeed encodes its budget plus the
    in-flight window, not the whole list; ``pc_address`` runs once per
    encoded op, so its call count is the number of ops encoded.
    """
    _require_native()
    workload = SyntheticWorkload(get_profile("gzip"), seed=3)
    ops = ReplayFeed.from_stream(workload, 20_000).ops
    encoded = []

    def pc_address(pc):
        encoded.append(pc)
        return pc * 4

    feed = ReplayFeed(ops, name="long", pc_address=pc_address)
    config = FOUR_WIDE
    processor = make_processor(feed, config, backend=backend)
    result = processor.run(max_insts=300, warmup=150)
    assert result.total_committed >= 450
    in_flight = config.ruu_size + config.width * config.front_depth
    assert len(encoded) <= 450 + in_flight


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
def test_fast_backends_are_single_run(backend):
    _require_native()
    workload = SyntheticWorkload(get_profile("gzip"), seed=3)
    processor = make_processor(workload, FOUR_WIDE, backend=backend)
    processor.run(max_insts=300, warmup=0)
    with pytest.raises(Exception, match="single-run"):
        processor.run(max_insts=300, warmup=0)


def test_cross_backend_fuzz_smoke():
    """A short cross-backend fuzz session through the real orchestration.

    Covers every installed backend (the default resolution), so on a
    checkout with the extension built this is a python/native byte-parity
    check; with python alone there is nothing to compare against and the
    session must refuse to run rather than pass vacuously.
    """
    from repro.errors import ConfigurationError
    from repro.verify.fuzz import config_matrix, run_fuzz

    if not native_available():
        with pytest.raises(ConfigurationError, match="at least two"):
            run_fuzz(1, seed=11, cross_backend=True)
        return
    report = run_fuzz(
        3,
        seed=11,
        configs=config_matrix(names=["base", "tag-elim+sel"]),
        cross_backend=True,
    )
    assert report.ok, report.summary()
    assert report.checked == 3 * 3  # 3 programs x (base x2 recoveries + 1)
    assert report.backends == ("python", "native")


def test_cross_backend_fuzz_pinned_backends_fail_loudly(monkeypatch):
    """Without native, --cross-backend refuses instead of narrowing the gate."""
    import repro.verify.fuzz as fuzz_mod
    from repro.errors import ConfigurationError

    monkeypatch.setattr(fuzz_mod, "available_backends", lambda: ("python",))
    with pytest.raises(ConfigurationError, match="at least two"):
        fuzz_mod.run_fuzz(1, seed=11, cross_backend=True)


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
def test_runner_serves_all_backends_identically(monkeypatch, backend):
    """REPRO_BACKEND flows through the runner; stats stay bit-identical."""
    _require_native()
    from repro.analysis.runner import ExperimentRunner

    payloads = {}
    for choice in ("python", backend):
        monkeypatch.setenv("REPRO_BACKEND", choice)
        runner = ExperimentRunner(
            insts=800, warmup=200, seed=3, benchmarks=("gzip",), cache=False
        )
        result = runner.result("gzip", FOUR_WIDE)
        payloads[choice] = json.dumps(serialize_result(result), sort_keys=True)
    assert payloads["python"] == payloads[backend]
