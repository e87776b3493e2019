"""Tests for the synthetic SPEC benchmark generator."""

import gc
import hashlib
import itertools
import os
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workloads.feed import StreamStats, collect_stream
from repro.workloads.profiles import (
    SPEC_BENCHMARKS,
    SPEC_PROFILES,
    BenchmarkProfile,
    get_profile,
)
from repro.analysis.parallel import Job, execute_job
from repro.fastsim import apply_backend, make_processor, native_available
from repro.pipeline.config import FOUR_WIDE
from repro.workloads.synthetic import (
    SHARED_OPS,
    SHARED_PROGRAMS,
    SyntheticWorkload,
    clear_shared_workloads,
    shared_workload,
)
from repro.workloads.trace import DynOp


def static_size(workload: SyntheticWorkload) -> int:
    """Number of static instructions in *workload*'s synthetic program."""
    return len(workload._ops)


@pytest.fixture(scope="module")
def bzip():
    return SyntheticWorkload(get_profile("bzip"), seed=7)


class TestProfiles:
    def test_all_twelve_present(self):
        assert set(SPEC_PROFILES) == set(SPEC_BENCHMARKS)
        assert len(SPEC_BENCHMARKS) == 12

    def test_paper_references_attached(self):
        for name in SPEC_BENCHMARKS:
            paper = get_profile(name).paper
            assert paper is not None
            assert paper.base_ipc_8w > paper.base_ipc_4w

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            get_profile("doom")

    def test_validation_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            BenchmarkProfile(
                name="bad", frac_load=1.5, frac_store=0.1, frac_branch=0.1
            )

    def test_validation_rejects_fat_mix(self):
        with pytest.raises(ConfigurationError):
            BenchmarkProfile(
                name="bad", frac_load=0.5, frac_store=0.3, frac_branch=0.2
            )


class TestDeterminism:
    def test_same_seed_same_stream(self, bzip):
        first = [(op.pc, op.taken, op.mem_addr) for op in collect_stream(bzip, 2000)]
        second = [(op.pc, op.taken, op.mem_addr) for op in collect_stream(bzip, 2000)]
        assert first == second

    def test_different_seed_different_stream(self):
        profile = get_profile("gzip")
        a = [op.pc for op in collect_stream(SyntheticWorkload(profile, 1), 500)]
        b = [op.pc for op in collect_stream(SyntheticWorkload(profile, 2), 500)]
        assert a != b

    def test_seq_numbers_sequential(self, bzip):
        ops = collect_stream(bzip, 100)
        assert [op.seq for op in ops] == list(range(100))


class TestStreamStructure:
    def test_control_flow_is_consistent(self, bzip):
        """Each op's next_pc equals the following op's pc."""
        ops = collect_stream(bzip, 3000)
        for prev, cur in itertools.pairwise(ops):
            assert prev.next_pc == cur.pc

    def test_branches_have_targets(self, bzip):
        for op in collect_stream(bzip, 3000):
            if op.is_branch and op.opcode != "BR":
                assert op.static_target is not None
                if op.taken:
                    assert op.next_pc == op.static_target

    def test_memory_ops_have_addresses(self, bzip):
        for op in collect_stream(bzip, 3000):
            if op.is_load or op.is_store:
                assert op.mem_addr is not None and op.mem_addr >= 0
            else:
                assert op.mem_addr is None

    def test_stores_schedule_on_base_only(self, bzip):
        for op in collect_stream(bzip, 3000):
            if op.is_store:
                assert len(op.sched_deps) <= 1
                assert op.store_data_reg is not None

    def test_pc_addresses_monotonic(self, bzip):
        addresses = [bzip.pc_address(pc) for pc in range(static_size(bzip))]
        assert addresses == sorted(addresses)
        assert all(addr % 4 == 0 for addr in addresses)

    def test_static_size_reasonable(self, bzip):
        assert 50 <= static_size(bzip) <= 5000


class TestCharacterizationRanges:
    """The generated streams must land inside the paper's quoted ranges."""

    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_two_source_format_fraction(self, name):
        workload = SyntheticWorkload(get_profile(name), seed=11)
        stats = StreamStats.from_stream(workload, limit=20_000)
        # Paper Figure 2: 18~36% including stores; stores are tracked
        # separately here, so allow a generous non-store band.
        assert 0.06 <= stats.frac_two_source_format <= 0.45, name

    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_two_source_fraction(self, name):
        workload = SyntheticWorkload(get_profile(name), seed=11)
        stats = StreamStats.from_stream(workload, limit=20_000)
        # Paper Figure 3: 6~23% have two unique non-zero sources.
        assert 0.03 <= stats.frac_two_source <= 0.30, name

    @pytest.mark.parametrize("name", SPEC_BENCHMARKS)
    def test_store_fraction_tracks_profile(self, name):
        """Dynamic store fraction stays near the static knob.

        Loops weight blocks non-uniformly, so the dynamic mix legitimately
        drifts from the static target; the tolerance reflects that.
        """
        profile = get_profile(name)
        workload = SyntheticWorkload(profile, seed=11)
        stats = StreamStats.from_stream(workload, limit=20_000)
        assert stats.frac_stores == pytest.approx(profile.frac_store, abs=0.07)


class TestWorkingSet:
    def test_addresses_within_working_set(self):
        profile = get_profile("crafty")
        workload = SyntheticWorkload(profile, seed=3)
        for op in collect_stream(workload, 5000):
            if op.mem_addr is not None:
                offset = op.mem_addr - 0x1000_0000
                assert 0 <= offset < profile.working_set_bytes + profile.stride_bytes

    def test_mcf_has_pointer_chase_loads(self):
        workload = SyntheticWorkload(get_profile("mcf"), seed=3)
        chase_deps = 0
        for op in collect_stream(workload, 5000):
            if op.is_load and op.sched_deps and 20 <= op.sched_deps[0] < 24:
                chase_deps += 1
        assert chase_deps > 100  # plenty of load-load chains


class TestPropertyBased:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_any_seed_streams_cleanly(self, seed):
        workload = SyntheticWorkload(get_profile("parser"), seed=seed)
        ops = collect_stream(workload, 300)
        assert len(ops) == 300
        for op in ops:
            assert 0 <= op.pc < static_size(workload)


#: sha256 prefixes of the first 2000 ops (the fields below) of every
#: profile's stream at seeds 1, 2 and 3.  Every figure, CI baseline and
#: stored result derives from these streams, so a cleanup of the program
#: builder or of ``stream()`` must leave them unchanged.
STREAM_DIGESTS = {
    "bzip": ("ffece51fe0413ceb", "3daef05e76b1bf19", "1827b0cfabda8666"),
    "crafty": ("504ec8608971f390", "ac9658fc2d683dc9", "82d4ad0d0da71505"),
    "eon": ("01bb5294945f62da", "594a7f99e80cfac2", "59b22f361feae00f"),
    "gap": ("1456eded7b354b04", "101e6ed9a23e0df7", "5de2e2c3855c3ae4"),
    "gcc": ("6dc2b6f51f12c727", "7f0e88a7538c5cd3", "bc0d4f5e086483de"),
    "gzip": ("b38bf7e591edd20e", "2607450fff2fc4bc", "2c1e30ba0148c5eb"),
    "mcf": ("35cfccf8852b262a", "6b21cd3135e68bb9", "2e1b61b137490b38"),
    "parser": ("25ff1460bfdba634", "3ff1efb54d63121c", "a0b47df0586f25eb"),
    "perl": ("b66e8c9cdbf82220", "f82812b66bbd7adf", "bde9203f5c740329"),
    "twolf": ("80979cfe379ce2b0", "ad4d4f3a77d74e4f", "0ae4f74c52c44537"),
    "vortex": ("c5a646b3c5422940", "819159a33ecfe814", "eb6e85fe07d6ca6f"),
    "vpr": ("a7b52cfbfea0332d", "78a0e66e83e056d0", "4dd47566bcf25746"),
}
_DIGEST_FIELDS = (
    "pc", "opcode", "dest", "srcs", "sched_deps", "store_data_reg", "mem_addr",
    "taken", "next_pc", "static_target", "is_two_source_format", "is_eliminated_nop",
)


@pytest.mark.parametrize("name", SPEC_BENCHMARKS)
def test_streams_match_recorded_digests(name):
    digests = []
    for seed in (1, 2, 3):
        stream = SyntheticWorkload(get_profile(name), seed=seed).stream()
        digest = hashlib.sha256()
        for op in itertools.islice(stream, 2000):
            digest.update(repr(tuple(getattr(op, f) for f in _DIGEST_FIELDS)).encode())
        digests.append(digest.hexdigest()[:16])
    assert tuple(digests) == STREAM_DIGESTS[name]


def _slots(op):
    return tuple(getattr(op, slot) for slot in DynOp.__slots__)


@pytest.fixture
def fresh_memo():
    clear_shared_workloads()
    yield
    clear_shared_workloads()


class TestSharedFeed:
    """The per-process memo replays one stream per (profile, seed)."""

    PAIR = ("gcc", 5)

    def _reference(self):
        workload = SyntheticWorkload(get_profile(self.PAIR[0]), seed=self.PAIR[1])
        return [_slots(op) for op in collect_stream(workload, 2 * SHARED_OPS)]

    def test_interleaved_iterators_replay_a_fresh_stream(self, fresh_memo):
        feed = shared_workload(*self.PAIR)
        first, second = iter(feed), iter(feed)
        pairs = [(next(first), next(second)) for _ in range(2 * SHARED_OPS)]
        assert all(a is b for a, b in pairs[:SHARED_OPS])
        reference = self._reference()
        assert [_slots(a) for a, _ in pairs] == reference
        assert [_slots(b) for _, b in pairs] == reference

    def test_threads_replay_a_fresh_stream(self, fresh_memo):
        feed = shared_workload(*self.PAIR)
        results = [None] * 4

        def consume(slot):
            results[slot] = [_slots(op) for op in collect_stream(feed, 2 * SHARED_OPS)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=consume, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        reference = self._reference()
        assert results == [reference] * 4

    def test_memo_returns_one_feed_per_pair(self, fresh_memo):
        feed = shared_workload(*self.PAIR)
        assert shared_workload(*self.PAIR) is feed
        assert feed.name == self.PAIR[0]
        assert feed.pc_address(7) == feed.workload.pc_address(7)

    def test_evicted_workload_is_freed_without_the_cyclic_gc(self, fresh_memo):
        gc.disable()
        try:
            execute_job(Job(self.PAIR[0], FOUR_WIDE, self.PAIR[1], 300, 150))
            feed = shared_workload(*self.PAIR)
            partial = iter(feed)
            next(partial)
            ref = weakref.ref(feed.workload)
            del feed, partial
            for seed in range(100, 100 + SHARED_PROGRAMS):
                shared_workload(self.PAIR[0], seed)
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_runs_leave_the_shared_ops_unchanged(self, fresh_memo, backend):
        if backend == "native" and not native_available():
            pytest.skip("native extension not built")
        feed = shared_workload(*self.PAIR)
        ops = collect_stream(feed, SHARED_OPS)
        before = [_slots(op) for op in ops]
        config = apply_backend(FOUR_WIDE, backend)
        make_processor(feed, config, backend=backend).run(max_insts=2000, warmup=500)
        assert collect_stream(feed, SHARED_OPS) == ops
        assert [_slots(op) for op in ops] == before

    def test_fork_while_an_entry_lock_is_held(self, fresh_memo):
        name, seed = self.PAIR
        feed = shared_workload(name, seed)
        held, release = threading.Event(), threading.Event()

        def hold():
            with feed._lock:
                held.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=10)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                code = 1
                try:
                    execute_job(Job(name, FOUR_WIDE, seed, 300, 150))
                    code = 0
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 60
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            if not done:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            assert done and os.waitstatus_to_exitcode(status) == 0
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
