"""Unit and property tests for the set-associative cache model."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.memory.cache import Cache, CacheConfig


def tiny_cache(assoc=2, sets=4, line=16):
    return Cache(CacheConfig("T", assoc * sets * line, assoc, line))


class TestConfig:
    def test_num_sets(self):
        config = CacheConfig("X", 64 * 1024, 4, 16)
        assert config.num_sets == 1024

    @pytest.mark.parametrize(
        "size,assoc,line",
        [(0, 1, 16), (1024, 0, 16), (1024, 1, 0), (1000, 2, 16), (1024, 2, 24)],
    )
    def test_bad_geometry_rejected(self, size, assoc, line):
        with pytest.raises(ConfigurationError):
            CacheConfig("X", size, assoc, line)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("X", 3 * 2 * 16, 2, 16)


class TestAccess:
    def test_cold_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True

    def test_same_line_hits(self):
        cache = tiny_cache(line=16)
        cache.access(0x100)
        assert cache.access(0x10F) is True

    def test_adjacent_line_misses(self):
        cache = tiny_cache(line=16)
        cache.access(0x100)
        assert cache.access(0x110) is False

    def test_lru_eviction(self):
        cache = tiny_cache(assoc=2, sets=1, line=16)
        cache.access(0x000)
        cache.access(0x010)
        cache.access(0x020)  # evicts 0x000
        assert cache.access(0x010) is True
        assert cache.access(0x000) is False
        assert cache.stats.evictions >= 1

    def test_hit_refreshes_lru(self):
        cache = tiny_cache(assoc=2, sets=1, line=16)
        cache.access(0x000)
        cache.access(0x010)
        cache.access(0x000)  # refresh: 0x010 is now LRU
        cache.access(0x020)  # evicts 0x010
        assert cache.access(0x000) is True
        assert cache.access(0x010) is False

    def test_sets_are_independent(self):
        cache = tiny_cache(assoc=1, sets=2, line=16)
        cache.access(0x000)  # set 0
        cache.access(0x010)  # set 1
        assert cache.access(0x000) is True
        assert cache.access(0x010) is True

    def test_stats(self):
        cache = tiny_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x1000)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.miss_rate == pytest.approx(2 / 3)

    def test_miss_rate_empty(self):
        assert tiny_cache().stats.miss_rate == 0.0

    def test_stats_reset(self):
        cache = tiny_cache()
        cache.access(0x0)
        cache.stats.reset()
        assert cache.stats.accesses == 0


class TestProbeInvalidateFlush:
    def test_probe_does_not_fill(self):
        cache = tiny_cache()
        assert cache.probe(0x100) is False
        assert cache.access(0x100) is False  # still a miss

    def test_probe_does_not_touch_lru(self):
        cache = tiny_cache(assoc=2, sets=1, line=16)
        cache.access(0x000)
        cache.access(0x010)
        cache.probe(0x000)  # must NOT refresh
        cache.access(0x020)  # evicts 0x000 (true LRU)
        assert cache.probe(0x000) is False

    def test_invalidate(self):
        cache = tiny_cache()
        cache.access(0x100)
        assert cache.invalidate(0x100) is True
        assert cache.probe(0x100) is False
        assert cache.invalidate(0x100) is False

    def test_flush(self):
        cache = tiny_cache()
        cache.access(0x100)
        cache.access(0x200)
        cache.flush()
        assert cache.resident_lines == 0

    def test_line_address(self):
        cache = tiny_cache(line=32)
        assert cache.line_address(0x105) == 0x100


class TestLazySets:
    def test_fresh_cache_holds_no_sets(self):
        cache = Cache(CacheConfig("L2", 512 * 1024, 4, 64))  # 2048 sets
        assert len(cache._sets) == 0

    def test_only_an_access_builds_a_set(self):
        cache = tiny_cache(assoc=2, sets=4, line=16)
        assert cache.probe(0x100) is False
        assert cache.invalidate(0x100) is False
        assert cache.resident_lines == 0
        assert len(cache._sets) == 0
        cache.access(0x100)
        cache.access(0x110)  # the next set
        assert len(cache._sets) == 2
        cache.flush()
        assert len(cache._sets) == 0


class EagerLRU:
    """Reference model: every set built up front, as a list of tags in
    LRU order (the cache model before sets were built on first use)."""

    def __init__(self, assoc, sets, line):
        self.assoc, self.sets, self.line = assoc, sets, line
        self.lines = [OrderedDict() for _ in range(sets)]
        self.hits = self.misses = self.evictions = 0

    def _locate(self, addr):
        tag = addr // self.line
        return self.lines[tag % self.sets], tag

    def access(self, addr, write):
        lines, tag = self._locate(addr)
        if tag in lines:
            self.hits += 1
            lines.move_to_end(tag)
            return True
        self.misses += 1
        if len(lines) == self.assoc:
            lines.popitem(last=False)
            self.evictions += 1
        lines[tag] = write
        return False

    def probe(self, addr):
        lines, tag = self._locate(addr)
        return tag in lines

    def invalidate(self, addr):
        lines, tag = self._locate(addr)
        return lines.pop(tag, None) is not None

    def flush(self):
        for lines in self.lines:
            lines.clear()

    @property
    def resident_lines(self):
        return sum(len(lines) for lines in self.lines)


_CACHE_OPS = st.one_of(
    st.tuples(st.just("access"), st.integers(0, 0x3FF), st.booleans()),
    st.tuples(st.sampled_from(["probe", "invalidate"]), st.integers(0, 0x3FF)),
    st.tuples(st.just("flush")),
)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_CACHE_OPS, max_size=300))
    def test_lazy_sets_match_an_eager_reference(self, ops):
        cache = tiny_cache(assoc=2, sets=8, line=16)
        reference = EagerLRU(assoc=2, sets=8, line=16)
        for name, *args in ops:
            assert getattr(cache, name)(*args) == getattr(reference, name)(*args)
            assert cache.resident_lines == reference.resident_lines
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (
            reference.hits, reference.misses, reference.evictions
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = tiny_cache(assoc=2, sets=4, line=16)
        for addr in addrs:
            cache.access(addr)
        assert cache.resident_lines <= 8
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=200))
    def test_immediate_rereference_always_hits(self, addrs):
        cache = tiny_cache()
        for addr in addrs:
            cache.access(addr)
            assert cache.probe(addr) is True

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=100)
    )
    def test_small_working_set_fits(self, addrs):
        """A working set within one way's reach never evicts after warmup."""
        cache = tiny_cache(assoc=4, sets=4, line=16)  # 16 lines capacity
        for addr in addrs:  # addresses span at most 256 B = 16 lines
            cache.access(addr)
        for addr in addrs:
            assert cache.access(addr) is True
