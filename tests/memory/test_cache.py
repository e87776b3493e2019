"""Unit and property tests for the set-associative cache model."""

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
        """Hits and misses are read from the access results."""
        cache = tiny_cache()
        results = [cache.access(addr) for addr in (0x0, 0x0, 0x1000)]
        assert results == [False, True, False]

    def test_miss_rate_empty(self):
        """A fresh cache misses on the first access to every line."""
        cache = tiny_cache(assoc=2, sets=4, line=16)
        lines = range(0, 8 * 16, 16)  # exactly fills the cache
        assert [cache.access(addr) for addr in lines] == [False] * 8
        assert [cache.access(addr) for addr in lines] == [True] * 8

    def test_stats_reset(self):
        """A cache keeps nothing to reset but its lines: no counters and
        no per-line state beside the tag."""
        cache = tiny_cache()
        for addr in (0x0, 0x0, 0x1000, 0x2000):
            cache.access(addr)
        assert Cache.__slots__ == ("config", "_line_shift", "_set_mask", "_sets")
        assert all(
            value is None for lines in cache._sets.values() for value in lines.values()
        )


class TestProbeInvalidateFlush:
    """Queries fill nothing, and a line leaves a cache only by eviction."""

    def test_probe_does_not_fill(self):
        cache = tiny_cache()
        assert cache.line_address(0x100) == 0x100
        assert len(cache._sets) == 0
        assert cache.access(0x100) is False  # still a miss

    def test_probe_does_not_touch_lru(self):
        cache = tiny_cache(assoc=2, sets=1, line=16)
        cache.access(0x000)
        cache.access(0x010)
        cache.line_address(0x000)  # must NOT refresh
        cache.access(0x020)  # evicts 0x000 (true LRU)
        assert cache.access(0x000) is False

    def test_invalidate(self):
        """An evicted line misses once, is filled again, then hits."""
        cache = tiny_cache(assoc=2, sets=1, line=16)
        for addr in (0x000, 0x010, 0x020):  # the third evicts 0x000
            cache.access(addr)
        assert cache.access(0x000) is False
        assert cache.access(0x000) is True

    def test_flush(self):
        """A cache built from the same config starts empty."""
        cache = tiny_cache()
        cache.access(0x100)
        cache.access(0x200)
        fresh = Cache(cache.config)
        assert len(fresh._sets) == 0
        assert fresh.access(0x100) is False
        assert cache.access(0x100) is True

    def test_line_address(self):
        cache = tiny_cache(line=32)
        assert cache.line_address(0x105) == 0x100


class TestLazySets:
    def test_fresh_cache_holds_no_sets(self):
        cache = Cache(CacheConfig("L2", 512 * 1024, 4, 64))  # 2048 sets
        assert len(cache._sets) == 0

    def test_only_an_access_builds_a_set(self):
        cache = tiny_cache(assoc=2, sets=4, line=16)
        cache.access(0x100)
        cache.access(0x110)  # the next set
        cache.access(0x100)
        assert len(cache._sets) == 2


class EagerLRU:
    """Reference model: every set built up front, as a list of tags in
    LRU order (the cache model before sets were built on first use)."""

    def __init__(self, assoc, sets, line):
        self.assoc, self.sets, self.line = assoc, sets, line
        self.lines = [[] for _ in range(sets)]

    def access(self, addr):
        tag = addr // self.line
        lines = self.lines[tag % self.sets]
        hit = tag in lines
        if hit:
            lines.remove(tag)
        elif len(lines) == self.assoc:
            del lines[0]
        lines.append(tag)
        return hit


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 0x3FF), max_size=300))
    def test_lazy_sets_match_an_eager_reference(self, addrs):
        cache = tiny_cache(assoc=2, sets=8, line=16)
        reference = EagerLRU(assoc=2, sets=8, line=16)
        for addr in addrs:
            assert cache.access(addr) == reference.access(addr)
        for index, lines in enumerate(reference.lines):
            assert list(cache._sets.get(index, ())) == lines

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = tiny_cache(assoc=2, sets=4, line=16)
        for addr in addrs:
            cache.access(addr)
        assert all(len(lines) <= 2 for lines in cache._sets.values())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=200))
    def test_immediate_rereference_always_hits(self, addrs):
        cache = tiny_cache()
        for addr in addrs:
            cache.access(addr)
            assert cache.access(addr) is True

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
