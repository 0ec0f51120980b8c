"""Tests for the cache, prefetcher and memory-hierarchy models."""

import pytest

from repro.sim.cache import Cache
from repro.sim.config import CacheConfig, SimConfig
from repro.sim.memory import AccessType, AddressSpace, MemoryHierarchy, MemoryRequest
from repro.sim.prefetcher import StridePrefetcher


def tiny_cache(size=512, assoc=2, line=64):
    return Cache(CacheConfig("test", size, assoc, 2, line_bytes=line))


class TestCache:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(0) is False
        assert cache.lookup(0) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_hits(self):
        cache = tiny_cache()
        cache.lookup(0)
        assert cache.lookup(63) is True
        assert cache.lookup(64) is False

    def test_lru_eviction(self):
        # 2-way cache: three lines mapping to the same set evict the oldest.
        cache = tiny_cache(size=256, assoc=2, line=64)
        n_sets = cache.config.n_sets
        stride = n_sets * 64
        cache.lookup(0)
        cache.lookup(stride)
        cache.lookup(2 * stride)
        assert cache.lookup(0) is False
        assert cache.stats.evictions >= 1

    def test_lru_order_updated_on_hit(self):
        cache = tiny_cache(size=256, assoc=2, line=64)
        stride = cache.config.n_sets * 64
        cache.lookup(0)
        cache.lookup(stride)
        cache.lookup(0)  # refresh line 0
        cache.lookup(2 * stride)  # evicts line at `stride`
        assert cache.lookup(0) is True
        assert cache.lookup(stride) is False

    def test_install_does_not_count_access(self):
        cache = tiny_cache()
        cache.install(128)
        assert cache.stats.accesses == 0
        assert cache.lookup(128) is True

    def test_contains_does_not_modify(self):
        cache = tiny_cache()
        assert cache.contains(0) is False
        cache.lookup(0)
        assert cache.contains(0) is True
        assert cache.stats.accesses == 1

    def test_flush_and_reset_stats(self):
        cache = tiny_cache()
        cache.lookup(0)
        cache.flush()
        cache.reset_stats()
        assert cache.lookup(0) is False
        assert cache.stats.accesses == 1

    def test_occupancy(self):
        cache = tiny_cache(size=256, assoc=2, line=64)
        assert cache.occupancy() == 0.0
        cache.lookup(0)
        assert 0.0 < cache.occupancy() <= 1.0

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 100, 3, 1, line_bytes=64)
        with pytest.raises(ValueError):
            CacheConfig("bad", 0, 1, 1)

    def test_hit_rate_and_miss_rate(self):
        cache = tiny_cache()
        cache.lookup(0)
        cache.lookup(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestStridePrefetcher:
    def test_detects_unit_stride_stream(self):
        prefetcher = StridePrefetcher(threshold=2)
        covered = [prefetcher.access("values", 64 * i) for i in range(8)]
        assert not any(covered[:3])
        assert all(covered[4:])

    def test_random_stream_not_covered(self):
        prefetcher = StridePrefetcher(threshold=2)
        addresses = [0, 640, 128, 8192, 320, 64 * 97]
        covered = [prefetcher.access("x", a) for a in addresses]
        assert not any(covered)

    def test_streams_are_independent(self):
        prefetcher = StridePrefetcher(threshold=1)
        for i in range(4):
            prefetcher.access("a", 64 * i)
        # A new stream starts cold even though stream "a" is established.
        assert prefetcher.access("b", 0) is False

    def test_reset(self):
        prefetcher = StridePrefetcher(threshold=1)
        for i in range(4):
            prefetcher.access("a", 64 * i)
        prefetcher.reset()
        assert prefetcher.access("a", 64 * 10) is False
        assert prefetcher.covered_accesses == 0

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            StridePrefetcher(threshold=0)


class TestAddressSpace:
    def test_structures_do_not_overlap(self):
        space = AddressSpace()
        a = space.register("a", 10_000)
        b = space.register("b", 10_000)
        assert b >= a + 10_000

    def test_register_is_idempotent(self):
        space = AddressSpace()
        assert space.register("a", 100) == space.register("a", 100)

    def test_address_of_unregistered_raises(self):
        with pytest.raises(KeyError):
            AddressSpace().address("missing", 0)

    def test_address_offsets(self):
        space = AddressSpace()
        base = space.register("a", 100)
        assert space.address("a", 24) == base + 24


class TestMemoryHierarchy:
    def test_first_access_goes_to_dram(self):
        hierarchy = MemoryHierarchy(SimConfig.scaled(16))
        stall = hierarchy.access(MemoryRequest("x", 0, AccessType.DEPENDENT))
        assert stall > 0
        assert hierarchy.stats.dram_accesses == 1

    def test_repeated_access_hits_l1_with_no_stall(self):
        hierarchy = MemoryHierarchy(SimConfig.scaled(16))
        hierarchy.access(MemoryRequest("x", 0, AccessType.DEPENDENT))
        stall = hierarchy.access(MemoryRequest("x", 0, AccessType.DEPENDENT))
        assert stall == 0.0

    def test_writes_never_stall(self):
        hierarchy = MemoryHierarchy(SimConfig.scaled(16))
        stall = hierarchy.access(MemoryRequest("y", 0, AccessType.WRITE))
        assert stall == 0.0

    def test_dependent_misses_cost_more_than_streaming(self):
        config = SimConfig.scaled(16)
        dependent = MemoryHierarchy(config)
        streaming = MemoryHierarchy(config)
        d = dependent.access(MemoryRequest("x", 1 << 20, AccessType.DEPENDENT))
        s = streaming.access(MemoryRequest("x", 1 << 20, AccessType.STREAMING))
        assert d > s

    def test_streaming_sweep_benefits_from_prefetcher(self):
        hierarchy = MemoryHierarchy(SimConfig.scaled(16))
        for i in range(64):
            hierarchy.access(MemoryRequest("values", i * 64, AccessType.STREAMING))
        assert hierarchy.stats.prefetch_covered > 0

    def test_per_structure_accounting(self):
        hierarchy = MemoryHierarchy(SimConfig.scaled(16))
        hierarchy.access(MemoryRequest("a", 0))
        hierarchy.access(MemoryRequest("b", 0))
        hierarchy.access(MemoryRequest("a", 8))
        stats = hierarchy.snapshot_stats()
        assert stats.per_structure_accesses == {"a": 2, "b": 1}

    def test_reset(self):
        hierarchy = MemoryHierarchy(SimConfig.scaled(16))
        hierarchy.access(MemoryRequest("a", 0))
        hierarchy.reset()
        assert hierarchy.stats.requests == 0
        assert hierarchy.l1.stats.accesses == 0

    def test_access_many_accumulates(self):
        hierarchy = MemoryHierarchy(SimConfig.scaled(16))
        requests = [MemoryRequest("a", i * 4096, AccessType.DEPENDENT) for i in range(10)]
        total = sum(hierarchy.access(request) for request in requests)
        assert total > 0
        assert hierarchy.stats.requests == 10
