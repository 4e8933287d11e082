"""Tests for the memory-hierarchy simulator and memory bugs."""

import pytest

from repro.bugs import (
    EvictMRU,
    LoadMissDelay,
    NoAgeUpdateOnAccess,
    SPPDroppedPrefetches,
    SPPLeastConfidence,
    SPPSignatureReset,
)
from repro.memsim import (
    MemoryHierarchySim,
    NextLinePrefetcher,
    ReplacementCache,
    SignaturePathPrefetcher,
    build_prefetcher,
    simulate_memory_trace,
)
from repro.memsim.hooks import NO_MEMORY_BUG, MemoryBugModel, MemoryBugRecord
from repro.uarch import CacheConfig, kb, memory_microarch


class TestReplacementCache:
    def _cache(self, bug=None):
        return ReplacementCache("l1d", CacheConfig(size=512, associativity=2, latency=2,
                                                   line_size=64),
                                (bug or MemoryBugModel()).compile())

    def test_hit_miss_accounting(self):
        cache = self._cache()
        assert cache.access(0x0) is False
        assert cache.access(0x0) is True
        assert cache.misses == 1 and cache.accesses == 2

    def test_mru_eviction_bug_changes_victim(self):
        clean = self._cache()
        buggy = self._cache(EvictMRU("l1d"))
        stride = 64 * 4  # 4 sets -> same-set lines
        for cache in (clean, buggy):
            cache.access(0)
            cache.access(stride)
            cache.access(2 * stride)  # eviction happens here
        assert clean.access(0) is False       # LRU evicted line 0
        assert buggy.access(0) is True        # MRU eviction kept line 0

    def test_prefetch_usefulness_tracking(self):
        cache = self._cache()
        cache.prefetch_fill(0x1000)
        assert cache.prefetch_fills == 1
        assert cache.access(0x1000) is True
        assert cache.useful_prefetches == 1

    def test_stats_and_reset(self):
        cache = self._cache()
        cache.access(0x40)
        stats = cache.stats()
        assert stats["mem.l1d.accesses"] == 1.0
        cache.reset_stats()
        assert cache.stats()["mem.l1d.accesses"] == 0.0


class TestPrefetchers:
    def test_next_line(self):
        prefetcher = NextLinePrefetcher(line_size=64, degree=2)
        requests = prefetcher.observe(0x1000)
        assert [r.address for r in requests] == [0x1040, 0x1080]
        assert prefetcher.issued == 2

    def test_spp_learns_stride(self):
        spp = SignaturePathPrefetcher(line_size=64, degree=2)
        requests = []
        for i in range(32):
            requests = spp.observe(0x10000 + i * 64)
        assert spp.issued > 0
        assert any(r.address > 0x10000 + 31 * 64 for r in requests)

    def test_spp_signature_reset_bug_changes_behaviour(self):
        clean = SignaturePathPrefetcher(line_size=64, degree=2)
        buggy = SignaturePathPrefetcher(line_size=64, degree=2,
                                        record=SPPSignatureReset().compile())
        pattern = [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19, 21]
        clean_addrs, buggy_addrs = [], []
        for block in pattern:
            clean_addrs += [r.address for r in clean.observe(0x20000 + block * 64)]
            buggy_addrs += [r.address for r in buggy.observe(0x20000 + block * 64)]
        assert clean_addrs != buggy_addrs

    def test_spp_dropped_prefetches_counted(self):
        buggy = SignaturePathPrefetcher(line_size=64, degree=2,
                                        record=SPPDroppedPrefetches(1).compile())
        for i in range(32):
            assert buggy.observe(0x30000 + i * 64) == []
        assert buggy.dropped > 0

    def test_build_prefetcher_factory(self):
        assert build_prefetcher("none", 64, 1, NO_MEMORY_BUG).observe(0) == []
        with pytest.raises(ValueError):
            build_prefetcher("stream", 64, 1, NO_MEMORY_BUG)


class TestMemoryHierarchySim:
    def test_basic_run(self, gcc_trace):
        config = memory_microarch("Skylake-mem")
        result = simulate_memory_trace(config, gcc_trace, step_instructions=1000)
        assert result.instructions > 0
        assert result.amat >= config.l1d.latency
        assert result.series.num_steps >= 2
        assert "mem.amat" in result.series.counters

    def test_bugs_change_behaviour(self, gcc_trace):
        config = memory_microarch("Skylake-mem")
        clean = simulate_memory_trace(config, gcc_trace)
        for bug in (LoadMissDelay("l1d", 16, 20), SPPLeastConfidence()):
            buggy = simulate_memory_trace(config, gcc_trace, bug=bug)
            assert buggy.amat > clean.amat

    def test_no_age_update_hook_direction(self):
        record = NoAgeUpdateOnAccess("l2").compile()
        assert record.no_age_update == (False, True, False)
        assert record == MemoryBugRecord(no_age_update=(False, True, False))

    def test_bug_records_name_their_level(self):
        assert MemoryBugModel().compile() == NO_MEMORY_BUG
        assert EvictMRU("llc").compile().evict_mru == (False, False, True)
        assert LoadMissDelay("l2", 32, 40).compile().load_miss_delay == ((0, 0), (32, 40))
        assert SPPSignatureReset().compile().spp_signature_reset
        assert SPPLeastConfidence().compile().spp_least_confident
        assert SPPDroppedPrefetches(0).compile().spp_drop_every == 1

    @pytest.mark.parametrize("make,level", [
        (LoadMissDelay, "llc"),
        (EvictMRU, "L2"),
        (NoAgeUpdateOnAccess, "L1D"),
        (LoadMissDelay, "l3"),
    ])
    def test_levels_the_model_never_consults_are_rejected(self, make, level):
        """Such a bug would be a silent no-op: a "buggy" design identical to
        the bug-free one, scored as a missed detection."""
        with pytest.raises(ValueError, match="l1d, l2"):
            make(level)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchySim(memory_microarch("Skylake-mem")).run([])
