"""Caches, branch predictor, counters, memory map."""

import pytest

from repro.machine.branch import TwoBitPredictor
from repro.machine.caches import DirectMappedCache, SetAssociativeCache
from repro.machine.counters import CounterBank, Event, PicRegisters
from repro.machine.memory import WORD, MemoryMap


class TestDirectMappedCache:
    def test_cold_miss_then_hit(self):
        cache = DirectMappedCache(1024, 32)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(31)  # same line
        assert not cache.access(32)  # next line

    def test_conflict_eviction(self):
        cache = DirectMappedCache(1024, 32)
        # Addresses one cache-size apart map to the same set.
        assert not cache.access(0)
        assert not cache.access(1024)
        assert not cache.access(0)  # evicted by the conflicting line

    def test_set_index(self):
        cache = DirectMappedCache(1024, 32)
        assert cache.set_index(0) == cache.set_index(1024)
        assert cache.set_index(0) != cache.set_index(32)

    def test_no_allocate_write(self):
        cache = DirectMappedCache(1024, 32)
        cache.access(64, allocate=False)
        assert not cache.contains(64)

    def test_statistics(self):
        cache = DirectMappedCache(1024, 32)
        hits = [cache.access(address) for address in (0, 0, 32, 0)]
        assert hits == [False, True, False, True]
        assert cache.misses == 2

    def test_mru_is_the_tag_list(self):
        cache = DirectMappedCache(1024, 32)
        assert cache.mru is cache.tags
        cache.access(64)
        assert cache.mru[2] == 2
        mru = cache.mru
        cache.flush()
        # Generated code binds the list: flush resets it in place.
        assert cache.mru is mru and mru == [-1] * cache.sets

    def test_paper_geometry(self):
        """16KB direct mapped with 32B lines: 512 sets (§6.4.1)."""
        cache = DirectMappedCache(16 * 1024, 32)
        assert cache.sets == 512

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            DirectMappedCache(1000, 32)
        with pytest.raises(ValueError):
            DirectMappedCache(1024, 24)


class TestSetAssociativeCache:
    def test_lru_within_set(self):
        cache = SetAssociativeCache(2 * 32, 32, 2)  # 1 set, 2 ways
        cache.access(0)
        cache.access(32)
        cache.access(0)        # 0 becomes MRU
        cache.access(64)       # evicts 32 (LRU)
        assert cache.contains(0)
        assert not cache.contains(32)

    def test_mru_tracks_promotion_and_eviction(self):
        cache = SetAssociativeCache(2 * 32, 32, 2)  # 1 set, 2 ways
        assert cache.mru == [-1]
        cache.access(0)
        assert cache.mru == [0]
        cache.access(32)
        assert cache.mru == [1]
        assert cache.access(0)  # non-MRU hit: promoted
        assert cache.mru == [0] and cache.ways[0] == [1, 0]
        cache.access(64)  # evicts block 1 (LRU)
        assert cache.mru == [2] and cache.ways[0] == [0, 2]
        cache.access(96, allocate=False)  # miss without fill: unchanged
        assert cache.mru == [2]
        assert cache.misses == 4
        mru = cache.mru
        cache.flush()
        assert cache.mru is mru and mru == [-1]

    def test_mru_mirrors_lru_order(self):
        import random

        rng = random.Random(7)
        cache = SetAssociativeCache(8 * 32, 32, 2)  # 4 sets
        for _ in range(500):
            cache.access(rng.randrange(64) * 32, allocate=rng.random() < 0.8)
            assert cache.mru == [way[-1] if way else -1 for way in cache.ways]

    def test_assoc_avoids_direct_conflict(self):
        cache = SetAssociativeCache(1024, 32, 2)
        cache.access(0)
        cache.access(1024 // 2)  # same set, other way
        assert cache.contains(0)


class TestTwoBitPredictor:
    def test_warms_up_on_taken_loop(self):
        predictor = TwoBitPredictor(64)
        results = [predictor.predict_and_update(0x100, True) for _ in range(5)]
        assert all(results)  # initialized weakly-taken

    def test_flips_after_one_not_taken_from_weak_state(self):
        predictor = TwoBitPredictor(64)
        assert not predictor.predict_and_update(0x100, False)  # weak-taken says taken
        assert predictor.predict_and_update(0x100, False)  # now predicts not-taken

    def test_strongly_taken_needs_two_to_flip(self):
        predictor = TwoBitPredictor(64)
        predictor.predict_and_update(0x100, True)  # weak -> strong taken
        assert not predictor.predict_and_update(0x100, False)  # strong: still taken
        assert not predictor.predict_and_update(0x100, False)  # weak: still taken
        assert predictor.predict_and_update(0x100, False)

    def test_alternating_pattern_mispredicts(self):
        predictor = TwoBitPredictor(64)
        outcomes = [bool(i % 2) for i in range(50)]
        correct = sum(predictor.predict_and_update(0x200, t) for t in outcomes)
        assert correct < 40  # alternation defeats a 2-bit counter

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TwoBitPredictor(100)


class TestPicRegisters:
    def test_read_after_zero(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        bank.counts[Event.INSTRS] = 100
        pic.write_zero()
        pic.read()
        bank.counts[Event.INSTRS] += 7
        assert pic.read()[0] == 7

    def test_32bit_wrap(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        pic.write_zero()
        pic.read()
        bank.counts[Event.INSTRS] = (1 << 32) + 5
        assert pic.read()[0] == 5  # wrapped

    def test_write_requires_confirming_read(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        pic.write_zero()
        assert pic.pending_read
        pic.read()
        assert not pic.pending_read

    def test_save_restore_round_trip(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        bank.counts[Event.INSTRS] = 40
        pic.write_zero(); pic.read()
        bank.counts[Event.INSTRS] += 10
        saved = pic.read()
        bank.counts[Event.INSTRS] += 999  # a callee runs
        pic.write_values(*saved)
        pic.read()
        bank.counts[Event.INSTRS] += 3
        assert pic.read()[0] == saved[0] + 3

    def test_configure_switches_events(self):
        bank = CounterBank()
        pic = PicRegisters(bank, Event.INSTRS, Event.DC_MISS)
        bank.counts[Event.CYCLES] = 55
        pic.configure(Event.CYCLES, Event.IC_MISS)
        bank.counts[Event.CYCLES] += 5
        assert pic.read()[0] == 5


class TestCounterBank:
    def test_snapshot_and_diff(self):
        bank = CounterBank()
        before = bank.snapshot()
        bank.counts[Event.LOADS] = 12
        diff = bank.diff(before)
        assert diff[Event.LOADS] == 12
        assert diff[Event.STORES] == 0


class TestMemoryMap:
    def test_regions_are_disjoint(self):
        memory = MemoryMap(16)
        regions = [memory.globals, memory.heap, memory.stack,
                   memory.profiling, memory.cct]
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert a.limit <= b.base or b.limit <= a.base

    def test_uninitialized_reads_zero(self):
        memory = MemoryMap(16)
        assert memory.read(memory.global_addr(3)) == 0

    def test_write_read(self):
        memory = MemoryMap(16)
        address = memory.global_addr(2)
        memory.write(address, 123)
        assert memory.read(address) == 123

    def test_heap_alloc_bumps(self):
        memory = MemoryMap(16)
        a = memory.heap_alloc(4)
        b = memory.heap_alloc(4)
        assert b == a + 4 * WORD
        assert memory.heap_used() == 8 * WORD

    def test_heap_exhaustion(self):
        memory = MemoryMap(16)
        with pytest.raises(MemoryError):
            memory.heap_alloc(memory.heap.size)

    def test_frame_base_progression(self):
        memory = MemoryMap(16)
        assert memory.frame_base(1, 32) - memory.frame_base(0, 32) == 32 * WORD

    def test_region_of(self):
        memory = MemoryMap(16)
        assert memory.region_of(memory.global_addr(0)) == "globals"
        assert memory.region_of(memory.heap.base) == "heap"
        assert memory.region_of(memory.cct.base + 8) == "cct"
        assert memory.region_of(0) == "unmapped"
