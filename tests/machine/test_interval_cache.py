"""Byte-exact interval cache tests, including three-way model agreement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import AccessResult, RegionCache, SetAssociativeCache
from repro.machine.interval_cache import IntervalCache

KB = 1024


class TestBasics:
    def test_cold_then_hot(self):
        c = IntervalCache(64 * KB)
        assert c.load(1, 0, KB).miss == KB
        assert c.load(1, 0, KB).hit == KB

    def test_partial_hit_is_byte_exact(self):
        c = IntervalCache(64 * KB)
        c.load(1, 0, 2 * KB)
        r = c.load(1, KB, 2 * KB)  # [1K,3K): 1K cached, 1K not
        assert r.hit == KB and r.miss == KB

    def test_store_rfo_only_for_missing_bytes(self):
        c = IntervalCache(64 * KB)
        c.load(1, 0, KB)
        r = c.store(1, 0, 2 * KB)
        assert r.hit == KB and r.rfo == KB

    def test_nt_store_invalidates_exact_range(self):
        c = IntervalCache(64 * KB)
        c.store(1, 0, 4 * KB)
        c.store_nt(1, KB, KB)
        r = c.load(1, 0, 4 * KB)
        assert r.hit == 3 * KB and r.miss == KB

    def test_dirty_eviction_writes_back(self):
        c = IntervalCache(2 * KB)
        c.store(1, 0, KB)
        c.store(1, KB, KB)
        r = c.load(2, 0, KB)
        assert r.writeback == KB

    def test_lru_by_interval(self):
        c = IntervalCache(2 * KB)
        c.load(1, 0, KB)
        c.load(1, KB, KB)
        c.load(1, 0, KB)  # refresh the first
        c.load(2, 0, KB)  # evicts [1K,2K)
        assert (1, 0, KB) in c
        assert (1, KB, KB) not in c

    def test_oversized_streams_through(self):
        c = IntervalCache(KB)
        r = c.load(1, 0, 4 * KB)
        assert r.miss == 4 * KB
        assert c.used_bytes == 0

    def test_contains_requires_full_coverage(self):
        c = IntervalCache(64 * KB)
        c.load(1, 0, KB)
        assert (1, 0, KB) in c
        assert (1, 0, 2 * KB) not in c

    def test_flush_buffer(self):
        c = IntervalCache(64 * KB)
        c.store(1, 0, KB)
        c.load(2, 0, KB)
        assert c.flush_buffer(1) == KB
        assert (2, 0, KB) in c

    def test_merging_adjacent_accesses_conserves_bytes(self):
        c = IntervalCache(64 * KB)
        c.load(1, 0, KB)
        c.load(1, KB, KB)
        assert c.used_bytes == 2 * KB
        r = c.load(1, 0, 2 * KB)
        assert r.hit == 2 * KB
        assert c.used_bytes == 2 * KB

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            IntervalCache(0)


class TestThreeWayAgreement:
    """Region-LRU vs interval-exact vs set-associative on the same
    streams: traffic must agree where boundaries are consistent, and the
    interval model must sit between the others on overlap-heavy runs."""

    def _stream(self, model, ops):
        total = AccessResult()
        for kind, buf, off, n in ops:
            total += getattr(model, kind)(buf, off, n)
        return total

    def test_aligned_stream_all_models_agree(self):
        ops = []
        for rep in range(2):
            for i in range(32):
                ops.append(("load", 1, i * KB, KB))
                ops.append(("store", 2, i * KB, KB))
        cap = 16 * KB
        res = {
            "region": self._stream(RegionCache(cap), ops),
            "interval": self._stream(IntervalCache(cap), ops),
            "lines": self._stream(
                SetAssociativeCache(size=cap, line_size=64,
                                    associativity=cap // 64), ops),
        }
        base = res["interval"]
        for name, r in res.items():
            assert r.miss == base.miss, name
            assert r.rfo == base.rfo, name

    @given(st.lists(
        st.tuples(
            st.sampled_from(["load", "store", "store_nt"]),
            st.integers(1, 2),
            st.integers(0, 60),   # offset in 256B units
            st.integers(1, 16),   # length in 256B units
        ),
        min_size=1, max_size=80,
    ))
    @settings(max_examples=60, deadline=None)
    def test_property_interval_conservation(self, ops):
        """hit+miss == requested; residency never exceeds capacity."""
        c = IntervalCache(8 * KB)
        for kind, buf, off_u, len_u in ops:
            res = getattr(c, kind)(buf, off_u * 256, len_u * 256)
            assert res.hit + res.miss == len_u * 256
            assert res.hit >= 0 and res.rfo >= 0 and res.writeback >= 0
            assert c.used_bytes <= 8 * KB

    @given(st.lists(
        st.tuples(
            st.sampled_from(["load", "store"]),
            st.integers(0, 120),
            st.integers(1, 16),
        ),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=40, deadline=None)
    def test_property_interval_tracks_lines_in_aggregate(self, ops):
        """Line-aligned streams: the interval model's aggregate traffic
        tracks the line simulator's.  Per-access equality is not
        attainable — the interval LRU stamps whole merged ranges while
        the line LRU ages lines individually — but totals must agree
        within the capacity (the maximum divergence one eviction-order
        difference can cause is bounded by what fits in the cache).
        """
        cap = 4 * KB
        ic = IntervalCache(cap)
        sc = SetAssociativeCache(size=cap, line_size=64,
                                 associativity=cap // 64)
        tot_i = AccessResult()
        tot_l = AccessResult()
        for kind, off_u, len_u in ops:
            tot_i += getattr(ic, kind)(1, off_u * 64, len_u * 64)
            tot_l += getattr(sc, kind)(1, off_u * 64, len_u * 64)
        assert tot_i.hit + tot_i.miss == tot_l.hit + tot_l.miss
        assert abs(tot_i.miss - tot_l.miss) <= 2 * cap
        assert abs(tot_i.rfo - tot_l.rfo) <= 2 * cap

