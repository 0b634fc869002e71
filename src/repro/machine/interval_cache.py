"""Byte-exact interval cache: the reference model for partial overlaps.

:class:`~repro.machine.cache.RegionCache` matches residency by exact
(buffer, offset, length) keys and treats partial overlaps as
evict-then-miss — fast, and accurate for the slice-aligned collectives.
This module provides the byte-exact alternative: residency is tracked
as disjoint dirty/clean **intervals** per buffer, so an access that
overlaps cached data hits on exactly the overlapped bytes and misses on
the rest, regardless of the boundaries previous accesses used.

It exists to *quantify* the region model's approximation: the cache
ablation (``benchmarks/bench_ablation_cache_model.py``) drives all
three models directly over the same access streams.
:class:`~repro.machine.memory.MemorySystem` always runs the region
model; this one is a few times slower and API-compatible with it.
"""

from __future__ import annotations

import bisect

from repro.machine.cache import AccessResult


class _Interval:
    """One resident interval of one buffer."""

    __slots__ = ("buf_id", "start", "end", "dirty", "stamp")

    def __init__(self, buf_id: int, start: int, end: int, dirty: bool,
                 stamp: int):
        self.buf_id = buf_id
        self.start = start
        self.end = end
        self.dirty = dirty
        self.stamp = stamp

    @property
    def size(self) -> int:
        return self.end - self.start


class IntervalCache:
    """LRU cache over byte intervals with exact partial-hit accounting.

    Same access API as :class:`RegionCache`: ``load`` / ``store`` /
    ``store_nt`` returning :class:`AccessResult`, plus ``flush_buffer``
    and ``clear``.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._used = 0
        self._clock = 0
        # per buffer: sorted list of starts + parallel interval list
        self._starts: dict[int, list] = {}
        self._ivals: dict[int, list] = {}

    # ---- bookkeeping -------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _buffer_lists(self, buf_id: int):
        return (
            self._starts.setdefault(buf_id, []),
            self._ivals.setdefault(buf_id, []),
        )

    def _insert_interval(self, iv: _Interval) -> None:
        starts, ivals = self._buffer_lists(iv.buf_id)
        idx = bisect.bisect_left(starts, iv.start)
        starts.insert(idx, iv.start)
        ivals.insert(idx, iv)
        self._used += iv.size

    def _remove_index(self, buf_id: int, idx: int) -> _Interval:
        starts, ivals = self._buffer_lists(buf_id)
        iv = ivals.pop(idx)
        starts.pop(idx)
        self._used -= iv.size
        return iv

    def _overlapping(self, buf_id: int, start: int, end: int):
        """Indices of intervals intersecting [start, end), ascending."""
        starts, ivals = self._buffer_lists(buf_id)
        out = []
        idx = bisect.bisect_right(starts, start) - 1
        if idx >= 0 and ivals[idx].end > start:
            out.append(idx)
        idx += 1
        while idx < len(ivals) and ivals[idx].start < end:
            out.append(idx)
            idx += 1
        return out

    # ---- eviction ---------------------------------------------------------------

    def _evict_bytes(self, need: int) -> int:
        """Evict LRU intervals until ``need`` bytes fit; returns the
        dirty write-back volume."""
        wb = 0
        while self._used + need > self.capacity:
            victim = None
            for buf_id, ivals in self._ivals.items():
                for i, iv in enumerate(ivals):
                    if victim is None or iv.stamp < victim[2].stamp:
                        victim = (buf_id, i, iv)
            if victim is None:
                break
            buf_id, i, iv = victim
            self._remove_index(buf_id, i)
            if iv.dirty:
                wb += iv.size
        return wb

    # ---- the access core -------------------------------------------------------

    def _carve(self, buf_id: int, start: int, end: int,
               writeback_overlaps: bool):
        """Remove [start, end) from residency, splitting boundary
        intervals.  Returns (hit_bytes, dirty_hit_bytes, writeback)."""
        hit = 0
        dirty_hit = 0
        wb = 0
        for idx in reversed(self._overlapping(buf_id, start, end)):
            iv = self._remove_index(buf_id, idx)
            lo, hi = max(iv.start, start), min(iv.end, end)
            hit += hi - lo
            if iv.dirty:
                dirty_hit += hi - lo
            # put back the non-overlapped remainders
            if iv.start < start:
                self._insert_interval(
                    _Interval(buf_id, iv.start, start, iv.dirty, iv.stamp)
                )
            if iv.end > end:
                self._insert_interval(
                    _Interval(buf_id, end, iv.end, iv.dirty, iv.stamp)
                )
        if writeback_overlaps:
            wb += dirty_hit
        return hit, dirty_hit, wb

    def _admit(self, buf_id: int, start: int, end: int, dirty: bool) -> int:
        """Insert [start, end) fresh (callers carved first).  Returns
        write-back bytes from capacity eviction."""
        size = end - start
        if size > self.capacity:
            return 0  # streams through, never resident
        wb = self._evict_bytes(size)
        self._insert_interval(
            _Interval(buf_id, start, end, dirty, self._tick())
        )
        return wb

    # ---- access API ---------------------------------------------------------------

    def load(self, buf_id: int, start: int, length: int) -> AccessResult:
        if length <= 0:
            return AccessResult()
        end = start + length
        hit, dirty_hit, _ = self._carve(buf_id, start, end,
                                        writeback_overlaps=False)
        miss = length - hit
        # re-admit the full range, preserving dirtiness of the hit part
        wb = self._admit(buf_id, start, end, dirty=dirty_hit > 0)
        return AccessResult(hit=hit, miss=miss, writeback=wb)

    def store(self, buf_id: int, start: int, length: int) -> AccessResult:
        if length <= 0:
            return AccessResult()
        end = start + length
        hit, _, _ = self._carve(buf_id, start, end, writeback_overlaps=False)
        miss = length - hit
        wb = self._admit(buf_id, start, end, dirty=True)
        # write-allocate: only the non-resident bytes pay the RFO read
        return AccessResult(hit=hit, miss=miss, rfo=miss, writeback=wb)

    def store_nt(self, buf_id: int, start: int, length: int) -> AccessResult:
        if length <= 0:
            return AccessResult()
        end = start + length
        # NT stores invalidate (no write-back: the store supersedes)
        self._carve(buf_id, start, end, writeback_overlaps=False)
        return AccessResult(miss=length)

    def invalidate(self, key: tuple) -> None:
        buf_id, start, length = key
        self._carve(buf_id, start, start + length, writeback_overlaps=False)

    def __contains__(self, key: tuple) -> bool:
        buf_id, start, length = key
        end = start + length
        covered = 0
        for idx in self._overlapping(buf_id, start, end):
            iv = self._ivals[buf_id][idx]
            covered += min(iv.end, end) - max(iv.start, start)
        return covered == length

    def flush_buffer(self, buf_id: int) -> int:
        ivals = self._ivals.get(buf_id, [])
        wb = sum(iv.size for iv in ivals if iv.dirty)
        self._used -= sum(iv.size for iv in ivals)
        self._ivals[buf_id] = []
        self._starts[buf_id] = []
        return wb

    def clear(self) -> None:
        self._starts.clear()
        self._ivals.clear()
        self._used = 0
