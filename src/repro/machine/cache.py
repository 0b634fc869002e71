"""Cache models implementing write-allocate (RFO) and non-temporal stores.

Two models with one access API:

* :class:`RegionCache` — region-granular LRU capacity model.  The
  collective algorithms touch memory in whole slices, so tracking
  residency per (buffer, offset, length) region is both fast and
  faithful for this workload.  This is the model used by the timing
  simulation.
* :class:`SetAssociativeCache` — classic line-granular set-associative
  simulator.  Too slow for 256 MB messages, but used by the test suite
  to validate that the region model agrees with a "real" cache on small
  workloads.

Semantics (Section 2.2 of the paper):

* **load** — hit bytes come from cache; miss bytes come from memory and
  are allocated (possibly evicting dirty data, which charges a
  write-back).
* **temporal store** — write-allocate: a store miss raises a Request
  For Ownership that *reads* the line from memory before writing it in
  cache; the line is dirty and will be written back on eviction.
* **non-temporal store** — bytes stream straight to memory with no
  allocation and no RFO; any cached copy is invalidated (dropped
  without write-back, as the NT store supersedes the stale line).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass


def streams_through(length: int, capacity: int) -> bool:
    """True when a region of ``length`` bytes cannot be resident in a
    cache of ``capacity`` bytes and therefore streams through it.

    This is *the* size-dependent residency decision of the region
    model (:class:`RegionCache` applies it on every store and insert);
    the compiled evaluator's size-polymorphism guards
    (:func:`repro.models.nt_model.decision_guards`) evaluate the same
    predicate to decide whether two message sizes share a schedule's
    cache-outcome regime."""
    return length > capacity


@dataclass(init=False)
class AccessResult:
    """Byte-level outcome of one cache access.

    ``hit`` + ``miss`` always equals the requested size.  ``rfo`` is the
    extra memory *read* traffic triggered by store misses under
    write-allocate.  ``writeback`` is dirty data evicted to memory as a
    consequence of this access.
    """

    # slots without class-level defaults (``dataclass(slots=True)``
    # needs Python 3.10), so the defaults live in ``__init__``
    __slots__ = ("hit", "miss", "rfo", "writeback")
    hit: int
    miss: int
    rfo: int
    writeback: int

    def __init__(self, hit: int = 0, miss: int = 0, rfo: int = 0,
                 writeback: int = 0):
        self.hit = hit
        self.miss = miss
        self.rfo = rfo
        self.writeback = writeback

    def __add__(self, other: "AccessResult") -> "AccessResult":
        return AccessResult(
            self.hit + other.hit,
            self.miss + other.miss,
            self.rfo + other.rfo,
            self.writeback + other.writeback,
        )

    @property
    def memory_read_bytes(self) -> int:
        return self.miss + self.rfo

    @property
    def memory_write_bytes(self) -> int:
        return self.writeback


class RegionCache:
    """Region-granular LRU model of one socket's cache capacity.

    Keys are ``(buffer_id, start, length)`` tuples.  The collectives
    access memory at consistent slice boundaries, so exact-key matching
    is accurate for them; a partially overlapping access invalidates the
    overlapped residents (write-back if dirty) and is treated as a miss
    for the non-resident bytes.  The line-granular model in
    :class:`SetAssociativeCache` cross-checks this approximation.

    Every insert first evicts the residents it partially overlaps, so
    one buffer's residents never overlap each other: sorted by start,
    they are sorted by end too.  Each buffer keeps its residents' starts
    in a sorted list, with their keys in a parallel list, and an overlap
    query is one bisect plus a walk left over the residents that end
    past the query's start.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._regions: OrderedDict[tuple, bool] = OrderedDict()  # key -> dirty
        self._used = 0
        # buf_id -> (sorted resident starts, their keys); no empty entries
        self._index: dict[int, tuple] = {}

    # ---- bookkeeping ------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, key: tuple) -> bool:
        return key in self._regions

    def _insert(self, key: tuple, dirty: bool) -> int:
        """Make a non-resident region resident, evicting LRU entries.
        Returns write-back bytes."""
        buf_id, start, size = key
        if streams_through(size, self.capacity):
            # A region larger than the whole cache cannot be resident;
            # it streams through.  Model: not inserted, no write-back
            # here (the caller already counted the miss traffic).
            return 0
        wb = 0
        regions = self._regions
        while self._used + size > self.capacity and regions:
            old, old_dirty = regions.popitem(last=False)
            self._unindex(old)
            self._used -= old[2]
            if old_dirty:
                wb += old[2]
        regions[key] = dirty
        self._used += size
        entry = self._index.get(buf_id)
        if entry is None:
            entry = self._index[buf_id] = ([], [])
        starts, keys = entry
        i = bisect_left(starts, start)
        starts.insert(i, start)
        keys.insert(i, key)
        return wb

    def _unindex(self, key: tuple) -> None:
        starts, keys = self._index[key[0]]
        i = bisect_left(starts, key[1])
        del starts[i], keys[i]
        if not starts:
            del self._index[key[0]]

    def _drop(self, key: tuple) -> int:
        """Remove a resident; returns its size if it was dirty."""
        self._unindex(key)
        self._used -= key[2]
        return key[2] if self._regions.pop(key) else 0

    def _resolve_overlaps(self, buf_id: int, start: int, length: int) -> int:
        """Evict the residents that overlap [start, start+length).

        Callers have checked that this exact region is not resident.
        Returns write-back bytes from evicted dirty overlaps.
        """
        entry = self._index.get(buf_id)
        if entry is None:
            return 0
        starts, keys = entry
        j = bisect_left(starts, start + length)
        wb = 0
        while j:
            j -= 1
            key = keys[j]
            if key[1] + key[2] <= start:
                break
            del starts[j], keys[j]
            self._used -= key[2]
            if self._regions.pop(key):
                wb += key[2]
        if not starts:
            del self._index[buf_id]
        return wb

    # ---- access API --------------------------------------------------------

    def load(self, buf_id: int, start: int, length: int) -> AccessResult:
        """Read ``length`` bytes; misses allocate."""
        if length <= 0:
            return AccessResult()
        key = (buf_id, start, length)
        if key in self._regions:
            self._regions.move_to_end(key)
            return AccessResult(length)
        wb = self._resolve_overlaps(buf_id, start, length)
        wb += self._insert(key, False)
        return AccessResult(0, length, 0, wb)

    def store(self, buf_id: int, start: int, length: int) -> AccessResult:
        """Temporal (write-allocate) store: misses pay an RFO read."""
        if length <= 0:
            return AccessResult()
        key = (buf_id, start, length)
        regions = self._regions
        if key in regions:
            regions.move_to_end(key)
            regions[key] = True
            return AccessResult(length)
        wb = self._resolve_overlaps(buf_id, start, length)
        wb += self._insert(key, True)
        if streams_through(length, self.capacity):
            # Streaming store larger than cache: write-allocate still
            # reads every line once and dirty lines stream back out.
            wb += length
        return AccessResult(0, length, length, wb)

    def store_nt(self, buf_id: int, start: int, length: int) -> AccessResult:
        """Non-temporal store: no allocation, no RFO; invalidates copies."""
        if length <= 0:
            return AccessResult()
        key = (buf_id, start, length)
        if key in self._regions:
            self._drop(key)
        else:
            # partial overlaps are evicted; their write-back is not charged
            self._resolve_overlaps(buf_id, start, length)
        # All bytes go to memory; counted as misses with no RFO.
        return AccessResult(0, length)

    def invalidate(self, key: tuple) -> None:
        """Drop a region without write-back (coherence invalidation)."""
        if key in self._regions:
            self._drop(key)

    def flush_buffer(self, buf_id: int) -> int:
        """Drop all regions of one buffer, returning write-back bytes."""
        entry = self._index.pop(buf_id, None)
        if entry is None:
            return 0
        wb = 0
        for key in entry[1]:
            self._used -= key[2]
            if self._regions.pop(key):
                wb += key[2]
        return wb

    def clear(self) -> None:
        self._regions.clear()
        self._index.clear()
        self._used = 0


class SetAssociativeCache:
    """Line-granular set-associative cache with LRU replacement.

    Addresses are ``(buffer_id, byte_offset)`` pairs; each buffer lives
    in its own address space, mapped to sets by offset.  Used for
    validating :class:`RegionCache` on small footprints.
    """

    def __init__(self, size: int, line_size: int = 64, associativity: int = 8):
        if size % (line_size * associativity):
            raise ValueError("size must be a multiple of line_size*associativity")
        self.line_size = line_size
        self.associativity = associativity
        self.n_sets = size // (line_size * associativity)
        self.size = size
        # set index -> OrderedDict[(buf_id, line_addr)] -> dirty
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]

    def _set_index(self, buf_id: int, line_addr: int) -> int:
        # Hash the buffer id in so distinct buffers don't all collide at
        # set 0 for offset 0.
        return (line_addr + buf_id * 7919) % self.n_sets

    def _touch_line(self, buf_id: int, line_addr: int, dirty: bool, allocate: bool):
        """Access one line.  Returns (hit, writeback_lines)."""
        idx = self._set_index(buf_id, line_addr)
        s = self._sets[idx]
        key = (buf_id, line_addr)
        if key in s:
            s.move_to_end(key)
            if dirty:
                s[key] = True
            return True, 0
        if not allocate:
            return False, 0
        wb = 0
        if len(s) >= self.associativity:
            _, old_dirty = s.popitem(last=False)
            if old_dirty:
                wb = 1
        s[key] = dirty
        return False, wb

    def _lines(self, start: int, length: int):
        first = start // self.line_size
        last = (start + length - 1) // self.line_size
        return range(first, last + 1)

    def load(self, buf_id: int, start: int, length: int) -> AccessResult:
        if length <= 0:
            return AccessResult()
        res = AccessResult()
        for la in self._lines(start, length):
            hit, wb = self._touch_line(buf_id, la, dirty=False, allocate=True)
            if hit:
                res.hit += self.line_size
            else:
                res.miss += self.line_size
            res.writeback += wb * self.line_size
        return res

    def store(self, buf_id: int, start: int, length: int) -> AccessResult:
        if length <= 0:
            return AccessResult()
        res = AccessResult()
        for la in self._lines(start, length):
            hit, wb = self._touch_line(buf_id, la, dirty=True, allocate=True)
            if hit:
                res.hit += self.line_size
            else:
                res.miss += self.line_size
                res.rfo += self.line_size
            res.writeback += wb * self.line_size
        return res

    def store_nt(self, buf_id: int, start: int, length: int) -> AccessResult:
        if length <= 0:
            return AccessResult()
        res = AccessResult()
        for la in self._lines(start, length):
            idx = self._set_index(buf_id, la)
            s = self._sets[idx]
            key = (buf_id, la)
            if key in s:
                del s[key]  # invalidate without write-back
            res.miss += self.line_size
        return res

    def clear(self) -> None:
        for s in self._sets:
            s.clear()

    @property
    def used_bytes(self) -> int:
        return sum(len(s) for s in self._sets) * self.line_size
