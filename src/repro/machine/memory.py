"""Memory-system timing: converts loads/stores into time and traffic.

The :class:`MemorySystem` owns one :class:`~repro.machine.cache.RegionCache`
per socket (sized to the socket's *effective* capacity, i.e. L3 plus the
aggregated private L2s for non-inclusive designs) and charges every
access to one of three paths:

* **cache hit** — per-core cache bandwidth (caches scale with cores);
* **local DRAM** — the socket's streaming bandwidth, *shared* by the
  ranks currently active on that socket (bandwidth contention is the
  first-order effect in node-level collectives);
* **remote DRAM / cache-to-cache** — the inter-socket link bandwidth,
  also shared, with a latency de-rating factor.

NUMA homing uses first-touch at region granularity: the first rank to
*store* a region homes its pages on that rank's socket, which is what
Linux does for the POSIX shared-memory segments the paper's library
allocates.  Private buffers are homed on their owner's socket.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.machine.cache import RegionCache
from repro.machine.spec import MachineSpec


@dataclass
class TrafficCounters:
    """Node-wide traffic and logical data-access-volume accounting.

    ``logical_load`` / ``logical_store`` implement the paper's DAV
    metric (Section 2.1): bytes loaded and stored by the algorithm,
    independent of where they are served from.  The remaining fields
    break the same accesses down by the physical path that served them.
    """

    logical_load: int = 0
    logical_store: int = 0
    cache_hit_bytes: int = 0
    mem_read_bytes: int = 0
    mem_write_bytes: int = 0
    rfo_bytes: int = 0
    writeback_bytes: int = 0
    numa_bytes: int = 0  # bytes that crossed the socket interconnect
    c2c_bytes: int = 0  # served by a remote socket's cache

    @property
    def dav(self) -> int:
        """Data access volume: total bytes loaded plus stored."""
        return self.logical_load + self.logical_store

    @property
    def memory_traffic(self) -> int:
        return self.mem_read_bytes + self.mem_write_bytes

    def __add__(self, other: "TrafficCounters") -> "TrafficCounters":
        return TrafficCounters(
            *[
                getattr(self, f.name) + getattr(other, f.name)
                for f in self.__dataclass_fields__.values()
            ]
        )


class MemorySystem:
    """Timing model of one node's caches, DRAM and socket interconnect.

    Each rank's traffic is one flat row of integers in
    :class:`TrafficCounters` field order, updated in place per access;
    :attr:`per_rank` and the node totals in :attr:`counters` are built
    from the rows when read.
    """

    #: usable fraction of the nominal cache capacity: real shared
    #: caches retain far less of a streaming working set than their
    #: size (conflict misses, other tenants); the adaptive-copy
    #: heuristic still uses the paper's nominal capacity model.
    CACHE_RETENTION = 0.75

    def __init__(self, machine: MachineSpec, nranks: int):
        machine.validate_nranks(nranks)
        self.machine = machine
        self.nranks = nranks
        cap = int(self.CACHE_RETENTION * machine.socket.effective_cache_capacity)
        self.caches = [RegionCache(cap) for _ in range(machine.sockets)]
        self._cache_bw = machine.cache_bandwidth_core
        self.reset_counters()
        self._rank_socket = [machine.socket_of_rank(r, nranks) for r in range(nranks)]
        # active ranks per socket, set by the engine per collective phase
        self._set_active([
            len(machine.ranks_on_socket(nranks, s))
            for s in range(machine.sockets)
        ])
        self._homes: dict[tuple, int] = {}

    # ---- configuration -----------------------------------------------------

    def set_active_ranks(self, ranks) -> None:
        """Declare which ranks are concurrently active (for bw sharing)."""
        counts = [0] * self.machine.sockets
        for r in ranks:
            counts[self._rank_socket[r]] += 1
        self._set_active(counts)

    def _set_active(self, counts) -> None:
        self._active = [max(1, c) for c in counts]
        # per socket: concurrency -> (local, remote, c2c) bandwidth
        self._bw: list = [{} for _ in counts]

    def socket_of_rank(self, rank: int) -> int:
        return self._rank_socket[rank]

    def reset_counters(self) -> None:
        width = len(fields(TrafficCounters))
        self._rows = [[0] * width for _ in range(self.nranks)]

    @property
    def counters(self) -> TrafficCounters:
        """Node-wide totals: the per-rank column sums."""
        return TrafficCounters(*map(sum, zip(*self._rows)))

    @property
    def per_rank(self) -> list:
        return [TrafficCounters(*row) for row in self._rows]

    def reset_caches(self, *, clear_homes: bool = False) -> None:
        """Flush the simulated caches (cold start).

        NUMA page placement is durable across cache flushes; pass
        ``clear_homes=True`` only when recycling the memory system for
        an unrelated buffer population.
        """
        for c in self.caches:
            c.clear()
        if clear_homes:
            self._homes.clear()

    # ---- bandwidth shares ----------------------------------------------------

    def _bandwidths(self, socket: int, concurrency) -> tuple:
        """``(local, remote, c2c)`` bandwidth of one access on ``socket``.

        The socket's DRAM and link bandwidth is split among the ranks
        active in the current collective on that socket; algorithms
        whose phase structure leaves most ranks idle (e.g. a root's solo
        copy-out) pass an explicit ``concurrency``.  Cache-to-cache
        transfers cross the latency-derated link; cooperative same-data
        fan-outs pass a low ``concurrency`` (each byte crosses the link
        once, then hits the local cache).  Remembered per
        ``concurrency`` until the next :meth:`set_active_ranks`.
        """
        active = self._active[socket]
        sharers = (active if concurrency is None
                   else max(1, min(concurrency, active)))
        m = self.machine
        link = min(m.numa_bandwidth, m.socket.mem_bandwidth)
        bw = self._bw[socket][concurrency] = (
            m.socket.mem_bandwidth / sharers,
            link / sharers / m.numa_latency_factor,
            m.numa_bandwidth / m.numa_latency_factor / sharers,
        )
        return bw

    # ---- access API ---------------------------------------------------------------
    #
    # Row fields: 0 logical_load, 1 logical_store, 2 cache_hit_bytes,
    # 3 mem_read_bytes, 4 mem_write_bytes, 5 rfo_bytes, 6 writeback_bytes,
    # 7 numa_bytes, 8 c2c_bytes.  A RegionCache access is a whole hit or
    # a whole miss.  A DRAM charge is ``local / local_bw + remote /
    # remote_bw``, the local part holding the dirty write-backs.

    def load(self, rank: int, buf, off: int, n: int, *,
             concurrency=None) -> float:
        """Rank reads ``n`` bytes of ``buf`` at ``off``; returns seconds."""
        if n <= 0:
            return 0.0
        sock = self._rank_socket[rank]
        res = self.caches[sock].load(buf.buf_id, off, n)
        row = self._rows[rank]
        row[0] += n
        if res.hit:
            row[2] += n
            return n / self._cache_bw
        wb = res.writeback
        row[4] += wb
        row[6] += wb
        local, remote, c2c = (self._bw[sock].get(concurrency)
                              or self._bandwidths(sock, concurrency))
        key = (buf.buf_id, off, n)
        # Cache-to-cache: another socket may hold the region.
        for s, cache in enumerate(self.caches):
            if s != sock and key in cache:
                row[7] += n
                row[8] += n
                return n / c2c + wb / local if wb else n / c2c
        row[3] += n
        # an untouched, un-homed region is interleaved: treated as local
        home = self._homes.get(key, buf.home_socket)
        if home is None or home == -1 or home == sock:
            return (n + wb) / local
        row[7] += n
        return wb / local + n / remote if wb else n / remote

    def store(self, rank: int, buf, off: int, n: int, *, nt: bool = False,
              concurrency=None) -> float:
        """Rank writes ``n`` bytes; ``nt`` selects a non-temporal store."""
        if n <= 0:
            return 0.0
        sock = self._rank_socket[rank]
        key = (buf.buf_id, off, n)
        # NUMA first touch: the first store homes an un-homed region
        if buf.home_socket is None:
            home = self._homes.setdefault(key, sock)
        else:
            home = self._homes.get(key, buf.home_socket)
        is_remote = home != -1 and home != sock
        # Invalidate copies on other sockets (ownership moves here).
        for s, cache in enumerate(self.caches):
            if s != sock:
                cache.invalidate(key)
        row = self._rows[rank]
        row[1] += n
        if nt:
            wb = self.caches[sock].store_nt(buf.buf_id, off, n).writeback
            row[4] += n + wb
            row[6] += wb
            mem = n
        else:
            res = self.caches[sock].store(buf.buf_id, off, n)
            if res.hit:
                row[2] += n
                return n / self._cache_bw
            wb, mem = res.writeback, res.rfo
            row[3] += mem
            row[4] += wb
            row[5] += mem
            row[6] += wb
        # nt: the bytes themselves drain to the region's home; t: the RFO
        # read comes from there.  Dirty write-backs drain to local memory.
        local, remote, _ = (self._bw[sock].get(concurrency)
                            or self._bandwidths(sock, concurrency))
        if is_remote:
            row[7] += mem
            t = wb / local + mem / remote if wb else mem / remote
        else:
            t = (mem + wb) / local
        if nt:
            return t
        # The cache-fill write itself happens at cache speed.
        return t + n / self._cache_bw
