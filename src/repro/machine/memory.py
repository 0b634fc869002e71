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

from dataclasses import dataclass

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
    """Timing model of one node's caches, DRAM and socket interconnect."""

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
        self.counters = TrafficCounters()
        self.per_rank = [TrafficCounters() for _ in range(nranks)]
        self._rank_socket = [machine.socket_of_rank(r, nranks) for r in range(nranks)]
        # active ranks per socket, set by the engine per collective phase
        self._active = [
            max(1, len(machine.ranks_on_socket(nranks, s)))
            for s in range(machine.sockets)
        ]
        self._homes: dict[tuple, int] = {}

    # ---- configuration -----------------------------------------------------

    def set_active_ranks(self, ranks) -> None:
        """Declare which ranks are concurrently active (for bw sharing)."""
        counts = [0] * self.machine.sockets
        for r in ranks:
            counts[self._rank_socket[r]] += 1
        self._active = [max(1, c) for c in counts]

    def socket_of_rank(self, rank: int) -> int:
        return self._rank_socket[rank]

    def reset_counters(self) -> None:
        self.counters = TrafficCounters()
        self.per_rank = [TrafficCounters() for _ in range(self.nranks)]

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

    # ---- NUMA homing ---------------------------------------------------------

    def _home_of(self, buf, key: tuple) -> int:
        home = self._homes.get(key)
        if home is not None:
            return home
        if buf.home_socket is not None:
            return buf.home_socket
        # untouched, un-homed region: interleaved; treat as local
        return -1

    def _touch_home(self, buf, key: tuple, socket: int) -> None:
        if buf.home_socket is None and key not in self._homes:
            self._homes[key] = socket

    # ---- bandwidth shares ----------------------------------------------------

    def _sharers(self, socket: int, concurrency) -> int:
        """Number of ranks splitting the socket's DRAM bandwidth.

        Defaults to the ranks active in the current collective on this
        socket; algorithms whose phase structure leaves most ranks idle
        (e.g. a root's solo copy-out) pass an explicit ``concurrency``.
        """
        if concurrency is None:
            return self._active[socket]
        return max(1, min(concurrency, self._active[socket]))

    def _local_bw(self, socket: int, concurrency=None) -> float:
        return self.machine.socket.mem_bandwidth / self._sharers(socket, concurrency)

    def _remote_bw(self, socket: int, concurrency=None) -> float:
        link = min(self.machine.numa_bandwidth, self.machine.socket.mem_bandwidth)
        return (
            link
            / self._sharers(socket, concurrency)
            / self.machine.numa_latency_factor
        )

    def _mem_time(self, socket: int, local_bytes: int, remote_bytes: int,
                  concurrency=None) -> float:
        t = 0.0
        if local_bytes:
            t += local_bytes / self._local_bw(socket, concurrency)
        if remote_bytes:
            t += remote_bytes / self._remote_bw(socket, concurrency)
        return t

    def _c2c_bw(self, socket: int, concurrency=None) -> float:
        """Cache-to-cache transfer bandwidth over the socket link.

        Shared by the concurrently-reading ranks like any other
        cross-socket traffic; cooperative same-data fan-outs pass a low
        ``concurrency`` (each byte crosses the link once, then hits the
        local cache).
        """
        return (
            self.machine.numa_bandwidth
            / self.machine.numa_latency_factor
            / self._sharers(socket, concurrency)
        )

    # ---- accounting helper -----------------------------------------------------

    def _account(self, rank: int, *, is_load: bool, n: int, hit: int = 0,
                 mem_read: int = 0, mem_write: int = 0, rfo: int = 0,
                 writeback: int = 0, numa: int = 0, c2c: int = 0) -> None:
        for t in (self.counters, self.per_rank[rank]):
            if is_load:
                t.logical_load += n
            else:
                t.logical_store += n
            t.cache_hit_bytes += hit
            t.mem_read_bytes += mem_read
            t.mem_write_bytes += mem_write
            t.rfo_bytes += rfo
            t.writeback_bytes += writeback
            t.numa_bytes += numa
            t.c2c_bytes += c2c

    # ---- access API ---------------------------------------------------------------

    def load(self, rank: int, buf, off: int, n: int, *,
             concurrency=None) -> float:
        """Rank reads ``n`` bytes of ``buf`` at ``off``; returns seconds."""
        if n <= 0:
            return 0.0
        sock = self._rank_socket[rank]
        key = (buf.buf_id, off, n)
        res = self.caches[sock].load(buf.buf_id, off, n)
        c2c = 0
        remote = False
        if res.miss:
            # Cache-to-cache: another socket may hold the region.
            for s, cache in enumerate(self.caches):
                if s != sock and key in cache:
                    c2c = res.miss
                    break
            if not c2c:
                home = self._home_of(buf, key)
                remote = home not in (-1, sock)
        mem_read = res.miss - c2c
        self._account(
            rank, is_load=True, n=n, hit=res.hit, mem_read=mem_read,
            mem_write=res.writeback, writeback=res.writeback,
            numa=(mem_read if remote else 0) + c2c, c2c=c2c,
        )
        t = res.hit / self.machine.cache_bandwidth_core
        t += c2c / self._c2c_bw(sock, concurrency)
        t += self._mem_time(
            sock,
            (0 if remote else mem_read) + res.writeback,
            mem_read if remote else 0,
            concurrency,
        )
        return t

    def store(self, rank: int, buf, off: int, n: int, *, nt: bool = False,
              concurrency=None) -> float:
        """Rank writes ``n`` bytes; ``nt`` selects a non-temporal store."""
        if n <= 0:
            return 0.0
        sock = self._rank_socket[rank]
        key = (buf.buf_id, off, n)
        self._touch_home(buf, key, sock)
        home = self._home_of(buf, key)
        remote = home not in (-1, sock)
        # Invalidate copies on other sockets (ownership moves here).
        for s, cache in enumerate(self.caches):
            if s != sock:
                cache.invalidate(key)
        if nt:
            res = self.caches[sock].store_nt(buf.buf_id, off, n)
            self._account(
                rank, is_load=False, n=n, mem_write=n + res.writeback,
                writeback=res.writeback, numa=n if remote else 0,
            )
            return self._mem_time(
                sock,
                (0 if remote else n) + res.writeback,
                n if remote else 0,
                concurrency,
            )
        res = self.caches[sock].store(buf.buf_id, off, n)
        self._account(
            rank, is_load=False, n=n, hit=res.hit, mem_read=res.rfo,
            mem_write=res.writeback, rfo=res.rfo, writeback=res.writeback,
            numa=res.rfo if remote else 0,
        )
        t = res.hit / self.machine.cache_bandwidth_core
        # RFO read comes from the region's home; the dirty write-back of
        # evicted data drains to local memory.
        t += self._mem_time(
            sock,
            (0 if remote else res.rfo) + res.writeback,
            res.rfo if remote else 0,
            concurrency,
        )
        # The cache-fill write itself happens at cache speed.
        t += res.miss / self.machine.cache_bandwidth_core
        return t
