"""Machine specifications for the simulated shared-memory multi-core nodes.

The paper evaluates on three testbeds (Section 5.2.1):

* **NodeA** — 2x 32-core AMD EPYC 7452; per-CPU 256 MB *non-inclusive*
  L3; 512 KB inclusive L2 per core; 16 DDR4-3200 channels; 4x 16 GT/s
  xGMI inter-socket links.
* **NodeB** — 2x 24-core Intel Xeon Platinum 8163; per-CPU 66 MB
  *non-inclusive* L3; 1 MB L2 per core; 12 DDR4-2666 channels; 3x
  10.4 GT/s UPI links.
* **ClusterC** — 2x 12-core Intel Xeon E5-2692 v2; per-CPU 60 MB
  *inclusive* L3.

Bandwidth constants are *effective* (STREAM-achievable) figures tuned so
that the sliced-copy microbenchmark reproduces the shape of the paper's
Table 4 (t-copy ~150 GB/s vs nt-copy ~237 GB/s on NodeA).  Absolute
numbers are not the reproduction target; relative behaviour is.

Sizes are in bytes, bandwidths in bytes/second, latencies in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

GB_S = 1e9  # vendors quote decimal GB/s; we follow suit for bandwidths
US = 1e-6

CACHE_LINE = 64


@dataclass(frozen=True)
class CacheSpec:
    """Geometry of one cache level.

    ``inclusive`` follows the paper's usage: a *non-inclusive* L3 means
    data resident in private L2s is not duplicated in L3, so the
    available on-chip capacity is ``L3 + cores * L2`` (Section 4.2).
    """

    size: int
    line_size: int = CACHE_LINE
    associativity: int = 16
    inclusive: bool = True

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"cache size must be positive, got {self.size}")
        if self.size % self.line_size:
            raise ValueError("cache size must be a multiple of the line size")

    @property
    def n_lines(self) -> int:
        return self.size // self.line_size

    @property
    def n_sets(self) -> int:
        return max(1, self.n_lines // self.associativity)


@dataclass(frozen=True)
class SocketSpec:
    """One CPU socket: cores, private L2, shared L3 and local DRAM."""

    cores: int
    l2_per_core: CacheSpec
    l3: CacheSpec
    mem_bandwidth: float  # achievable local-DRAM streaming bandwidth (B/s)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("a socket needs at least one core")
        if self.mem_bandwidth <= 0:
            raise ValueError("memory bandwidth must be positive")

    @property
    def effective_cache_capacity(self) -> int:
        """On-chip bytes available to streaming data on this socket."""
        if self.l3.inclusive:
            return self.l3.size
        return self.l3.size + self.cores * self.l2_per_core.size


def socket_of_rank_meta(rank: int, nranks: int | None, *, sockets: int,
                        cores_per_socket: int,
                        binding: str = "compact") -> int:
    """Rank → socket mapping from bare topology constants.

    The single implementation behind
    :meth:`MachineSpec.socket_of_rank`; also callable from consumers
    that only hold the JSON machine-meta projection carried in
    ``repro-ir/1`` documents (the static critical-path pass, the
    compiled-schedule lowering) rather than a full spec object.
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if binding == "scatter":
        return rank % sockets
    if nranks is not None and nranks <= sockets * cores_per_socket:
        per = -(-nranks // sockets)  # ceil: spread over sockets
        return min(rank // per, sockets - 1)
    return (rank // cores_per_socket) % sockets


#: MachineSpec constants that must be > 0: bandwidths and the kernel
#: page size divide and the NUMA factor scales remote time, so zero
#: divides by zero and a negative value makes a simulated time negative
_POSITIVE_FIELDS = ("cache_bandwidth_core", "numa_bandwidth",
                    "numa_latency_factor", "kernel_page_size")

#: MachineSpec latencies and overheads that must be >= 0
_NON_NEGATIVE_FIELDS = ("sync_latency_intra", "sync_latency_inter",
                        "op_overhead", "kernel_page_overhead",
                        "kernel_syscall_overhead", "xpmem_attach_overhead")


@dataclass(frozen=True)
class MachineSpec:
    """A shared-memory node: homogeneous sockets plus interconnect.

    ``cache_bandwidth_core`` is the per-core bandwidth for cache-resident
    copies/reductions; ``numa_bandwidth`` is the per-direction
    inter-socket link bandwidth shared by all cross-socket traffic.

    ``sync_latency_intra`` / ``sync_latency_inter`` are the costs of one
    flag-based point-to-point synchronization between two ranks on the
    same / different sockets (the paper synchronizes neighbouring
    reduction steps with atomic flag updates, Section 3.3).
    """

    name: str
    sockets: int
    socket: SocketSpec
    cache_bandwidth_core: float = 35.0 * GB_S
    numa_bandwidth: float = 60.0 * GB_S
    numa_latency_factor: float = 1.35  # remote DRAM access slowdown
    sync_latency_intra: float = 0.60 * US
    sync_latency_inter: float = 1.50 * US
    # glibc-style memmove switches to non-temporal stores above this size.
    memmove_nt_threshold: int = 2 * MB
    # Fixed per-call software overhead of one copy/reduce operation
    # (function call, loop setup, pipeline fill).
    op_overhead: float = 0.25 * US
    # Kernel-assisted (CMA-like) copy: per-page cost and page size.
    kernel_page_size: int = 4 * KB
    kernel_page_overhead: float = 0.065 * US
    kernel_syscall_overhead: float = 1.0 * US
    # XPMEM-style direct access: per-remote-buffer attach/translation
    # cost paid when a rank maps another process's segment.
    xpmem_attach_overhead: float = 1.5 * US
    # Rank-to-core binding policy: "compact" fills a socket before
    # moving on (the artifact's S8 requirement); "scatter" round-robins
    # ranks across sockets, breaking the locality the socket-aware
    # designs assume — kept as an ablation knob.
    binding: str = "compact"

    # ---- topology helpers -------------------------------------------------

    @property
    def total_cores(self) -> int:
        return self.sockets * self.socket.cores

    @property
    def mem_bandwidth_node(self) -> float:
        return self.sockets * self.socket.mem_bandwidth

    def socket_of_rank(self, rank: int, nranks: int | None = None) -> int:
        """Map a rank to a socket under the configured binding.

        ``compact`` fills socket 0 first, then socket 1, ... matching
        the paper's requirement that "the process-core binding is in the
        right order" (artifact step S8).  ``scatter`` round-robins
        ranks over sockets (the misconfiguration S8 warns about).
        """
        return socket_of_rank_meta(
            rank, nranks, sockets=self.sockets,
            cores_per_socket=self.socket.cores, binding=self.binding,
        )

    def __post_init__(self) -> None:
        if self.sockets <= 0:
            raise ValueError("need at least one socket")
        if self.binding not in ("compact", "scatter"):
            raise ValueError(f"unknown binding policy {self.binding!r}")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in _NON_NEGATIVE_FIELDS:
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(
                    f"{name} must be non-negative, got {value!r}")

    def ranks_on_socket(self, nranks: int, sock: int) -> list[int]:
        return [r for r in range(nranks) if self.socket_of_rank(r, nranks) == sock]

    def validate_nranks(self, nranks: int) -> None:
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        if nranks > self.total_cores:
            raise ValueError(
                f"{self.name} has {self.total_cores} cores; cannot run "
                f"{nranks} ranks one-per-core"
            )

    def with_(self, **changes) -> "MachineSpec":
        """Return a copy with some fields replaced (for ablations)."""
        return replace(self, **changes)


def available_cache_capacity(machine: MachineSpec, nranks: int) -> int:
    """Available cache capacity ``C`` per Section 4.2 of the paper.

    ``C = c' + p * c''`` when the last-level cache is non-inclusive
    (``c'`` = LLC size of one CPU, ``c''`` = second-last-level cache per
    core), else ``C = c'``.  This is the capacity used by the
    adaptive-copy heuristic (Algorithm 1); note it intentionally follows
    the paper in using a *single* CPU's L3 even on multi-socket nodes.
    """
    machine.validate_nranks(nranks)
    c_prime = machine.socket.l3.size
    if machine.socket.l3.inclusive:
        return c_prime
    return c_prime + nranks * machine.socket.l2_per_core.size


# ---------------------------------------------------------------------------
# Presets mirroring the paper's testbeds.
# ---------------------------------------------------------------------------

NODE_A = MachineSpec(
    name="NodeA",
    sockets=2,
    socket=SocketSpec(
        cores=32,
        l2_per_core=CacheSpec(size=512 * KB, inclusive=True),
        l3=CacheSpec(size=256 * MB, inclusive=False),
        mem_bandwidth=120.0 * GB_S,  # 8 ch DDR4-3200/socket, ~60% efficiency
    ),
    cache_bandwidth_core=40.0 * GB_S,
    numa_bandwidth=70.0 * GB_S,  # 4x 16 GT/s xGMI
    sync_latency_intra=0.60 * US,
    sync_latency_inter=1.50 * US,
)

NODE_B = MachineSpec(
    name="NodeB",
    sockets=2,
    socket=SocketSpec(
        cores=24,
        l2_per_core=CacheSpec(size=1 * MB, inclusive=True),
        l3=CacheSpec(size=66 * MB, inclusive=False),
        mem_bandwidth=95.0 * GB_S,  # 6 ch DDR4-2666/socket
    ),
    cache_bandwidth_core=45.0 * GB_S,
    numa_bandwidth=45.0 * GB_S,  # 3x 10.4 GT/s UPI
    sync_latency_intra=0.55 * US,
    sync_latency_inter=1.40 * US,
)

CLUSTER_C = MachineSpec(
    name="ClusterC",
    sockets=2,
    socket=SocketSpec(
        cores=12,
        l2_per_core=CacheSpec(size=256 * KB, inclusive=True),
        l3=CacheSpec(size=30 * MB, inclusive=True),  # 60 MB across 2 CPUs
        mem_bandwidth=45.0 * GB_S,  # 4 ch DDR3-1866/socket
    ),
    cache_bandwidth_core=25.0 * GB_S,
    numa_bandwidth=25.0 * GB_S,  # 2x QPI
    sync_latency_intra=0.80 * US,
    sync_latency_inter=1.80 * US,
)

#: A 4-socket node in the spirit of the paper's "future architectures
#: with more cores" discussion (Section 3.3) — modelled on a quad-socket
#: Cascade Lake-class box.  Used by the m>2 socket-aware validation and
#: the socket-count ablation.
NODE_D = MachineSpec(
    name="NodeD",
    sockets=4,
    socket=SocketSpec(
        cores=16,
        l2_per_core=CacheSpec(size=1 * MB, inclusive=True),
        l3=CacheSpec(size=22 * MB, inclusive=False),
        mem_bandwidth=85.0 * GB_S,
    ),
    cache_bandwidth_core=45.0 * GB_S,
    numa_bandwidth=35.0 * GB_S,
    sync_latency_intra=0.55 * US,
    sync_latency_inter=1.60 * US,
)

PRESETS: dict[str, MachineSpec] = {
    "NodeA": NODE_A,
    "NodeB": NODE_B,
    "ClusterC": CLUSTER_C,
    "NodeD": NODE_D,
}
