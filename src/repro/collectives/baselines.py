"""Models of the vendor MPI implementations the paper compares against.

Figure 15/16 pit YHCCL against Intel MPI 2021, MVAPICH2 2.3.7, MPICH
4.1, Open MPI 4.1 (CMA-configured) and Hashmi's XPMEM collectives.  We
cannot run those binaries, so each is modelled as the algorithm/copy
mechanism combination its documentation and the paper describe, built
from this package's primitives:

* **Hashmi XPMEM** [30, 31] — direct shared-address-space access: the
  consumer loads the producer's *private* buffer with no copy at all.
  Strength: single-copy, no shared-memory staging.  Weaknesses the
  paper calls out: cross-socket loads hit remote NUMA memory, and the
  stores go through ``memmove`` whose NT threshold sees only the
  ``s/p`` chunk size — so NT stores only engage once ``s/p`` crosses
  2 MB (the Figure 15d/e crossover at 128 MB).
* **Open MPI (CMA)** — kernel-assisted single-copy point-to-point
  (``process_vm_readv``): ring-based reduction collectives, direct-read
  broadcast/allgather.  Page-granular kernel copies never use NT stores
  (Table 5) and one-to-all patterns contend on the source pages' locks.
* **Intel MPI** — same CMA mechanisms with tighter tuning; modelled as
  Open MPI with reduced kernel per-page overhead.
* **MVAPICH2** — socket-aware shared-memory collectives: two-level
  DPML-style reduction, shared-memory pipelined bcast/allgather with
  temporal copies.
* **MPICH** — classic double-copy shared-memory send/recv (nemesis)
  with small eager cells; modelled as the send/recv algorithms with a
  per-cell pipelining overhead, never using NT stores.
"""

from __future__ import annotations

from repro.collectives.allgather import PipelinedAllgather
from repro.collectives.bcast import PipelinedBcast
from repro.collectives.common import CollectiveEnv, partition, subslices
from repro.collectives.dpml import DPMLReduceScatter, DPMLReduce, TwoLevelDPMLAllreduce
from repro.collectives.rabenseifner import (
    RabenseifnerAllreduce,
    RabenseifnerReduceScatter,
)
from repro.collectives.rg import RGReduce
from repro.copyengine.primitives import kernel_copy_time, resolve_nt

KB = 1024
MB = 1024 * KB

#: MPICH nemesis-style eager cell: each copy pays per-cell pipelining.
MPICH_CELL = 32 * KB
MPICH_CELL_COST = 2.5e-6


# ---------------------------------------------------------------------------
# XPMEM (Hashmi) — direct load/store into remote address spaces
# ---------------------------------------------------------------------------


class XPMEMReduceScatter:
    """Rank ``i`` reduces partition ``i`` straight out of every rank's
    private send buffer.  DAV ``3 s (p-1) + 2s``-ish — lowest of all —
    but the loads of remote ranks' buffers cross the NUMA boundary."""

    name = "xpmem-reduce-scatter"
    kind = "reduce_scatter"

    def work_set(self, env: CollectiveEnv) -> int:
        return env.s * env.p + env.s

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return 8

    def program(self, ctx, env: CollectiveEnv):
        yield from _xpmem_rs(ctx, env, tag=("xp-rs",))


def _xpmem_attach(ctx, env: CollectiveEnv, n_remote: int) -> None:
    """Charge the per-remote-segment attach/translation cost."""
    m = env.engine.machine
    if m is not None and n_remote > 0:
        ctx.compute(n_remote * m.xpmem_attach_overhead)


def _xpmem_rs(ctx, env: CollectiveEnv, *, tag, base_zero: bool = True):
    """Direct-access reduce of this rank's partition.

    ``base_zero`` places the result at offset 0 of the receiving buffer
    (MPI reduce-scatter block semantics); the allreduce variant keeps
    the partition at its natural message offset instead.
    """
    p, r, s = env.p, ctx.rank, env.s
    if p == 1:
        ctx.copy(env.recvbufs[0].view(0, s), env.sendbufs[0].view(0, s))
        return
    yield ctx.barrier()  # attach/registration rendezvous
    _xpmem_attach(ctx, env, p - 1)
    off0, length = partition(s, p)[r]
    recv = env.recvbufs[r]
    if length:
        dst = recv.view(0 if base_zero else off0, length)
        ctx.reduce_out(dst, env.sendbufs[0].view(off0, length),
                       env.sendbufs[1].view(off0, length), op=env.op)
        for a in range(2, p):
            ctx.reduce_acc(dst, env.sendbufs[a].view(off0, length), op=env.op)
    ctx.post((tag, "done", r))


class XPMEMAllreduce:
    """XPMEM reduce-scatter followed by direct allgather of the
    partitions out of the owners' receiving buffers (stores through
    ``memmove``: NT only when ``s/p`` crosses the library threshold)."""

    name = "xpmem-allreduce"
    kind = "allreduce"

    def work_set(self, env: CollectiveEnv) -> int:
        return 2 * env.s * env.p

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return 8

    def program(self, ctx, env: CollectiveEnv):
        p, r, s = env.p, ctx.rank, env.s
        tag = ("xp-ar",)
        yield from _xpmem_rs(ctx, env, tag=tag, base_zero=False)
        if p == 1:
            return
        parts = partition(s, p)
        recv = env.recvbufs[r]
        for owner in range(p):
            off, n = parts[owner]
            if not n or owner == r:
                continue
            yield ctx.wait((tag, "done", owner))
            # direct single-copy from the owner's recvbuf; memmove picks
            # the store path from the chunk size alone.  All ranks read
            # the same owner block: cooperative load.
            ctx.copy(recv.view(off, n), env.recvbufs[owner].view(off, n),
                     nt=resolve_nt("memmove", n, env.engine.machine),
                     policy="memmove", load_concurrency=2)


class XPMEMReduce:
    """Hierarchical direct reduce: each rank reduces its partition from
    all send buffers into shared scratch; the root assembles."""

    name = "xpmem-reduce"
    kind = "reduce"

    def work_set(self, env: CollectiveEnv) -> int:
        return env.s * env.p + env.s

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return env.s

    def program(self, ctx, env: CollectiveEnv):
        p, r, s = env.p, ctx.rank, env.s
        if p == 1:
            ctx.copy(env.recvbufs[0].view(0, s), env.sendbufs[0].view(0, s))
            return
        tag = ("xp-r",)
        yield ctx.barrier()
        _xpmem_attach(ctx, env, p - 1)
        off0, length = partition(s, p)[r]
        if length:
            dst = env.shm.view(off0, length)
            ctx.reduce_out(dst, env.sendbufs[0].view(off0, length),
                           env.sendbufs[1].view(off0, length), op=env.op)
            for a in range(2, p):
                ctx.reduce_acc(dst, env.sendbufs[a].view(off0, length),
                               op=env.op)
        ctx.post((tag, "part", r))
        if r == env.root:
            for owner in range(p):
                off, n = partition(s, p)[owner]
                if not n:
                    continue
                yield ctx.wait((tag, "part", owner))
                ctx.copy(env.recvbufs[r].view(off, n), env.shm.view(off, n),
                         nt=resolve_nt("memmove", n, env.engine.machine),
                         policy="memmove", concurrency=1)


class XPMEMBcast:
    """Every rank copies the root's buffer directly, in ``s/p`` chunks
    through ``memmove`` — single-copy, but cross-socket readers stream
    over the NUMA link and NT only engages for huge messages."""

    name = "xpmem-bcast"
    kind = "bcast"

    def work_set(self, env: CollectiveEnv) -> int:
        return env.s * env.p

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return 8

    def program(self, ctx, env: CollectiveEnv):
        p, r, s = env.p, ctx.rank, env.s
        if p == 1 or r == env.root:
            if r == env.root:
                yield ctx.barrier()
            return
        yield ctx.barrier()
        _xpmem_attach(ctx, env, 1)
        chunk = max(8, -(-(s // p) // 8) * 8)
        src = env.sendbufs[env.root]
        for off, n in subslices(0, s, chunk):
            # all non-roots stream the *same* source: each byte crosses
            # the memory system once, cooperatively (load_concurrency)
            ctx.copy(env.recvbufs[r].view(off, n), src.view(off, n),
                     nt=resolve_nt("memmove", n, env.engine.machine),
                     policy="memmove", load_concurrency=2)


class XPMEMAllgather:
    """Each rank copies every peer's send buffer directly (memmove)."""

    name = "xpmem-allgather"
    kind = "allgather"

    def work_set(self, env: CollectiveEnv) -> int:
        return env.s * env.p + env.s * env.p * env.p

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return 8

    def program(self, ctx, env: CollectiveEnv):
        p, r, s = env.p, ctx.rank, env.s
        recv = env.recvbufs[r]
        if p == 1:
            ctx.copy(recv.view(0, s), env.sendbufs[0].view(0, s))
            return
        yield ctx.barrier()
        _xpmem_attach(ctx, env, p - 1)
        chunk = max(8, -(-(s // p) // 8) * 8)
        for a in range(p):
            src = env.sendbufs[a]
            for off, n in subslices(0, s, chunk):
                ctx.copy(recv.view(a * s + off, n), src.view(off, n),
                         nt=resolve_nt("memmove", n, env.engine.machine),
                         policy="memmove", load_concurrency=2)


# ---------------------------------------------------------------------------
# CMA (kernel-assisted) — Open MPI / Intel MPI
# ---------------------------------------------------------------------------


class CMARingReduceScatter:
    """Ring reduce-scatter with kernel-assisted single-copy receives:
    the receiver ``process_vm_readv``-copies the sender's accumulated
    chunk into private scratch (page-walk overhead, temporal stores
    only), then reduces locally."""

    name = "cma-ring-reduce-scatter"
    kind = "reduce_scatter"

    def __init__(self, name: str = "cma-ring-reduce-scatter",
                 kernel_factor: float = 1.0):
        self.name = name
        self.kernel_factor = kernel_factor

    def work_set(self, env: CollectiveEnv) -> int:
        return env.s * env.p + env.s

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return 8

    def program(self, ctx, env: CollectiveEnv):
        yield from _cma_ring_rs(ctx, env, tag=("cma-rs", self.name),
                                final_in_shm=False,
                                kernel_factor=self.kernel_factor)


def _cma_ring_rs(ctx, env: CollectiveEnv, *, tag, final_in_shm: bool,
                 kernel_factor: float):
    p, r, s = env.p, ctx.rank, env.s
    if p == 1:
        ctx.copy(env.recvbufs[0].view(0, s), env.sendbufs[0].view(0, s))
        return
    parts = partition(s, p)
    maxc = max(n for _, n in parts)
    send = env.sendbufs[r]
    left = (r - 1) % p
    # Private scratch: one landing buffer for the kernel copy, two
    # alternating accumulators the right neighbour reads directly.
    incoming = env.engine.alloc(r, max(maxc, 8), name=f"cmain[{r}]")
    accbuf = [
        env.engine.alloc(r, max(maxc, 8), name=f"cmaacc[{r}].{i}")
        for i in range(2)
    ]
    # Publish before any step so the neighbour can resolve my buffers
    # (plain assignment: re-runs on the same env must repoint to the
    # current iteration's scratch).
    env.params[("cma_acc", r)] = accbuf

    for k in range(p - 1):
        recv_chunk = (r - k - 2) % p
        r_off, r_len = parts[recv_chunk]
        # Expose my current chunk (zero-copy: the accumulator written in
        # step k-1, or my send buffer at step 0) and fetch the left
        # neighbour's with one kernel-assisted copy.
        ctx.post((tag, "exposed", r, k))
        yield ctx.wait((tag, "exposed", left, k))
        if r_len:
            src = (
                env.sendbufs[left].view(r_off, r_len)
                if k == 0
                else env.params[("cma_acc", left)][(k - 1) % 2].view(0, r_len)
            )
            ctx.copy(incoming.view(0, r_len), src, nt=False, policy="kernel",
                     extra_time=kernel_copy_time(env.engine.machine, r_len,
                                                 factor=kernel_factor))
        ctx.post((tag, "copied", left, k))
        last = k == p - 2
        if last:
            dst = (
                env.shm.view(r_off, r_len)
                if final_in_shm
                else env.recvbufs[r].view(0, r_len)
            )
        else:
            # accbuf[k % 2] was read by the right neighbour at step k-1;
            # wait for that read before overwriting.
            if k >= 2:
                yield ctx.wait((tag, "copied", r, k - 1))
            dst = accbuf[k % 2].view(0, r_len)
        if r_len:
            ctx.reduce_out(dst, incoming.view(0, r_len),
                           send.view(r_off, r_len), op=env.op)
        if last:
            ctx.post((tag, "result", recv_chunk))


class CMARingAllreduce:
    """CMA ring reduce-scatter into shm + direct copy-out (no NT)."""

    name = "cma-ring-allreduce"
    kind = "allreduce"

    def __init__(self, name: str = "cma-ring-allreduce",
                 kernel_factor: float = 1.0):
        self.name = name
        self.kernel_factor = kernel_factor

    def work_set(self, env: CollectiveEnv) -> int:
        return 2 * env.s * env.p

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return env.s

    def program(self, ctx, env: CollectiveEnv):
        p, r, s = env.p, ctx.rank, env.s
        tag = ("cma-ar", self.name)
        yield from _cma_ring_rs(ctx, env, tag=tag, final_in_shm=True,
                                kernel_factor=self.kernel_factor)
        if p == 1:
            return
        parts = partition(s, p)
        recv = env.recvbufs[r]
        for chunk in range(p):
            off, n = parts[chunk]
            if not n:
                continue
            if chunk != r:
                yield ctx.wait((tag, "result", chunk))
            ctx.copy(recv.view(off, n), env.shm.view(off, n), nt=False,
                     policy="t")


class CMABcast:
    """One-to-all direct read through CMA: every rank kernel-copies the
    root's buffer; the kernel serializes the page-lock walks (Table 5's
    one-to-all contention)."""

    name = "cma-bcast"
    kind = "bcast"

    def __init__(self, name: str = "cma-bcast", kernel_factor: float = 1.0):
        self.name = name
        self.kernel_factor = kernel_factor

    def work_set(self, env: CollectiveEnv) -> int:
        return env.s * env.p

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return 8

    def program(self, ctx, env: CollectiveEnv):
        p, r, s = env.p, ctx.rank, env.s
        yield ctx.barrier()
        if p == 1 or r == env.root:
            return
        chunk = max(8, min(2 * MB, -(-(s // max(1, p // 4)) // 8) * 8))
        src = env.sendbufs[env.root]
        for off, n in subslices(0, s, chunk):
            ctx.copy(env.recvbufs[r].view(off, n), src.view(off, n),
                     nt=False, policy="kernel", load_concurrency=2,
                     extra_time=kernel_copy_time(
                         env.engine.machine, n, contention=max(1, p - 1),
                         factor=self.kernel_factor))


class CMAAllgather:
    """All-to-all direct CMA reads of the peers' send buffers."""

    name = "cma-allgather"
    kind = "allgather"

    def __init__(self, name: str = "cma-allgather", kernel_factor: float = 1.0):
        self.name = name
        self.kernel_factor = kernel_factor

    def work_set(self, env: CollectiveEnv) -> int:
        return env.s * env.p + env.s * env.p * env.p

    def shm_bytes(self, env: CollectiveEnv) -> int:
        return 8

    def program(self, ctx, env: CollectiveEnv):
        p, r, s = env.p, ctx.rank, env.s
        recv = env.recvbufs[r]
        if p == 1:
            ctx.copy(recv.view(0, s), env.sendbufs[0].view(0, s))
            return
        yield ctx.barrier()
        for i in range(1, p + 1):
            a = (r + i) % p  # staggered to spread page-lock contention
            src = env.sendbufs[a]
            ctx.copy(recv.view(a * s + 0, s), src.view(0, s), nt=False,
                     policy="kernel",
                     extra_time=kernel_copy_time(
                         env.engine.machine, s, contention=2,
                         factor=self.kernel_factor))


# ---------------------------------------------------------------------------
# MPICH — double-copy shm send/recv with eager cells
# ---------------------------------------------------------------------------


class _CellOverheadMixin:
    """Adds MPICH's per-cell pipelining cost to an env before running."""

    cell_cost = MPICH_CELL_COST

    def _with_cells(self, env: CollectiveEnv) -> None:
        env.params["cell_overhead"] = (self.cell_cost, MPICH_CELL)


class MPICHAllreduce(_CellOverheadMixin, RabenseifnerAllreduce):
    name = "mpich-allreduce"

    def program(self, ctx, env):
        self._with_cells(env)
        return super().program(ctx, env)


class MPICHReduceScatter(_CellOverheadMixin, RabenseifnerReduceScatter):
    name = "mpich-reduce-scatter"

    def program(self, ctx, env):
        self._with_cells(env)
        return super().program(ctx, env)


def _bounded_slice(s: int) -> int:
    """Simulation granularity: at most ~64 pipeline slices per message.

    MPICH really pipelines in 32 KB cells; the per-cell cost is charged
    by the ``cell_overhead`` hook, so coarsening the *simulated* slice
    count changes neither traffic nor the cell overhead totals.
    """
    return max(MPICH_CELL, -(-s // 64 // 8) * 8)


class MPICHReduce(_CellOverheadMixin, RGReduce):
    """Binomial (k=1) shm tree reduce with eager-cell overheads."""

    name = "mpich-reduce"
    kind = "reduce"

    def __init__(self):
        super().__init__(branch=1, slice_size=MPICH_CELL)

    def shm_bytes(self, env):
        # slots sized for the bounded simulation slice used in program()
        i_size = -(-min(_bounded_slice(env.s), max(env.s, 8)) // 8) * 8
        return 2 * env.p * i_size

    def program(self, ctx, env):
        self._with_cells(env)
        inner = RGReduce(branch=1, slice_size=_bounded_slice(env.s))
        return inner.program(ctx, env)


class MPICHBcast(_CellOverheadMixin, PipelinedBcast):
    name = "mpich-bcast"

    def program(self, ctx, env):
        self._with_cells(env)
        env.imax = min(env.imax, _bounded_slice(env.s))
        return super().program(ctx, env)


class MPICHAllgather(_CellOverheadMixin, PipelinedAllgather):
    name = "mpich-allgather"

    def program(self, ctx, env):
        self._with_cells(env)
        env.imax = min(env.imax, _bounded_slice(env.s))
        return super().program(ctx, env)


# ---------------------------------------------------------------------------
# Vendor registry
# ---------------------------------------------------------------------------


def make_vendor_suites():
    """Per-vendor collective algorithm suites (copy policy in 2nd slot).

    Returns ``{vendor: {collective_kind: (algorithm, copy_policy)}}``.
    """
    return {
        "Open MPI": {
            "reduce_scatter": (CMARingReduceScatter("ompi-rs"), "t"),
            "allreduce": (CMARingAllreduce("ompi-ar"), "t"),
            "reduce": (RGReduce(branch=3), "t"),
            "bcast": (CMABcast("ompi-bc"), "t"),
            "allgather": (CMAAllgather("ompi-ag"), "t"),
        },
        "Intel MPI": {
            "reduce_scatter": (
                CMARingReduceScatter("impi-rs", kernel_factor=0.5), "t"),
            "allreduce": (CMARingAllreduce("impi-ar", kernel_factor=0.5), "t"),
            "reduce": (RGReduce(branch=4), "memmove"),
            "bcast": (PipelinedBcast(), "memmove"),
            "allgather": (CMAAllgather("impi-ag", kernel_factor=0.5), "t"),
        },
        "MVAPICH2": {
            "reduce_scatter": (DPMLReduceScatter(), "t"),
            "allreduce": (TwoLevelDPMLAllreduce(), "t"),
            "reduce": (DPMLReduce(), "t"),
            "bcast": (PipelinedBcast(), "t"),
            "allgather": (PipelinedAllgather(), "t"),
        },
        "MPICH": {
            "reduce_scatter": (MPICHReduceScatter(), "t"),
            "allreduce": (MPICHAllreduce(), "t"),
            "reduce": (MPICHReduce(), "t"),
            "bcast": (MPICHBcast(), "t"),
            "allgather": (MPICHAllgather(), "t"),
        },
        "XPMEM": {
            "reduce_scatter": (XPMEMReduceScatter(), "t"),
            "allreduce": (XPMEMAllreduce(), "t"),
            "reduce": (XPMEMReduce(), "t"),
            "bcast": (XPMEMBcast(), "t"),
            "allgather": (XPMEMAllgather(), "t"),
        },
    }
