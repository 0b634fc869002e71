"""Shared infrastructure for collective implementations.

Defines message partitioning, the paper's slice-size rule, the
environment bundle handed to rank programs, and
:func:`run_collective`, the one runner: it allocates buffers, executes
a collective on an :class:`~repro.sim.engine.Engine` and (in
functional mode) verifies the result against a numpy oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.copyengine.primitives import resolve_nt
from repro.machine.spec import CACHE_LINE, KB, available_cache_capacity
from repro.sim.buffers import BufView, SharedBuffer
from repro.sim.engine import Engine, RunResult

#: Minimum slice size: one cache line, to avoid false sharing (Sec. 5.1).
IMIN_DEFAULT = CACHE_LINE
#: Default maximum slice size (the paper tunes 128 KB–1 MB per platform).
IMAX_DEFAULT = 256 * KB

ALIGN = 8  # element alignment for float64 payloads


def partition(total: int, parts: int, align: int = ALIGN) -> list[tuple[int, int]]:
    """Split ``total`` bytes into ``parts`` aligned (offset, length) pieces.

    Lengths are multiples of ``align`` except possibly the last; earlier
    parts absorb the remainder, mirroring MPI's reduce-scatter block
    conventions.  Zero-length parts are allowed when ``total`` is small.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < 0:
        raise ValueError("total must be non-negative")
    units = total // align
    tail = total - units * align
    base, extra = divmod(units, parts)
    out = []
    off = 0
    for i in range(parts):
        length = (base + (1 if i < extra else 0)) * align
        if i == parts - 1:
            length += tail
        out.append((off, length))
        off += length
    assert off == total
    return out


def compute_slice_size(s: int, p: int, imax: int = IMAX_DEFAULT,
                       imin: int = IMIN_DEFAULT) -> int:
    """The paper's slice-size rule ``I = max(min(s/p, Imax), Imin)``.

    Rounded up to ``ALIGN`` so slices hold whole elements.
    """
    if s <= 0 or p <= 0:
        raise ValueError("message size and p must be positive")
    i = max(min(s // p, imax), imin)
    return -(-i // ALIGN) * ALIGN


def subslices(off: int, length: int, i_size: int) -> list[tuple[int, int]]:
    """Chop ``[off, off+length)`` into pieces of at most ``i_size`` bytes."""
    if i_size <= 0:
        raise ValueError("slice size must be positive")
    out = []
    end = off + length
    while off < end:
        n = min(i_size, end - off)
        out.append((off, n))
        off += n
    return out


@dataclass
class CollectiveEnv:
    """Everything a collective rank program needs.

    ``sendbufs[r]`` / ``recvbufs[r]`` are per-rank private buffers of
    ``s`` bytes each (``p * s`` for an all-gather's result);
    ``shm`` is the node's shared segment; ``op`` the reduction operator.
    ``copy_policy`` selects the store path for data-movement copies:
    ``"t"``, ``"nt"``, ``"memmove"`` or ``"adaptive"`` (Algorithm 1,
    using ``work_set`` and the machine's available cache capacity).
    """

    engine: Engine
    sendbufs: list
    recvbufs: list
    shm: SharedBuffer
    s: int
    p: int
    op: str = "sum"
    copy_policy: str = "t"
    imax: int = IMAX_DEFAULT
    imin: int = IMIN_DEFAULT
    root: int = 0
    work_set: int = 0
    cache_capacity: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.collectives.ops import get_op

        get_op(self.op)  # raises for unknown operators
        if self.engine.machine is not None and not self.cache_capacity:
            self.cache_capacity = available_cache_capacity(
                self.engine.machine, self.p
            )

    def copy(self, ctx, dst: BufView, src: BufView, *, t_flag: bool,
             concurrency=None, load_concurrency=None) -> None:
        """One data-movement copy under ``copy_policy``.

        ``t_flag`` is True when the *stored* data is non-temporal (will
        not be reused soon) — e.g. copy-outs to receiving buffers.
        """
        extra = 0.0
        cell = self.params.get("cell_overhead")
        if cell is not None:
            # (cost_per_cell, cell_bytes): eager-cell pipelining overhead
            # of double-copy send/recv implementations (MPICH model).
            cost, size = cell
            extra = cost * (-(-dst.nbytes // size))
        nt = resolve_nt(self.copy_policy, dst.nbytes, self.engine.machine,
                        t_flag=t_flag, work_set=self.work_set,
                        cache_capacity=self.cache_capacity)
        ctx.copy(dst, src, nt=nt, policy=self.copy_policy,
                 concurrency=concurrency, load_concurrency=load_concurrency,
                 extra_time=extra)

    def copy_out(self, ctx, dst: BufView, src: BufView, *,
                 concurrency=None) -> None:
        """A fan-out copy-out: many ranks read the *same* shared result,
        so the load side is cooperative (each byte crosses the memory
        system once) while the stores contend normally."""
        self.copy(ctx, dst, src, t_flag=True, concurrency=concurrency,
                  load_concurrency=2)

    def slice_size(self) -> int:
        return compute_slice_size(self.s, self.p, self.imax, self.imin)


# ---------------------------------------------------------------------------
# The runner, with functional verification
# ---------------------------------------------------------------------------

#: the collectives :func:`run_collective` runs (``algorithm.kind``)
KINDS = ("reduce_scatter", "reduce", "allreduce", "bcast", "allgather")


def _oracle_reduce(env: CollectiveEnv) -> np.ndarray:
    """Left fold in rank order — the semantics MPI defines for
    non-commutative operators (and equal to any order for commutative
    ones, up to floating-point rounding)."""
    from repro.collectives.ops import get_op

    ufunc = get_op(env.op).ufunc
    acc = env.sendbufs[0].array().copy()
    for r in range(1, env.p):
        ufunc(acc, env.sendbufs[r].array(), out=acc)
    return acc


def make_env(
    algorithm,
    *,
    engine: Engine,
    s: int,
    op: str = "sum",
    copy_policy: str = "t",
    imax: int = IMAX_DEFAULT,
    imin: int = IMIN_DEFAULT,
    root: int = 0,
    params: Optional[dict] = None,
) -> CollectiveEnv:
    """Allocate buffers for a collective and build its environment.

    ``algorithm`` must provide ``name``, ``kind`` and ``shm_bytes(env)``;
    an all-gather's receive buffers hold all ``p`` contributions.  The
    shm segment is sized after the env exists (it may depend on the
    slice size), so a placeholder 1-byte segment is replaced once known.
    """
    p = engine.nranks
    recv_bytes = s * p if algorithm.kind == "allgather" else s
    sendbufs = [
        engine.alloc(r, s, random=True, name=f"send[{r}]") for r in range(p)
    ]
    recvbufs = [
        engine.alloc(r, recv_bytes, fill=0.0, name=f"recv[{r}]")
        for r in range(p)
    ]
    env = CollectiveEnv(
        engine=engine,
        sendbufs=sendbufs,
        recvbufs=recvbufs,
        shm=None,  # type: ignore[arg-type]
        s=s,
        p=p,
        op=op,
        copy_policy=copy_policy,
        imax=imax,
        imin=imin,
        root=root,
        params=dict(params or {}),
    )
    env.work_set = algorithm.work_set(env)
    env.shm = engine.alloc_shared(max(1 * ALIGN, algorithm.shm_bytes(env)),
                                  name=f"shm.{algorithm.name}")
    return env


def run_collective(algorithm, engine: Engine, s: int, *,
                   op: str = "sum", copy_policy: str = "t",
                   imax: int = IMAX_DEFAULT, imin: int = IMIN_DEFAULT,
                   root: int = 0, verify: Optional[bool] = None,
                   params: Optional[dict] = None,
                   iterations: int = 1) -> RunResult:
    """Run one collective and verify it functionally.

    ``algorithm.kind`` names the collective, one of :data:`KINDS`; ``s``
    is the per-rank message size (an all-gather's result is ``p * s``).
    Verification compares the receiving buffers with a numpy oracle; it
    is on by default in functional mode.

    ``iterations > 1`` re-runs the collective on the same buffers and
    reports the *last* run — the steady-state (warm-cache) measurement
    the OSU-style loops of the paper's evaluation produce.
    """
    if algorithm.kind not in KINDS:
        raise ValueError(
            f"cannot run {algorithm.name!r}: kind {algorithm.kind!r} is "
            f"not one of {', '.join(KINDS)}"
        )
    env = make_env(algorithm, engine=engine, s=s, op=op,
                   copy_policy=copy_policy, imax=imax, imin=imin, root=root,
                   params=params)
    result = _run_iterated(engine, algorithm, env, iterations)
    if verify is None:
        verify = engine.functional
    if verify:
        _verify(algorithm.kind, env)
    return result


def _verify(kind: str, env: CollectiveEnv) -> None:
    """Check every receiving buffer ``kind`` defines against the oracle.

    Broadcast and all-gather only move bytes, so they must match
    exactly; a reduction's summation order differs from the oracle's
    left fold, so its tolerance follows the payload precision.
    """
    p, root = env.p, env.root
    if kind == "bcast":
        want = env.sendbufs[root].array()
        checks = [(r, want) for r in range(p) if r != root]
    elif kind == "allgather":
        want = np.concatenate([env.sendbufs[r].array() for r in range(p)])
        checks = [(r, want) for r in range(p)]
    else:
        full = _oracle_reduce(env)
        if kind == "allreduce":
            checks = [(r, full) for r in range(p)]
        elif kind == "reduce":
            checks = [(root, full)]
        else:
            isz = env.engine.dtype.itemsize
            checks = [(r, full[off // isz:(off + n) // isz])
                      for r, (off, n) in enumerate(partition(env.s, p))]
    dt = env.engine.dtype
    rtol = 0.0 if dt.kind in "iu" else 1e-10 if dt.itemsize >= 8 else 1e-4
    for r, want in checks:
        got = env.recvbufs[r].array()[:want.size]
        msg = f"{kind} result wrong on rank {r}"
        if kind in ("bcast", "allgather"):
            np.testing.assert_array_equal(got, want, err_msg=msg)
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, err_msg=msg)


def _run_iterated(engine: Engine, algorithm, env: CollectiveEnv,
                  iterations: int) -> RunResult:
    """Run ``iterations`` times on the same buffers, return the last.

    Models the paper's OSU-style measurement loop: buffers are reused
    (and refreshed) across iterations, so small working sets are
    cache-resident in the reported steady state.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    result = None
    for _ in range(iterations):
        result = engine.run(lambda ctx: algorithm.program(ctx, env))
    return result
