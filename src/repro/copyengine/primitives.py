"""The copy layer: every copy's store path is decided and charged here.

All copies execute through :meth:`repro.sim.engine.RankCtx.copy`; the
copy policies differ only in the store path, and the kernel-assisted
copy also in a fixed time charge:

* ``"t"`` — prefetched loads + regular (write-allocate) stores.  A
  store miss raises an RFO and the dirty line streams back later: 3
  bytes of memory traffic per byte copied when the destination is cold
  and the working set exceeds the cache.
* ``"nt"`` — prefetched loads + non-temporal stores: the data bypasses
  the cache, 2 bytes of traffic per byte copied, but a subsequent load
  of the destination misses.
* ``"memmove"`` — glibc-style: temporal below the library's size
  threshold, non-temporal above it.  The paper's point (Section 2.2) is
  that this thresholds on the *copy size only*, which misjudges
  pipelined collectives that copy small slices of huge messages.
* ``"adaptive"`` — Algorithm 1 (Section 4.2).  Its inputs describe the
  *algorithm* rather than the single call: ``t_flag``, True when the
  stored data is not reused soon (e.g. the copy-out to a receiving
  buffer); ``work_set`` (W), the collective's sending + receiving +
  auxiliary bytes across the node; and ``cache_capacity`` (C),
  ``c' + p * c''`` for a non-inclusive LLC, else ``c'``
  (:func:`repro.machine.spec.available_cache_capacity`).
* ``"kernel"`` — CMA-style kernel-assisted single copy
  (``process_vm_readv``): the destination process reads the source
  pages directly (one copy instead of two), but pays a syscall,
  per-page pinning costs and optional page-lock contention
  (:func:`kernel_copy_time`), and — per Linux's implementation — never
  uses non-temporal stores (Table 5's finding).
"""

from __future__ import annotations

from typing import Optional

from repro.machine.spec import MachineSpec
from repro.sim.buffers import BufView
from repro.sim.engine import RankCtx

#: the store-path rules :func:`resolve_nt` decides
POLICIES = ("t", "nt", "memmove", "adaptive")


def resolve_nt(policy: str, nbytes: int, machine: Optional[MachineSpec], *,
               t_flag: bool = False, work_set: int = 0,
               cache_capacity: int = 0) -> bool:
    """Decide whether a copy of ``nbytes`` uses non-temporal stores.

    ``memmove`` never goes NT without a machine (there is no library
    threshold to cross).

    Note on Algorithm 1: the paper's listing prints the branches as
    ``if t and W > C then t-copy else nt-copy``, but the surrounding
    text (Sections 4.2/4.3 and Figure 8) makes the intent unambiguous:
    NT stores are used exactly when the stored data is *non-temporal*
    (``t == 1``) **and** the working set exceeds the available cache
    (``W > C``).  We implement that intent.
    """
    if policy == "t":
        return False
    if policy == "nt":
        return True
    if policy == "memmove":
        return machine is not None and nbytes >= machine.memmove_nt_threshold
    if policy == "adaptive":
        return bool(t_flag) and work_set > cache_capacity
    raise ValueError(
        f"unknown copy policy {policy!r}; choose from {', '.join(POLICIES)}"
    )


def kernel_copy_time(machine: Optional[MachineSpec], nbytes: int, *,
                     contention: int = 1, factor: float = 1.0) -> float:
    """Extra time of one kernel-assisted copy of ``nbytes``.

    ``contention`` is the number of processes concurrently walking the
    same source pages; the kernel serializes them on the page locks
    (Section 5.6), so the per-page cost scales with it.  ``factor``
    scales the whole charge (Intel MPI's tighter tuning).
    """
    if contention < 1:
        raise ValueError("contention must be >= 1")
    if machine is None:
        return 0.0
    pages = -(-nbytes // machine.kernel_page_size)
    return factor * (
        machine.kernel_syscall_overhead
        + pages * machine.kernel_page_overhead * contention
    )


def copy(ctx: RankCtx, dst: BufView, src: BufView, policy: str, *,
         t_flag: bool = False, work_set: int = 0, cache_capacity: int = 0,
         contention: int = 1) -> None:
    """One copy under ``policy``: a store-path rule of
    :func:`resolve_nt` (``adaptive`` reads ``t_flag``, ``work_set`` and
    ``cache_capacity``) or ``"kernel"`` (``contention`` concurrent
    page walkers, see :func:`kernel_copy_time`)."""
    if policy == "kernel":
        ctx.copy(dst, src, nt=False, policy="kernel",
                 extra_time=kernel_copy_time(ctx.machine, dst.nbytes,
                                             contention=contention))
        return
    ctx.copy(dst, src, policy=policy,
             nt=resolve_nt(policy, dst.nbytes, ctx.machine, t_flag=t_flag,
                           work_set=work_set, cache_capacity=cache_capacity))
