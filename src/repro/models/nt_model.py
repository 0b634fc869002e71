"""The adaptive non-temporal store switch-point model (Sections 4.2, 5.4).

Algorithm 1 selects an NT store when the stored data is non-temporal
(``t == 1``) and the collective's work data size exceeds the available
cache (``W > C``).  Solving ``W > C`` for the message size gives the
switch points the paper verifies in Figure 12:

For the socket-aware MA allreduce, ``W = 2 s p + m p Imax``, so

    ``s > (C - m * p * Imax) / (2 p)``

On NodeA (C = 256 MB + 64 * 512 KB = 288 MB, Imax = 256 KB, m = 2,
p = 64): 2176 KB.  On NodeB (C = 66 MB + 48 * 1 MB = 114 MB, Imax =
128 KB, m = 2, p = 48): 1152 KB.  The benchmarks check that the
simulated YHCCL curve starts beating pure t-copy at these sizes.
"""

from __future__ import annotations

from typing import Optional

from repro.machine.spec import MachineSpec, available_cache_capacity

#: every collective kind the decision models cover; anything else is a
#: caller bug and raises ``KeyError`` naming this list (mirroring the
#: timing model's ``_SYNC_STEPS`` discipline)
KNOWN_KINDS = ("allgather", "allreduce", "bcast", "reduce",
               "reduce_scatter")


def work_set_size(kind: str, s: int, p: int, *, m: int = 2,
                  imax: int = 256 * 1024) -> int:
    """Work data size ``W`` of a YHCCL collective.

    Section 4.3.1's socket-aware text includes an ``m`` factor on the
    auxiliary term, but Section 5.4's numeric switch points (2176 KB /
    1152 KB, validated by Figure 12) are evaluated with ``p * Imax``;
    we implement the evaluated form (``m`` is accepted and ignored for
    the reduction kinds to keep the signature uniform).
    """
    if kind == "allreduce":
        return 2 * s * p + p * imax
    if kind in ("reduce", "reduce_scatter"):
        return s * p + s + p * imax
    if kind == "bcast":
        return s + s * (p - 1) + 2 * imax
    if kind == "allgather":
        return s * p + s * p * p + 2 * p * imax
    raise ValueError(f"unknown collective kind {kind!r}")


def uses_nt_store(kind: str, s: int, machine: MachineSpec, p: int, *,
                  imax: int = 256 * 1024, t_flag: bool = True) -> bool:
    """Would Algorithm 1 pick an NT store for this copy?"""
    if not t_flag:
        return False
    c = available_cache_capacity(machine, p)
    m = machine.sockets
    return work_set_size(kind, s, p, m=m, imax=imax) > c


def _socket_group_sizes(p: int, machine: MachineSpec) -> list:
    """Distinct non-empty per-socket rank-group sizes at rank count
    ``p`` — the group sizes the socket-aware level-1 pipelines run
    over (:func:`repro.collectives.socket_aware.socket_groups`)."""
    return sorted({
        len(machine.ranks_on_socket(p, sock))
        for sock in range(machine.sockets)
        if machine.ranks_on_socket(p, sock)
    })


def shape_atoms(kind: str, s: int, p: int, machine: MachineSpec, *,
                imax: int, small_threshold: Optional[int] = None) -> dict:
    """Exact schedule-*shape* drivers of one cell, as a JSON-safe dict.

    The scalar guard atoms (``slices``, ``blocks8k``) approximate the
    library's slicing with the global rank count, but the algorithms
    slice at several granularities — the socket-aware level-1 pipeline
    chops each socket's partition with ``compute_slice_size(s,
    p_socket)``, the pipelined bcast/allgather stage over
    ``min(imax, s)`` slices, and DPML blocks each phase's lengths at
    8 KB (clamped to ``MAX_BLOCKS``).  Two sizes whose *counts* differ
    at any granularity execute differently-shaped DAGs even when every
    scalar atom agrees, which is exactly the unsoundness the symbolic
    certifier (:mod:`repro.analysis.static.symbolic`) would flag as a
    shape-unification failure.  These atoms pin every such count, so a
    decision region really is shape-invariant.
    """
    from repro.collectives.common import (
        IMIN_DEFAULT,
        compute_slice_size,
        partition,
        subslices,
    )
    from repro.collectives.dpml import MAX_BLOCKS, REDUCE_BLOCK
    from repro.collectives.switching import SMALL_THRESHOLD

    thr = SMALL_THRESHOLD if small_threshold is None else small_threshold
    atoms: dict = {}
    if s <= 0:
        return atoms
    if kind in ("bcast", "allgather"):
        # pipelined algorithms: double-buffered stages over
        # align8(min(imax, s)) slices of the whole message
        i = -(-min(imax, max(s, 8)) // 8) * 8
        atoms["stages"] = len(subslices(0, s, i))
        return atoms

    def rounds(g: int) -> list:
        i = compute_slice_size(s, g, imax, IMIN_DEFAULT)
        return sorted({len(subslices(off, ln, i))
                       for off, ln in partition(s, g)})

    def dpml_blocks(length: int) -> int:
        block = max(REDUCE_BLOCK, -(-length // MAX_BLOCKS))
        return len(subslices(0, length, -(-block // 8) * 8))

    if s <= thr:
        # DPML regime: 8 KB reduction blocks over the phase lengths —
        # the whole message (copy-in), the global partitions (phase 2 /
        # level 2) and the per-socket partitions (two-level level 1b)
        lengths = {s} | {ln for _, ln in partition(s, p)}
        for g in _socket_group_sizes(p, machine):
            lengths |= {ln for _, ln in partition(s, g)}
        atoms["blocks"] = sorted({dpml_blocks(ln) for ln in lengths if ln})
    else:
        # MA regime: per-part sub-slice counts at every pipeline
        # granularity — global (plain MA, level 2, copy-out) and
        # per-socket (socket-aware level 1)
        for g in sorted({p} | set(_socket_group_sizes(p, machine))):
            atoms[f"rounds{g}"] = rounds(g)
    return atoms


def region_modulus(p: int, machine: MachineSpec) -> int:
    """The size step that preserves footprint affinity inside a
    decision region.

    Partition offsets and lengths are piecewise-affine in ``s`` with
    breakpoints at every residue change of ``s`` modulo the 8-byte
    partition alignment times the group size, and DPML's proportional
    block regime (``ceil(length / MAX_BLOCKS)`` re-aligned to 8) adds
    a factor-16 grain on each length.  ``128 * lcm(p, socket group
    sizes)`` clears all of them: two guard-equal sizes congruent
    modulo this value have footprints that are *exactly* affine in
    ``s`` — the invariant symbolic certification builds on.
    """
    from math import gcd

    m = p
    for g in _socket_group_sizes(p, machine):
        m = m * g // gcd(m, g)
    return 128 * m


def decision_guards(kind: str, s: int, p: int, machine: MachineSpec, *,
                    imax: int, policy: str = "adaptive",
                    small_threshold: Optional[int] = None) -> dict:
    """The *decision guards* of one ``(kind, s, p, machine, imax,
    policy)`` cell: every size-dependent adaptive decision the library
    stack takes, evaluated as a flat JSON-safe dict.

    Two message sizes whose guards evaluate identically sit in the
    same **decision region**: the collective executes the same
    algorithm regime, the same slice structure, the same NT-store
    switch and the same cache-streaming regime, so one captured
    compiled schedule can serve the other size once a region
    certificate (:mod:`repro.analysis.static.symbolic`) proves the
    shape over both.  A guard mismatch keys a different
    schedule-cache entry, which is exactly the automatic-recapture
    path.

    Guard atoms:

    * ``regime`` — small-message vs large-message algorithm routing
      (:data:`repro.collectives.switching.SMALL_THRESHOLD`);
    * ``nt`` — Algorithm 1's non-temporal store switch
      (:func:`uses_nt_store`); ``None`` when the copy policy pins the
      store path or the kind has no work-set formula;
    * ``slices`` — per-rank block slice count under the ``imax`` cap,
      plus divisibility flags (``tail_p``, ``tail_slice``): uneven
      blocks change the schedule shape, not just its byte counts;
    * ``blocks8k`` — the fixed 8 KB reduction-block count driving the
      small-regime (DPML) op structure;
    * ``streams`` — whether a per-rank block streams through the
      retained per-socket cache
      (:func:`repro.machine.cache.streams_through`);
    * ``shape`` — the exact slicing structure at every granularity the
      algorithms pipeline over (:func:`shape_atoms`): per-socket and
      global sub-slice counts, pipelined stage counts, DPML block
      counts.  These close the gap between "same scalar guards" and
      "same DAG shape" that symbolic region certification proves.

    Unknown ``kind`` values raise ``KeyError`` naming
    :data:`KNOWN_KINDS` — a guard dict for an unmodeled collective
    would silently merge distinct schedules into one region.
    """
    from repro.collectives.switching import SMALL_THRESHOLD
    from repro.machine.cache import streams_through
    from repro.machine.memory import MemorySystem

    if kind not in KNOWN_KINDS:
        raise KeyError(
            f"unknown collective kind {kind!r}; decision guards cover: "
            f"{', '.join(KNOWN_KINDS)}"
        )
    if imax <= 0:
        raise ValueError(f"imax must be positive, got {imax}")
    thr = SMALL_THRESHOLD if small_threshold is None else small_threshold
    block = -(-s // p) if s > 0 else 0  # ceil: one rank's share
    slices = -(-block // imax) if block else 0
    nt: Optional[bool] = None
    if policy == "adaptive":
        nt = uses_nt_store(kind, s, machine, p, imax=imax)
    small = s <= thr
    retained = int(MemorySystem.CACHE_RETENTION
                   * machine.socket.effective_cache_capacity)
    return {
        "kind": kind,
        "p": p,
        "policy": policy,
        "imax": imax,
        "regime": "small" if small else "large",
        "nt": nt,
        "slices": slices,
        "tail_p": bool(s % p),
        "tail_slice": bool(block % slices) if slices else False,
        "blocks8k": -(-block // 8192) if small and block else 0,
        "streams": streams_through(block, retained),
        "shape": shape_atoms(kind, s, p, machine, imax=imax,
                             small_threshold=thr),
    }


def nt_switch_message_size(kind: str, machine: MachineSpec, p: int, *,
                           imax: int = 256 * 1024) -> float:
    """Smallest message size at which NT stores engage (bytes).

    Derived by solving ``W(s) > C`` for ``s``; 0 when NT is always on.
    """
    c = available_cache_capacity(machine, p)
    if kind == "allreduce":
        s = (c - p * imax) / (2 * p)
    elif kind in ("reduce", "reduce_scatter"):
        s = (c - p * imax) / (p + 1)
    elif kind == "bcast":
        s = (c - 2 * imax) / p
    elif kind == "allgather":
        s = (c - 2 * p * imax) / (p + p * p)
    else:
        raise ValueError(f"unknown collective kind {kind!r}")
    return max(0.0, s)
