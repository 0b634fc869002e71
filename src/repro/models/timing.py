"""Algebraic timing model: time = traffic / bandwidth + synchronization.

A deliberately coarse first-order model — no cache simulation — used to
(a) sanity-check the event simulator (tests assert agreement within a
factor) and (b) give users a quick back-of-envelope API:

    time ≈ memory_traffic / node_stream_bandwidth
           + sync_steps * sync_latency
           + ops * op_overhead

``memory_traffic`` is estimated from the DAV formula and a store-path
multiplier: temporal stores triple the store traffic (RFO + write-back)
once the working set exceeds the cache, NT stores don't.
"""

from __future__ import annotations

from repro.machine.spec import MachineSpec, available_cache_capacity
from repro.models.dav import DAV_FORMULAS, op_touched_bytes
from repro.models.nt_model import work_set_size

#: sync steps on the critical path, per algorithm (rounds as
#: f(size, ranks, slice cap, sockets)).  ``m`` is the machine's socket
#: count: socket-aware MA synchronizes within each of the ``m``
#: per-socket groups of ``p // m`` ranks, then once per extra socket at
#: the cross-socket combine — with ``m = 1`` it degenerates to flat MA,
#: and ``m = 2`` reproduces the two-socket form the model originally
#: hard-coded.
_SYNC_STEPS = {
    "ma": lambda s, p, imax, m: (p - 1) * max(1, s // (p * imax)),
    "socket-ma": lambda s, p, imax, m: (
        (max(1, p // max(1, m)) - 1) * max(1, s // (p * imax))
        + (max(1, m) - 1)
    ),
    "ring": lambda s, p, imax, m: p - 1,
    "rabenseifner": lambda s, p, imax, m: max(1, p.bit_length() - 1),
    "dpml": lambda s, p, imax, m: 2,
    "rg": lambda s, p, imax, m: max(1, p.bit_length() - 1) + s // imax,
}


def static_op_time(kind: str, nbytes: int, *, cache_bandwidth_core: float,
                   op_overhead: float, sync_latency: float = 0.0,
                   duration: float = 0.0) -> float:
    """Optimistic cost of one operation, for static critical-path
    weighting (:mod:`repro.analysis.static`).

    Every term is a *lower bound* on what the event simulator charges:
    data ops run entirely cache-resident at the per-core cache
    bandwidth plus the fixed per-call overhead; waits/barriers pay
    ``sync_latency`` (the caller passes the intra-socket barrier tree
    latency for barriers — the cheapest the engine ever charges — and
    ``0`` for waits, whose release latency rides the post→wait sync
    edge instead: a wait whose posts landed long ago is free); posts
    are free; compute regions use their program-declared ``duration``.
    Summed along the longest dependency path this yields a
    completion-time bound no schedule of the same DAG can beat on the
    same machine.
    """
    if kind == "compute":
        return duration
    if kind == "post":
        return 0.0
    if kind in ("wait", "barrier"):
        return sync_latency
    touched = op_touched_bytes(kind, nbytes)
    if touched == 0:
        return 0.0
    return touched / cache_bandwidth_core + op_overhead


def predict_time(kind: str, algorithm: str, s: int, p: int,
                 machine: MachineSpec, *, imax: int = 256 * 1024,
                 nt_stores: bool = False) -> float:
    """First-order completion-time estimate for one collective (seconds)."""
    dav = DAV_FORMULAS[kind](algorithm, s, p, m=machine.sockets, paper=False)
    cache = available_cache_capacity(machine, p)
    w = work_set_size(
        kind if kind in ("allreduce", "reduce", "reduce_scatter") else "allreduce",
        s, p, m=machine.sockets, imax=imax,
    )
    # store-path multiplier: roughly 1/3 of DAV bytes are stores; when
    # streaming past the cache each temporal store costs 3x its bytes.
    if w > cache:
        store_factor = 1.0 if nt_stores else 5.0 / 3.0
        traffic = dav * store_factor
    else:
        traffic = dav / 4.0  # mostly cache-resident
    bw = machine.mem_bandwidth_node
    try:
        sync_fn = _SYNC_STEPS[algorithm]
    except KeyError:
        # no silent fallback: a wrong-but-plausible sync count is worse
        # than an error (the DAV formulas accept some algorithms, e.g.
        # "xpmem", that this model has no sync-step form for)
        raise KeyError(
            f"no sync-step model for algorithm {algorithm!r}; known: "
            f"{', '.join(sorted(_SYNC_STEPS))}"
        ) from None
    syncs = sync_fn(s, p, imax, machine.sockets)
    t_sync = syncs * machine.sync_latency_intra * 2
    return traffic / bw + t_sync
