"""Compiled schedule evaluator: vectorized replay of the op-dependency IR.

The coroutine engine (:mod:`repro.sim.engine`) interprets a collective
one operation at a time per rank — generator dispatch, memory-system
calls, scheduler bookkeeping — and is the hot path under every
benchmark sweep.  But under the default FIFO scheduler a collective's
*schedule shape* is deterministic: the same ops, the same sync
structure, the same cache outcomes on every execution.  This module
exploits that by splitting the work in two:

1. **capture** — run the collective *once* through the coroutine
   engine with tracing on and lift the run into the ``repro-ir/1``
   op-dependency DAG (:mod:`repro.analysis.static`);
2. **lower** (:func:`lower`) — flatten the DAG into a topologically
   ordered table of numpy arrays: op kind, byte footprint, rank,
   calibrated duration and CSR predecessor offsets carrying the
   post→wait pair latencies the engine charges on sync edges;
3. **evaluate** (:meth:`CompiledSchedule.evaluate`) — recompute every
   op's completion time with level-by-level vectorized max-plus
   relaxations.  No coroutines, no Python-level per-op dispatch.

The completion-time recurrence is exactly the engine's:

* a data op completes at ``start + duration``;
* a wait releases at ``max(own clock, post clock + pair latency)`` —
  the pair latency rides the sync edge, so a wait whose posts landed
  long ago is free;
* a barrier join completes at ``max(member clocks) + group latency``.

``max`` folds are order-independent in IEEE arithmetic and durations
are *calibrated* at lowering time (nudged by ULPs so that
``start + duration`` reproduces the captured completion bitwise), so
the evaluated times equal the coroutine engine's **bit for bit** — the
equivalence the bench layer's result cache and the tests rely on.

What stays on the coroutine path: anything that must *execute* rather
than re-time a schedule — functional verification, the DPOR model
checker (it explores non-FIFO interleavings) and trace export.
Re-timing under a different machine model is also out: cache outcomes
are access-order *and size* dependent, so a schedule captured on one
(machine, p, size) cell is exact only for that cell.
:func:`CompiledSchedule.model_durations` offers an explicitly
model-level (not engine-exact) re-timing hook built on
:func:`repro.models.timing.static_op_time`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.machine.spec import socket_of_rank_meta

#: schema tag for serialized compiled schedules
COMPILED_SCHEMA = "repro-compiled/1"

#: every schedule schema this loader understands (same guard idiom as
#: the trace/certificate loaders in :mod:`repro.sim.replay`)
SUPPORTED_COMPILED_SCHEMAS = (COMPILED_SCHEMA,)

#: op-kind encoding of the flat schedule (int8 column)
KIND_CODES: Dict[str, int] = {
    "copy": 0,
    "reduce_acc": 1,
    "reduce_out": 2,
    "touch": 3,
    "compute": 4,
    "post": 5,
    "wait": 6,
    "barrier": 7,
}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


def _touch_factors() -> np.ndarray:
    from repro.models.dav import op_touch_factor

    out = np.zeros(len(KIND_CODES), dtype=np.float64)
    for name, code in KIND_CODES.items():
        out[code] = op_touch_factor(name)
    return out


#: Theorem 3.1 byte multipliers indexed by op-kind code (shared with
#: :func:`repro.models.dav.op_touched_bytes`)
_TOUCH_FACTOR_BY_CODE = _touch_factors()


class CompileError(ValueError):
    """The IR cannot be lowered (pending syncs, cycles, unknown ops)."""


class ScheduleSchemaError(ValueError):
    """A serialized schedule fails schema validation (unsupported or
    missing schema tag, absent required fields).  Raised instead of a
    raw ``KeyError`` so cache consumers can distinguish a corrupt or
    future-versioned entry (recapture) from a programming error."""


@dataclass
class CompiledTimes:
    """One evaluation's output: per-op completion and per-rank finish."""

    completion: np.ndarray  # float64 [nodes]
    rank_times: List[float]  # per-rank finish clock, engine `times` form

    @property
    def time(self) -> float:
        """Collective completion time: the slowest rank."""
        return max(self.rank_times) if self.rank_times else 0.0


@dataclass
class BatchedTimes:
    """One :meth:`CompiledSchedule.evaluate_batch` call's output.

    Row ``i`` is bitwise-identical to a single :meth:`evaluate` call
    with the same start times and durations — batching is purely a
    layout change (the same IEEE operations run element-wise across
    the batch axis).
    """

    completion: np.ndarray  # float64 [B, nodes]
    rank_times: np.ndarray  # float64 [B, nranks]

    @property
    def times(self) -> np.ndarray:
        """Per-replay collective completion time: the slowest rank."""
        if self.rank_times.shape[1] == 0:
            return np.zeros(self.rank_times.shape[0], dtype=np.float64)
        return self.rank_times.max(axis=1)

    def __len__(self) -> int:
        return self.rank_times.shape[0]


def _concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Vectorized ``concatenate([arange(s, s+l) for s, l in ...])``."""
    nz = lens > 0
    starts, lens = starts[nz], lens[nz]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lens.sum())
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        offs = np.cumsum(lens)[:-1]
        out[offs] = starts[1:] - starts[:-1] - lens[:-1] + 1
    return np.cumsum(out)


@dataclass
class _Level:
    """One wavefront of the evaluation plan (nodes of equal DAG depth).

    ``solo`` are the level's predecessor-free nodes (start directly
    from the base clock); the remaining arrays drive one
    ``np.maximum.reduceat`` gather over the concatenated predecessor
    lists of the level's other nodes.
    """

    solo: np.ndarray  # int64 [a] node ids without predecessors
    nodes: np.ndarray  # int64 [b] node ids with predecessors
    gather: np.ndarray  # int64 [m] concatenated predecessor node ids
    gather_lat: np.ndarray  # float64 [m] per-edge latency
    seg: np.ndarray  # int64 [b] segment starts into gather


@dataclass
class CompiledSchedule:
    """A lowered schedule: flat numpy arrays plus the evaluation plan.

    Instances come from :func:`lower` (fresh capture) or
    :func:`schedule_from_doc` (cache hit); ``meta`` carries the capture
    context (collective, algorithm, machine meta, reference times,
    per-rank traffic) the bench layer re-emits with replayed results.
    """

    meta: dict
    nranks: int
    kind: np.ndarray  # int8 [n]
    rank: np.ndarray  # int32 [n]; -1 for barrier join nodes
    nbytes: np.ndarray  # int64 [n]
    nt: np.ndarray  # bool [n]
    dur: np.ndarray  # float64 [n], calibrated
    t_end_ref: np.ndarray  # float64 [n], captured completion times
    indptr: np.ndarray  # int64 [n+1]: CSR over incoming edges
    pred: np.ndarray  # int64 [m]
    pred_lat: np.ndarray  # float64 [m]
    #: last node of each rank's program-order chain (-1: rank idle)
    last_of_rank: np.ndarray  # int64 [nranks]
    #: member lists of barrier join nodes, for start-time broadcast
    groups: Dict[int, Sequence[int]] = field(default_factory=dict)
    _plan: Optional[List[_Level]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.kind)

    # ---- evaluation plan ---------------------------------------------

    def _levels(self) -> List[_Level]:
        """Partition nodes into wavefronts of equal dependency depth and
        pre-gather each wavefront's predecessor segments (built once;
        every :meth:`evaluate` call reuses it).

        Depth is longest-path depth, computed by level-synchronous Kahn
        rounds over a successor CSR (a node joins the frontier exactly
        when its deepest predecessor has been processed), and each
        level's gather arrays are sliced out of one stable sort of the
        edge list by destination depth — no per-node Python work.
        """
        if self._plan is not None:
            return self._plan
        n = len(self)
        indptr, pred = self.indptr, self.pred
        counts = np.diff(indptr)
        m = int(indptr[-1])
        dst_of_edge = np.repeat(np.arange(n, dtype=np.int64), counts)
        if m:
            # successor CSR: stable sort keeps each source's out-edges
            # in original (destination-ascending) order
            succ_order = np.argsort(pred, kind="stable")
            succ_dst = dst_of_edge[succ_order]
            succ_counts = np.bincount(pred, minlength=n)
        else:
            succ_dst = np.empty(0, dtype=np.int64)
            succ_counts = np.zeros(n, dtype=np.int64)
        succ_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(succ_counts, out=succ_indptr[1:])
        depth = np.zeros(n, dtype=np.int64)
        indeg = counts.copy()
        frontier = np.flatnonzero(indeg == 0)
        d = 0
        while frontier.size:
            depth[frontier] = d
            d += 1
            idx = _concat_ranges(succ_indptr[frontier],
                                 succ_counts[frontier])
            if idx.size == 0:
                break  # no out-edges left: lower() guarantees a DAG
            targets = succ_dst[idx]
            np.subtract.at(indeg, targets, 1)
            frontier = np.unique(targets[indeg[targets] == 0])
        nlev = int(depth.max()) + 1 if n else 0
        order = np.argsort(depth, kind="stable")
        bounds = np.searchsorted(depth[order], np.arange(nlev + 1))
        if m:
            edepth = depth[dst_of_edge]
            edge_order = np.argsort(edepth, kind="stable")
            ecounts = np.bincount(edepth, minlength=nlev)
            gathers = pred[edge_order]
            glats = self.pred_lat[edge_order]
        else:
            ecounts = np.zeros(nlev, dtype=np.int64)
            gathers = np.empty(0, dtype=np.int64)
            glats = np.empty(0, dtype=np.float64)
        ebounds = np.zeros(nlev + 1, dtype=np.int64)
        np.cumsum(ecounts, out=ebounds[1:])
        plan: List[_Level] = []
        for dlev in range(nlev):
            nodes = order[bounds[dlev]:bounds[dlev + 1]]
            cnt = counts[nodes]
            solo = nodes[cnt == 0]
            rest = nodes[cnt > 0]
            seg = np.zeros(rest.size, dtype=np.int64)
            if rest.size > 1:
                np.cumsum(counts[rest][:-1], out=seg[1:])
            plan.append(_Level(
                solo=solo, nodes=rest,
                gather=gathers[ebounds[dlev]:ebounds[dlev + 1]],
                gather_lat=glats[ebounds[dlev]:ebounds[dlev + 1]],
                seg=seg,
            ))
        self._plan = plan
        return plan

    def _base_batch(self, st: Optional[np.ndarray], B: int) -> np.ndarray:
        """Per-node start floor, batched: each rank's initial clock
        (zero by default), broadcast to barrier joins as the max over
        members.  ``st`` is ``(B, nranks)`` or ``None``."""
        n = len(self)
        base = np.zeros((B, n), dtype=np.float64)
        if st is None:
            return base
        owned = self.rank >= 0
        base[:, owned] = st[:, self.rank[owned]]
        for v, group in self.groups.items():
            base[:, v] = (st[:, list(group)].max(axis=1)
                          if len(group) else 0.0)
        return base

    # ---- evaluation --------------------------------------------------

    def evaluate(self, *, start_times: Optional[Sequence[float]] = None,
                 dur: Optional[np.ndarray] = None) -> CompiledTimes:
        """Vectorized completion-time evaluation of one replay.

        With default arguments this reproduces the capture run's times
        bitwise.  ``start_times`` skews each rank's initial clock (the
        perturbation hook ROADMAP item 5 builds on); ``dur`` swaps in
        alternative per-op durations (see :meth:`model_durations`).
        A batch-of-one :meth:`evaluate_batch` — same operations, same
        bits.
        """
        if dur is not None:
            durv = np.asarray(dur, np.float64)
            if durv.shape != self.dur.shape:
                raise ValueError(
                    "dur must match the schedule's node count"
                )
        res = self.evaluate_batch(start_times=start_times, dur=dur,
                                  batch=1)
        return CompiledTimes(
            completion=res.completion[0],
            rank_times=[float(t) for t in res.rank_times[0]],
        )

    def evaluate_batch(self, *,
                       start_times: Optional[np.ndarray] = None,
                       dur: Optional[np.ndarray] = None,
                       batch: Optional[int] = None) -> BatchedTimes:
        """Evaluate ``B`` replays in one vectorized pass.

        ``start_times`` is ``(B, nranks)`` (or ``(nranks,)``,
        broadcast), ``dur`` is ``(B, n_ops)`` (or ``(n_ops,)``,
        broadcast); ``batch`` pins ``B`` when both are broadcast.  The
        wavefront recurrence runs with one ``np.maximum.reduceat`` per
        level *across the whole batch* (``axis=1``), so each row
        executes exactly the element-wise IEEE operations a single
        :meth:`evaluate` call would — row ``i`` of the result is
        bitwise-identical to evaluating ``(start_times[i], dur[i])``
        alone.  This is what makes thousand-replay perturbation
        ensembles (:mod:`repro.sim.perturb`) nearly free.
        """
        n = len(self)
        st = None
        if start_times is not None:
            st = np.asarray(start_times, dtype=np.float64)
            if st.ndim == 1:
                st = st[None, :]
            if st.ndim != 2 or st.shape[1] != self.nranks:
                raise ValueError(
                    f"start_times must have one entry per rank "
                    f"({self.nranks}), got shape {st.shape}"
                )
        durv = self.dur[None, :] if dur is None \
            else np.asarray(dur, dtype=np.float64)
        if durv.ndim == 1:
            durv = durv[None, :]
        if durv.ndim != 2 or durv.shape[1] != n:
            raise ValueError(
                f"dur must have one entry per op ({n}), got shape "
                f"{durv.shape}"
            )
        sizes = {a.shape[0] for a in (st, durv)
                 if a is not None and a.shape[0] != 1}
        if batch is not None:
            if batch < 1:
                raise ValueError("batch must be positive")
            sizes.add(int(batch))
        if len(sizes) > 1:
            raise ValueError(
                f"inconsistent batch sizes: {sorted(sizes)}"
            )
        B = sizes.pop() if sizes else 1
        if st is not None and st.shape[0] != B:
            st = np.ascontiguousarray(
                np.broadcast_to(st, (B, self.nranks)))
        if durv.shape[0] != B:
            durv = np.broadcast_to(durv, (B, n))
        base = self._base_batch(st, B)
        comp = np.zeros((B, n), dtype=np.float64)
        for level in self._levels():
            if level.solo.size:
                comp[:, level.solo] = (base[:, level.solo]
                                       + durv[:, level.solo])
            if level.nodes.size:
                vals = comp[:, level.gather] + level.gather_lat
                arrive = np.maximum.reduceat(vals, level.seg, axis=1)
                comp[:, level.nodes] = (
                    np.maximum(base[:, level.nodes], arrive)
                    + durv[:, level.nodes]
                )
        rank_times = np.zeros((B, self.nranks), dtype=np.float64)
        live = self.last_of_rank >= 0
        if live.any():
            rank_times[:, live] = comp[:, self.last_of_rank[live]]
        if st is not None and not live.all():
            rank_times[:, ~live] = st[:, ~live]
        return BatchedTimes(completion=comp, rank_times=rank_times)

    # ---- model-driven re-timing --------------------------------------

    def model_durations(self, machine, *,
                        nbytes: Optional[np.ndarray] = None) -> np.ndarray:
        """Alternative per-op durations from the *static* timing model
        (:func:`repro.models.timing.static_op_time`), vectorized.

        This is a model-level estimate — cache-resident bandwidth plus
        per-op overhead — not the stateful memory-system charge, so
        evaluating with it gives the same optimistic bound the static
        critical-path pass computes, not engine-exact times.  Useful
        for what-if sweeps over machine constants without recapturing.

        ``nbytes`` substitutes alternative per-op byte footprints —
        the certified size-polymorphic replay path passes exact ones
        through :func:`symbolic_durations`.
        """
        nb = self.nbytes if nbytes is None \
            else np.asarray(nbytes, dtype=np.int64)
        if nb.shape != self.nbytes.shape:
            raise ValueError("nbytes must match the schedule's node count")
        dur = np.zeros(len(self), dtype=np.float64)
        touched = _TOUCH_FACTOR_BY_CODE[self.kind] * nb
        moved = (self.kind <= KIND_CODES["compute"]) & (touched > 0)
        dur[moved] = (touched[moved] / machine.cache_bandwidth_core
                      + machine.op_overhead)
        compute = self.kind == KIND_CODES["compute"]
        dur[compute] = self.dur[compute]  # program-declared durations
        barrier = self.kind == KIND_CODES["barrier"]
        dur[barrier] = self.dur[barrier]  # captured tree latency
        return dur


def symbolic_durations(cs: "CompiledSchedule", machine,
                       nbytes) -> np.ndarray:
    """Model durations from *certified* symbolic per-op footprints.

    The symbolic lowering hook of the size-polymorphic path
    (``bench --compiled --poly``): ``nbytes`` is the exact per-op byte
    vector a region certificate
    (:class:`repro.analysis.static.symbolic.SymbolicSchedule`) evaluated
    at the replay size, in compiled (toposort) op order.  These are
    engine-exact integers, so the only approximation is the duration
    model itself.

    Validates the vector against the captured schedule before use:
    shape match, non-negative entries, and an identical zero pattern
    (an op that moved no bytes at capture time must move none at any
    size in a shape-invariant region, and vice versa).  A mismatch
    means the certificate does not describe this schedule — raise
    rather than silently retime with wrong footprints.
    """
    arr = np.asarray(nbytes, dtype=np.int64)
    if arr.shape != cs.nbytes.shape:
        raise ValueError(
            f"certified nbytes has {arr.shape[0] if arr.ndim else 0} "
            f"entries, schedule has {len(cs)} ops"
        )
    if (arr < 0).any():
        raise ValueError("certified nbytes must be non-negative")
    if ((arr == 0) != (cs.nbytes == 0)).any():
        bad = int(np.nonzero((arr == 0) != (cs.nbytes == 0))[0][0])
        raise ValueError(
            f"certified nbytes zero pattern differs from the captured "
            f"schedule at op {bad} (captured {int(cs.nbytes[bad])} B, "
            f"certified {int(arr[bad])} B): certificate does not "
            "describe this schedule"
        )
    return cs.model_durations(machine, nbytes=arr)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _calibrate(arrive: float, t_end: float) -> float:
    """The duration ``d`` with ``arrive + d == t_end`` *bitwise*.

    ``t_end - arrive`` is usually it, but IEEE does not guarantee
    ``a + (b - a) == b``; the engine computed ``t_end`` as ``arrive``
    plus some representable increment, so a short ULP walk always
    lands on it exactly.
    """
    d = t_end - arrive
    while arrive + d > t_end:
        d = math.nextafter(d, -math.inf)
    while arrive + d < t_end:
        d = math.nextafter(d, math.inf)
    return d


def _calibrate_array(arrive: np.ndarray, t_end: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_calibrate`: per-element ULP walks run in
    lockstep (each element follows exactly the scalar walk — down
    first, then up), so the result matches the scalar loop bitwise."""
    dur = t_end - arrive
    over = arrive + dur > t_end
    while over.any():
        idx = np.flatnonzero(over)
        dur[idx] = np.nextafter(dur[idx], -np.inf)
        over[idx] = arrive[idx] + dur[idx] > t_end[idx]
    under = arrive + dur < t_end
    while under.any():
        idx = np.flatnonzero(under)
        dur[idx] = np.nextafter(dur[idx], np.inf)
        under[idx] = arrive[idx] + dur[idx] < t_end[idx]
    return dur


def lower(ir) -> CompiledSchedule:
    """Lower a ``repro-ir/1`` :class:`~repro.analysis.static.ir.ScheduleIR`
    to a :class:`CompiledSchedule`.

    The IR must come from a *completed* run (pending sync nodes — a
    deadlocked capture — refuse to lower) and carry the machine meta
    projection if the capture had a machine model: the post→wait pair
    latencies on sync edges are recomputed from the socket topology
    exactly as the engine charges them.
    """
    nodes = ir.nodes
    if not nodes:
        raise CompileError("cannot lower an empty schedule IR")
    for n in nodes:
        if n.pending:
            raise CompileError(
                f"schedule deadlocked at capture: {n.describe()} never "
                "released; compiled replay requires a completed run"
            )
        if n.kind not in KIND_CODES:
            raise CompileError(f"unknown op kind {n.kind!r} in IR")
    topo = ir.toposort()
    machine = ir.meta.get("machine") or {}
    intra = float(machine.get("sync_latency_intra", 0.0))
    inter = float(machine.get("sync_latency_inter", 0.0))
    sockets = int(machine.get("sockets", 1))
    cps = int(machine.get("cores_per_socket", 1))
    binding = str(machine.get("binding", "compact"))
    nranks = ir.nranks or (max(n.rank for n in nodes) + 1)

    def sock(rank: int) -> int:
        return socket_of_rank_meta(rank, nranks, sockets=sockets,
                                   cores_per_socket=cps, binding=binding)

    # renumber into topological positions so the stored arrays are a
    # valid execution order by construction
    pos = {v: i for i, v in enumerate(topo)}
    n = len(nodes)
    kind = np.zeros(n, dtype=np.int8)
    rank = np.zeros(n, dtype=np.int32)
    nbytes = np.zeros(n, dtype=np.int64)
    nt = np.zeros(n, dtype=bool)
    t_start = np.zeros(n, dtype=np.float64)
    t_end = np.zeros(n, dtype=np.float64)
    groups: Dict[int, Sequence[int]] = {}
    for v, node in enumerate(nodes):
        i = pos[v]
        kind[i] = KIND_CODES[node.kind]
        rank[i] = node.rank
        nbytes[i] = node.nbytes
        nt[i] = bool(node.nt)
        t_start[i] = node.t_start
        t_end[i] = node.t_end
        if node.kind == "barrier":
            groups[i] = tuple(node.group)

    preds_of: List[List[int]] = [[] for _ in range(n)]
    lat_of: List[List[float]] = [[] for _ in range(n)]
    for e in ir.edges:
        src, dst = pos[e.src], pos[e.dst]
        if e.kind == "sync":
            r1, r2 = nodes[e.src].rank, nodes[e.dst].rank
            lat = (intra if r1 < 0 or r2 < 0 or sock(r1) == sock(r2)
                   else inter)
        else:
            lat = 0.0
        preds_of[dst].append(src)
        lat_of[dst].append(lat)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(p) for p in preds_of], out=indptr[1:])
    pred = np.fromiter((p for ps in preds_of for p in ps),
                       dtype=np.int64, count=int(indptr[-1]))
    pred_lat = np.fromiter((la for ls in lat_of for la in ls),
                           dtype=np.float64, count=int(indptr[-1]))

    # calibrate durations against the captured completion times.  Every
    # predecessor's t_end is *captured* (not recomputed), so all
    # arrivals come out of one CSR segment-max and the ULP walks
    # vectorize — no per-node Python
    arrive = np.zeros(n, dtype=np.float64)
    if pred.size:
        vals = t_end[pred] + pred_lat
        rows = np.flatnonzero(np.diff(indptr) > 0)
        arrive[rows] = np.maximum(
            np.maximum.reduceat(vals, indptr[rows]), 0.0)
    dur = _calibrate_array(arrive, t_end)

    last_of_rank = np.full(nranks, -1, dtype=np.int64)
    for i in range(n):
        r = int(rank[i])
        if r >= 0:
            last_of_rank[r] = i
        else:
            for member in groups.get(i, ()):
                last_of_rank[member] = i

    meta = dict(ir.meta)
    meta.pop("counters", None)  # capture-run counters are re-derived
    return CompiledSchedule(
        meta=meta, nranks=nranks, kind=kind, rank=rank, nbytes=nbytes,
        nt=nt, dur=dur, t_end_ref=t_end, indptr=indptr, pred=pred,
        pred_lat=pred_lat, last_of_rank=last_of_rank, groups=groups,
    )


# ---------------------------------------------------------------------------
# Serialization (JSON-safe, for the content-addressed schedule cache)
# ---------------------------------------------------------------------------


def schedule_to_doc(cs: CompiledSchedule) -> dict:
    """JSON-safe document form (schema ``repro-compiled/1``)."""
    return {
        "schema": COMPILED_SCHEMA,
        "meta": cs.meta,
        "nranks": cs.nranks,
        "kind": cs.kind.tolist(),
        "rank": cs.rank.tolist(),
        "nbytes": cs.nbytes.tolist(),
        "nt": cs.nt.astype(int).tolist(),
        "dur": cs.dur.tolist(),
        "t_end": cs.t_end_ref.tolist(),
        "indptr": cs.indptr.tolist(),
        "pred": cs.pred.tolist(),
        "pred_lat": cs.pred_lat.tolist(),
        "last_of_rank": cs.last_of_rank.tolist(),
        "groups": {str(k): list(v) for k, v in cs.groups.items()},
    }


#: fields a schedule document must carry to be loadable at all
_REQUIRED_DOC_FIELDS = (
    "nranks", "kind", "rank", "nbytes", "nt", "dur", "t_end",
    "indptr", "pred", "pred_lat", "last_of_rank",
)


def schedule_from_doc(doc: dict) -> CompiledSchedule:
    """Parse a document produced by :func:`schedule_to_doc`.

    Floats round-trip exactly through JSON (``repr`` shortest-float
    serialization), so a cache-loaded schedule evaluates bitwise
    identically to the freshly lowered one.

    Corrupt or future-versioned documents raise
    :class:`ScheduleSchemaError` naming the supported schema versions
    (never a raw ``KeyError``): the schedule cache treats that as a
    recapture signal, not a crash.
    """
    if not isinstance(doc, dict):
        raise ScheduleSchemaError(
            f"compiled-schedule document must be an object, got "
            f"{type(doc).__name__}"
        )
    schema = doc.get("schema")
    if schema not in SUPPORTED_COMPILED_SCHEMAS:
        raise ScheduleSchemaError(
            f"unsupported compiled-schedule schema {schema!r}; "
            f"supported versions: "
            f"{', '.join(SUPPORTED_COMPILED_SCHEMAS)}"
        )
    missing = [f for f in _REQUIRED_DOC_FIELDS if f not in doc]
    if missing:
        raise ScheduleSchemaError(
            f"compiled-schedule document ({schema}) is missing "
            f"required fields: {', '.join(missing)}"
        )
    return CompiledSchedule(
        meta=dict(doc.get("meta", {})),
        nranks=int(doc["nranks"]),
        kind=np.asarray(doc["kind"], dtype=np.int8),
        rank=np.asarray(doc["rank"], dtype=np.int32),
        nbytes=np.asarray(doc["nbytes"], dtype=np.int64),
        nt=np.asarray(doc["nt"], dtype=bool),
        dur=np.asarray(doc["dur"], dtype=np.float64),
        t_end_ref=np.asarray(doc["t_end"], dtype=np.float64),
        indptr=np.asarray(doc["indptr"], dtype=np.int64),
        pred=np.asarray(doc["pred"], dtype=np.int64),
        pred_lat=np.asarray(doc["pred_lat"], dtype=np.float64),
        last_of_rank=np.asarray(doc["last_of_rank"], dtype=np.int64),
        groups={int(k): tuple(v)
                for k, v in doc.get("groups", {}).items()},
    )
