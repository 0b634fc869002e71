"""Lift a collective into the static schedule IR.

One traced run at small ``p`` is the *extraction oracle*: the engine's
parallel streams (:class:`~repro.sim.trace.OpRecord` per operation,
:class:`~repro.sim.trace.AccessEvent` per byte range,
:class:`~repro.sim.trace.SyncEvent` per post/wait/barrier release)
carry exactly the DAG a schedule induces, so the lift is a single
record-driven walk — no re-execution, no vector clocks:

* data records become data nodes carrying their byte footprints
  (``AccessEvent.op_index`` points straight back at the record);
* the *k*-th post / wait record pairs with the *k*-th post / wait sync
  event (the engine appends record and event in one atomic section),
  so a wait's ``matched`` post seqs become its incoming sync edges;
* a barrier completion appends one sync event plus one contiguous
  record per member, collapsed here into a single join node
  (``rank == -1``) with program-order edges from and to every member;
* ``blocked`` events (a deadlocked run's certificates) become
  *pending* sync nodes, preserving the stuck waits/barriers the
  deadlock pass reasons about.

Every buffer's ``initialized`` state (recorded at allocation) rides
along in :class:`~repro.analysis.static.ir.BufferInfo`, and the
uninit-read pass derives its verdict from reachability: a read is
clean only where happens-before-ordered writes or a fill produced its
bytes.

The lift refuses traces it cannot represent faithfully rather than
dropping happens-before edges: a wait whose matched post is missing
(a truncated trace) and a trace holding more than one engine run
(slice one out with :meth:`~repro.sim.trace.Trace.slice_last_run`)
both raise :class:`ValueError`.

Entry points: :func:`extract_case` (one analysis-matrix case),
:func:`extract_program` (an ad-hoc engine program, e.g. the seeded-bug
fixtures), :func:`extract_from_certificate` (replays a
``repro-schedule/1`` witness prefix once and lifts the failing
schedule), and the underlying :func:`ir_from_trace`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.runner import Case, cases
from repro.analysis.static.ir import BufferInfo, Footprint, OpNode, ScheduleIR
from repro.machine.spec import CACHE_LINE, MachineSpec, PRESETS
from repro.obs.counters import Counters
from repro.sim.engine import DeadlockError, Engine
from repro.sim.replay import ScheduleCertificate
from repro.sim.scheduler import ControlledScheduler
from repro.sim.trace import AccessEvent, SyncEvent, Trace

#: default extraction geometry: small enough to lift in milliseconds,
#: large enough that every algorithm's slicing is non-degenerate
DEFAULT_NRANKS = 4
DEFAULT_S = 1024

#: accepted machine arguments: a spec, a preset name, or None (no
#: machine model — the locality/critical-path passes then skip)
MachineArg = Union[MachineSpec, str, None]


def _resolve_machine(machine: MachineArg) -> Optional[MachineSpec]:
    if machine is None or isinstance(machine, MachineSpec):
        return machine
    if machine not in PRESETS:
        raise ValueError(
            f"unknown machine preset {machine!r}; choose from "
            f"{sorted(PRESETS)}"
        )
    return PRESETS[machine]


def machine_meta(machine: Optional[MachineSpec]) -> Optional[dict]:
    """The JSON-safe machine constants the static passes consume.

    Deliberately a *projection*, not the full spec: the IR stays
    loadable without reconstructing a :class:`MachineSpec`, and its
    content address only varies with constants a pass actually uses.
    """
    if machine is None:
        return None
    return {
        "name": machine.name,
        "sockets": machine.sockets,
        "cores_per_socket": machine.socket.cores,
        "binding": machine.binding,
        "line_size": CACHE_LINE,
        "cache_bandwidth_core": machine.cache_bandwidth_core,
        "op_overhead": machine.op_overhead,
        "sync_latency_intra": machine.sync_latency_intra,
        "sync_latency_inter": machine.sync_latency_inter,
    }


def _buffer_infos(buffers: Sequence) -> Tuple[List[BufferInfo], Dict[int, int]]:
    """Engine buffers -> BufferInfo list + ``buf_id -> index`` map."""
    infos: List[BufferInfo] = []
    index: Dict[int, int] = {}
    for b in buffers:
        index[b.buf_id] = len(infos)
        infos.append(BufferInfo(
            buf=len(infos),
            name=b.name,
            nbytes=b.nbytes,
            shared=b.kind == "shared",
            owner=-1 if b.owner is None else int(b.owner),
            home_socket=(-1 if b.home_socket is None
                         else int(b.home_socket)),
            initialized=bool(getattr(b, "initialized", False)),
        ))
    return infos, index


def ir_from_trace(trace: Trace, *, buffers: Sequence = (),
                  meta: Optional[dict] = None) -> ScheduleIR:
    """Lift one traced run into a :class:`ScheduleIR`.

    ``trace`` must cover a *single* engine run (the extraction helpers
    always build a fresh engine; more than one ``run_start`` marker is
    refused); ``buffers`` is the engine's buffer
    list — buffers only seen in access events get stub entries sized to
    the largest access, marked initialized (no false uninit findings on
    hand-built traces).
    """
    buf_infos, buf_index = _buffer_infos(buffers)
    # footprints per record index
    reads_of: Dict[int, List[Footprint]] = {}
    writes_of: Dict[int, List[Footprint]] = {}
    post_events: List[SyncEvent] = []
    wait_events: List[SyncEvent] = []
    barrier_events: List[SyncEvent] = []
    blocked_events: List[SyncEvent] = []
    runs = 0
    for ev in trace.events:
        if isinstance(ev, AccessEvent):
            if ev.buf_id not in buf_index:
                buf_index[ev.buf_id] = len(buf_infos)
                buf_infos.append(BufferInfo(
                    buf=len(buf_infos), name=ev.buf_name, nbytes=ev.end,
                    shared=ev.shared, initialized=True,
                ))
            elif ev.end > buf_infos[buf_index[ev.buf_id]].nbytes \
                    and buffers == ():
                i = buf_index[ev.buf_id]
                buf_infos[i] = BufferInfo(
                    buf=i, name=ev.buf_name, nbytes=ev.end,
                    shared=ev.shared, initialized=True,
                )
            fp = Footprint(buf_index[ev.buf_id], ev.off, ev.nbytes)
            target = writes_of if ev.mode == "w" else reads_of
            target.setdefault(ev.op_index, []).append(fp)
        elif isinstance(ev, SyncEvent):
            if ev.kind == "post":
                post_events.append(ev)
            elif ev.kind == "wait":
                wait_events.append(ev)
            elif ev.kind == "barrier":
                barrier_events.append(ev)
            elif ev.kind == "blocked":
                blocked_events.append(ev)
            elif ev.kind == "run_start":
                runs += 1
    if runs > 1:
        raise ValueError(
            f"trace holds {runs} engine runs but the IR lifts a single "
            "run: slice one out with Trace.slice_last_run"
        )

    ir = ScheduleIR(meta=meta, buffers=buf_infos)
    last_node: Dict[int, int] = {}
    node_of_post_seq: Dict[int, int] = {}
    posts_by_tag: Dict[object, List[int]] = {}
    pi = wi = bi = 0

    def _new(node: OpNode) -> int:
        nid = ir.add_node(node)
        return nid

    def _chain(rank: int, nid: int) -> None:
        prev = last_node.get(rank)
        if prev is not None:
            ir.add_edge(prev, nid, "po")
        last_node[rank] = nid

    records = trace.records
    i = 0
    while i < len(records):
        rec = records[i]
        if rec.kind == "barrier":
            if bi >= len(barrier_events):
                raise ValueError(
                    "trace is inconsistent: barrier record without a "
                    "matching barrier sync event (truncated trace?)"
                )
            ev = barrier_events[bi]
            bi += 1
            group = tuple(ev.group)
            batch = records[i:i + len(group)]
            if len(batch) != len(group) or any(
                    r.kind != "barrier" for r in batch):
                raise ValueError(
                    "trace is inconsistent: barrier record batch does "
                    f"not cover group {group}"
                )
            nid = _new(OpNode(
                node=len(ir.nodes), rank=-1, kind="barrier", group=group,
                arrived=tuple(ev.matched),
                t_start=max(r.t_start for r in batch),
                t_end=batch[0].t_end,
            ))
            for member in group:
                _chain(member, nid)
            i += len(group)
            continue
        if rec.kind == "post":
            ev = post_events[pi]
            pi += 1
            nid = _new(OpNode(
                node=len(ir.nodes), rank=rec.rank, kind="post",
                tag=rec.tag, t_start=rec.t_start, t_end=rec.t_end,
            ))
            node_of_post_seq[ev.seq] = nid
            posts_by_tag.setdefault(rec.tag, []).append(nid)
            _chain(rec.rank, nid)
        elif rec.kind == "wait":
            ev = wait_events[wi]
            wi += 1
            nid = _new(OpNode(
                node=len(ir.nodes), rank=rec.rank, kind="wait",
                tag=rec.tag, count=rec.count,
                t_start=rec.t_start, t_end=rec.t_end,
            ))
            _chain(rec.rank, nid)
            for seq in ev.matched:
                src = node_of_post_seq.get(seq)
                if src is None:
                    raise ValueError(
                        f"trace is inconsistent: rank {rec.rank} "
                        f"wait({rec.tag!r}) matched post event #{seq}, "
                        "which is not in the trace (truncated trace?)"
                    )
                ir.add_edge(src, nid, "sync")
        else:
            nid = _new(OpNode(
                node=len(ir.nodes), rank=rec.rank, kind=rec.kind,
                nbytes=rec.nbytes, nt=bool(rec.nt),
                reads=tuple(reads_of.get(i, ())),
                writes=tuple(writes_of.get(i, ())),
                t_start=rec.t_start, t_end=rec.t_end,
            ))
            _chain(rec.rank, nid)
        i += 1

    # a deadlocked run's stuck syncs: pending nodes so the deadlock
    # pass sees the unsatisfied waits and incomplete barriers
    for ev in blocked_events:
        if ev.group:
            nid = _new(OpNode(
                node=len(ir.nodes), rank=ev.rank, kind="barrier",
                group=tuple(ev.group), arrived=tuple(ev.matched),
                pending=True,
            ))
        else:
            nid = _new(OpNode(
                node=len(ir.nodes), rank=ev.rank, kind="wait",
                tag=ev.tag, count=ev.count, pending=True,
            ))
            for src in posts_by_tag.get(ev.tag, ())[:ev.count]:
                ir.add_edge(src, nid, "sync")
        _chain(ev.rank, nid)

    ir.validate()
    return ir


# ---------------------------------------------------------------------------
# Extraction drivers
# ---------------------------------------------------------------------------


def _lift_run(run_fn: Callable[[Engine], None], *, nranks: int,
              machine: Optional[MachineSpec], seed: int,
              meta: dict,
              scheduler: Optional[ControlledScheduler] = None) -> ScheduleIR:
    """One traced functional run of ``run_fn`` lifted into an IR."""
    eng = Engine(nranks, machine=machine, functional=True, trace=True,
                 seed=seed, scheduler=scheduler)
    deadlocked = False
    error = ""
    try:
        run_fn(eng)
    except DeadlockError:
        deadlocked = True  # blocked events become pending nodes
    except Exception as exc:  # noqa: BLE001 - a broken schedule must
        # still lift: the partial IR plus the error is the finding
        error = f"{type(exc).__name__}: {exc}"
    counters = Counters.from_trace(eng.trace, nranks=nranks)
    meta = dict(meta)
    meta.update({
        "nranks": nranks,
        "machine": machine_meta(machine),
        "sim_time": counters.span,
        "deadlocked": deadlocked,
        "error": error,
        "counters": counters.snapshot(),
    })
    return ir_from_trace(eng.trace, buffers=eng.buffers, meta=meta)


def case_meta(case: Case, *, s: int,
              machine: Optional[MachineSpec]) -> dict:
    """The IR meta naming a matrix case: its label, its Theorem 3.1
    row and the parameters the DAV and locality passes read."""
    return {
        "label": case.label,
        "collective": case.collective,
        "kind": case.kind,
        "dav_algorithm": case.dav_algorithm,
        "locality": case.locality,
        "s": s,
        "m": machine.sockets if machine is not None else 2,
        "k": case.k,
    }


def extract_case(case: Case, *, nranks: int = DEFAULT_NRANKS,
                 s: int = DEFAULT_S,
                 machine: MachineArg = "NodeA",
                 seed: int = 12345) -> ScheduleIR:
    """Lift one analysis-matrix case (default machine: NodeA, so the
    locality and critical-path passes have a topology to reason with —
    the byte-exact passes are machine-independent; ``machine=None``
    lifts without one)."""
    machine = _resolve_machine(machine)
    meta = case_meta(case, s=s, machine=machine)
    return _lift_run(lambda eng: case.run(eng, s), nranks=nranks,
                     machine=machine, seed=seed, meta=meta)


def extract_collective(name: str, *, nranks: int = DEFAULT_NRANKS,
                       s: int = DEFAULT_S,
                       machine: MachineArg = "NodeA",
                       seed: int = 12345) -> List[ScheduleIR]:
    """Lift every kind of collective ``name`` (or all, matching the
    ``verify`` matrix)."""
    return [extract_case(c, nranks=nranks, s=s, machine=machine, seed=seed)
            for c in cases(name)]


def extract_program(run_fn: Callable[[Engine], None], *, nranks: int,
                    label: str = "program", kind: str = "",
                    s: int = 0,
                    machine: MachineArg = None,
                    seed: int = 12345) -> ScheduleIR:
    """Lift an ad-hoc engine program (``run_fn(engine)`` builds and
    runs it, like the :func:`repro.analysis.mc.verify_program` run
    functions and the seeded-bug test fixtures)."""
    machine = _resolve_machine(machine)
    meta = {
        "label": label,
        "collective": "",
        "kind": kind,
        "dav_algorithm": "",
        "locality": "",
        "s": s,
        "m": machine.sockets if machine is not None else 2,
        "k": 2,
    }
    return _lift_run(run_fn, nranks=nranks, machine=machine, seed=seed,
                     meta=meta)


def extract_from_certificate(cert: ScheduleCertificate) -> ScheduleIR:
    """Replay a ``repro-schedule/1`` witness once and lift the failing
    schedule — the IR of the *exact* interleaving the model checker
    minimized, pending nodes and all.

    Certificates from :func:`~repro.analysis.mc.verify_program` on
    ad-hoc programs carry no registered case; lift those through
    :func:`extract_program` with the original run function instead.
    """
    if not cert.collective:
        raise ValueError(
            f"certificate {cert.case!r} names no registered collective; "
            "use extract_program with the original run function"
        )
    matched = [c for c in cases(cert.collective) if c.kind == cert.kind]
    if not matched:
        raise ValueError(
            f"certificate names unknown case {cert.collective}/{cert.kind}"
        )
    case = matched[0]
    meta = case_meta(case, s=cert.s, machine=None)
    meta["certificate"] = {"failure": cert.failure, "detail": cert.detail,
                           "choices": list(cert.choices)}
    sched = ControlledScheduler(choices=list(cert.choices))
    return _lift_run(lambda eng: case.run(eng, cert.s), nranks=cert.nranks,
                     machine=None, seed=cert.seed, meta=meta,
                     scheduler=sched)
