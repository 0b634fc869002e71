"""Cooperative execution engine for simulated MPI ranks.

Each rank is a Python generator produced by calling the *program*
callable with a :class:`RankCtx`.  Data operations (copy / reduce)
execute immediately when the rank runs and advance that rank's clock via
the machine model; synchronization points are ``yield``\\ ed to the
engine, which releases them when their condition is met and reconciles
the participants' clocks.

Why this is sound: within one rank, operations execute in program
order.  Across ranks, a *correct* shared-memory collective protects
every cross-rank read-after-write with a flag or barrier — exactly the
events the engine orders.  So any interleaving the engine chooses
between sync points is one the real machine could have exhibited, and
the functional results are deterministic.

Synchronization primitives (mirroring the paper's implementation, which
uses per-process atomic flags and a node barrier — Section 3.3):

* ``ctx.post(tag)`` — non-blocking: publish that this rank reached
  ``tag`` (an atomic flag update).
* ``yield ctx.wait(tag, count=1)`` — block until ``count`` posts of
  ``tag`` exist.  Tags must be unique per step (include step indices);
  waits do not consume posts, so one post can release many waiters
  (broadcast-style signalling).
* ``yield ctx.barrier(group=None)`` — rendezvous of ``group`` (default:
  all ranks); matched by per-group arrival order.
"""

from __future__ import annotations

import inspect
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.machine.memory import MemorySystem, TrafficCounters
from repro.machine.spec import MachineSpec
from repro.sim.buffers import (
    Buffer,
    BufView,
    SharedBuffer,
    alloc,
    alloc_shared,
)
from repro.sim.scheduler import FifoScheduler, SchedulerPolicy
from repro.sim.trace import OpRecord, SpanRecord, SyncEvent, Trace

REDUCE_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}

_UFUNC_CACHE: dict = dict(REDUCE_OPS)


def resolve_ufunc(op: str):
    """Name -> elementwise combiner.  Falls back to the operator
    registry in :mod:`repro.collectives.ops` for user-registered ops
    (imported lazily: the collectives package imports this module)."""
    try:
        return _UFUNC_CACHE[op]
    except KeyError:
        from repro.collectives.ops import get_op

        ufunc = get_op(op).ufunc
        _UFUNC_CACHE[op] = ufunc
        return ufunc


@dataclass(frozen=True)
class BlockedInfo:
    """One rank parked on an unsatisfiable sync — a deadlock certificate.

    For ``kind == "wait"``: ``tag``/``count`` name the wait, ``have`` the
    posts present and ``posters`` who made them.  For
    ``kind == "barrier"``: ``group`` names the rendezvous and ``arrived``
    the ranks already there; :attr:`missing` lists who never came.
    """

    rank: int
    kind: str
    tag: object = None
    count: int = 0
    have: int = 0
    posters: tuple = ()
    group: tuple = ()
    arrived: tuple = ()

    @property
    def missing(self) -> tuple:
        return tuple(r for r in self.group if r not in self.arrived)

    @property
    def posts_by_rank(self) -> dict:
        """Pending posts on the waited tag, aggregated per poster —
        distinguishes "3 posts from 3 ranks" from "3 posts, all from
        rank 0" when diagnosing partial-post deadlocks."""
        per: dict = {}
        for r in self.posters:
            per[r] = per.get(r, 0) + 1
        return per

    def describe(self) -> str:
        if self.kind == "wait":
            who = ""
            if self.posters:
                per = self.posts_by_rank
                who = " from " + ", ".join(
                    f"rank {r}" + (f" x{n}" if n > 1 else "")
                    for r, n in sorted(per.items())
                )
            return (f"rank {self.rank}: wait({self.tag!r}, count={self.count}) "
                    f"has {self.have} post(s) of {self.count} required{who} — "
                    f"{self.count - self.have} will never arrive")
        return (f"rank {self.rank}: barrier{self.group} arrived="
                f"{self.arrived} ({len(self.arrived)} of {len(self.group)}) "
                f"— waiting for ranks {self.missing}")


class DeadlockError(RuntimeError):
    """No rank can make progress: a sync will never be satisfied.

    ``blocked`` carries one :class:`BlockedInfo` per stuck rank, so
    callers (and :mod:`repro.analysis`) can report which ranks are
    parked on which tags or barrier groups.
    """

    def __init__(self, message: str, blocked: Sequence[BlockedInfo] = ()):
        super().__init__(message)
        self.blocked = tuple(blocked)


class _NullSpan:
    """Shared no-op span: the zero-allocation path when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Open phase label on one rank; closes into a trace SpanRecord."""

    __slots__ = ("_ctx", "_name", "_t0")

    def __init__(self, ctx: "RankCtx", name: str):
        self._ctx = ctx
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._ctx.clock
        return self

    def __exit__(self, *exc) -> bool:
        ctx = self._ctx
        trace = ctx.engine.trace
        if trace is not None:
            trace.add_span(SpanRecord(rank=ctx.rank, name=self._name,
                                      t_start=self._t0, t_end=ctx.clock))
        return False


@dataclass(frozen=True)
class _Wait:
    tag: object
    count: int


@dataclass(frozen=True)
class _Barrier:
    group: tuple


@dataclass
class RunResult:
    """Outcome of one engine run.

    ``first_record`` / ``first_span`` index into ``trace.records`` /
    ``trace.spans`` where *this* run began: engine traces accumulate
    across back-to-back runs, and per-run consumers (the
    :mod:`repro.obs` counters) must not double-count earlier runs.
    """

    times: list  # per-rank completion time (seconds)
    traffic: Optional[TrafficCounters]
    per_rank_traffic: Optional[list]
    trace: Optional[Trace]
    sync_count: int
    first_record: int = 0
    first_span: int = 0

    @property
    def run_spans(self) -> list:
        if self.trace is None:
            return []
        return self.trace.spans[self.first_span:]

    @property
    def time(self) -> float:
        """Collective completion time: the slowest rank."""
        return max(self.times)

    @property
    def dav(self) -> int:
        if self.traffic is None:
            raise RuntimeError("run had no machine model attached")
        return self.traffic.dav


class RankCtx:
    """Per-rank handle passed to algorithm programs."""

    __slots__ = ("engine", "rank", "clock", "_gen")

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        self.clock = 0.0
        self._gen = None

    # ---- topology ----------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.engine.nranks

    @property
    def machine(self) -> Optional[MachineSpec]:
        return self.engine.machine

    @property
    def socket(self) -> int:
        if self.engine.memsys is None:
            return 0
        return self.engine.memsys.socket_of_rank(self.rank)

    # ---- data operations ------------------------------------------------------

    def copy(self, dst: BufView, src: BufView, *, nt: bool = False,
             policy: str = "", extra_time: float = 0.0,
             concurrency=None, load_concurrency=None) -> None:
        """Copy ``src`` into ``dst`` (sizes must match).

        ``concurrency`` caps the number of ranks assumed to share the
        memory bus for this op; ``load_concurrency`` overrides it for
        the load side only — used when many ranks cooperatively read
        the *same* data (each byte crosses the bus once, not p times).
        """
        eng = self.engine
        if dst.nbytes != src.nbytes:
            raise ValueError(
                f"copy size mismatch: {src.nbytes} -> {dst.nbytes} bytes"
            )
        t0 = self.clock
        if eng.functional and not (src.is_virtual or dst.is_virtual):
            np.copyto(dst.array(), src.array())
        if eng.memsys is not None:
            dt = eng.memsys.load(
                self.rank, src.buf, src.off, src.nbytes,
                concurrency=(load_concurrency if load_concurrency
                             is not None else concurrency),
            )
            dt += eng.memsys.store(self.rank, dst.buf, dst.off, dst.nbytes,
                                   nt=nt, concurrency=concurrency)
            self.clock += dt + eng.machine.op_overhead + extra_time
        eng._record(self, "copy", src.nbytes, src, dst, nt=nt, policy=policy,
                    t0=t0, reads=(src,), writes=(dst,))

    def reduce_acc(self, dst: BufView, src: BufView, *, op: str = "sum",
                   nt: bool = False, concurrency=None) -> None:
        """``dst (op)= src`` — two loads, one store (3n DAV)."""
        self._reduce("reduce_acc", dst, (dst, src), op, nt, concurrency)

    def reduce_out(self, dst: BufView, a: BufView, b: BufView, *,
                   op: str = "sum", nt: bool = False,
                   concurrency=None) -> None:
        """``dst = a (op) b`` — two loads, one store (3n DAV)."""
        self._reduce("reduce_out", dst, (a, b), op, nt, concurrency)

    def _reduce(self, kind: str, dst: BufView, srcs, op: str, nt: bool,
                concurrency=None) -> None:
        eng = self.engine
        n = dst.nbytes
        for s in srcs:
            if s.nbytes != n:
                raise ValueError("reduce operand size mismatch")
        t0 = self.clock
        if eng.functional and not (dst.is_virtual or any(s.is_virtual for s in srcs)):
            ufunc = resolve_ufunc(op)
            a, b = srcs
            ufunc(a.array(), b.array(), out=dst.array())
        if eng.memsys is not None:
            dt = 0.0
            for s in srcs:
                dt += eng.memsys.load(self.rank, s.buf, s.off, s.nbytes,
                                      concurrency=concurrency)
            dt += eng.memsys.store(self.rank, dst.buf, dst.off, n, nt=nt,
                                   concurrency=concurrency)
            self.clock += dt + eng.machine.op_overhead
        eng._record(self, kind, n, srcs[-1], dst, nt=nt, t0=t0,
                    reads=tuple(srcs), writes=(dst,))

    def compute(self, seconds: float) -> None:
        """Model a pure-compute region (used by the applications)."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        t0 = self.clock
        self.clock += seconds
        self.engine._record(self, "compute", 0, t0=t0)

    def touch(self, view: BufView) -> None:
        """Load a view without copying (e.g. application reads a result)."""
        eng = self.engine
        t0 = self.clock
        if eng.memsys is not None:
            self.clock += eng.memsys.load(self.rank, view.buf, view.off, view.nbytes)
        eng._record(self, "touch", view.nbytes, view, None, t0=t0,
                    reads=(view,))

    # ---- observability -----------------------------------------------------

    def span(self, name: str):
        """Label a phase of this rank's program (``with ctx.span("x")``).

        Returns a context manager recording a
        :class:`~repro.sim.trace.SpanRecord` over the rank-clock
        interval it covers.  With tracing off this returns a shared
        no-op singleton — the hot path pays one ``if`` and allocates
        nothing.  Spans may nest and may enclose ``yield``\\ ed sync
        points (the interval simply includes the wait).
        """
        if self.engine.trace is None:
            return _NULL_SPAN
        return _Span(self, name)

    # ---- synchronization ---------------------------------------------------------

    def post(self, tag: object) -> None:
        """Signal ``tag`` (atomic flag update; non-blocking)."""
        eng = self.engine
        index = -1
        if eng.trace is not None:
            index = len(eng.trace.records)
            eng.trace.add(
                OpRecord(rank=self.rank, kind="post", nbytes=0, tag=tag,
                         t_start=self.clock, t_end=self.clock)
            )
        eng._posts.setdefault(tag, []).append((self.rank, self.clock, index))

    def wait(self, tag: object, count: int = 1) -> _Wait:
        """Event: block until ``count`` ranks have posted ``tag``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return _Wait(tag, count)

    def barrier(self, group: Optional[Sequence[int]] = None) -> _Barrier:
        """Event: rendezvous of ``group`` (default: every rank)."""
        g = tuple(range(self.nranks)) if group is None else tuple(sorted(group))
        if self.rank not in g:
            raise ValueError(f"rank {self.rank} is not in barrier group {g}")
        return _Barrier(g)


class Engine:
    """Schedules rank programs and aggregates timing/traffic results."""

    def __init__(
        self,
        nranks: int,
        *,
        machine: Optional[MachineSpec] = None,
        functional: bool = True,
        dtype=np.float64,
        trace: bool = False,
        trace_accesses: bool = True,
        seed: int = 12345,
        scheduler: Optional[SchedulerPolicy] = None,
    ):
        """``scheduler`` plugs in a :class:`~repro.sim.scheduler.SchedulerPolicy`
        (default :class:`~repro.sim.scheduler.FifoScheduler`, which is
        byte-for-byte the historical behaviour).
        ``FifoScheduler(seed=...)`` randomizes the order runnable ranks
        are scheduled in: a correct collective synchronizes every
        cross-rank dependency, so its *functional result must be
        identical under every schedule* — the property tests drive this
        as a concurrency fuzzer.  Controlled policies let
        :mod:`repro.analysis.mc` enumerate interleavings.

        ``trace_accesses=False`` keeps op records, spans and events
        but leaves every record's ``reads``/``writes`` byte ranges
        empty.  The compiled-schedule capture uses this *light
        tracing* mode: lowering only needs the op/sync structure, and
        the byte ranges dominate the capture overhead on slice-heavy
        cells.  Traces meant for the race and uninitialized-read
        passes of the schedule analyzer need the ranges (the
        default)."""
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        if machine is not None:
            machine.validate_nranks(nranks)
        self.nranks = nranks
        self.machine = machine
        self.functional = functional
        self.dtype = np.dtype(dtype)
        self.memsys = MemorySystem(machine, nranks) if machine else None
        self.trace: Optional[Trace] = Trace() if trace else None
        self.trace_accesses = bool(trace_accesses)
        self.rng = np.random.default_rng(seed)
        self.scheduler: SchedulerPolicy = scheduler or FifoScheduler()
        self.buffers: list = []
        #: the most recent :meth:`run`'s result — lets consumers that
        #: only see a derived value (e.g. a bench cell runner's
        #: ``CellResult``) recover the final run's trace slice, as the
        #: compiled-schedule capture does
        self.last_result: Optional[RunResult] = None
        self._posts: dict = {}
        self._barrier_seq: dict = {}
        self._barrier_arrivals: dict = {}
        self._sync_count = 0

    # ---- allocation ----------------------------------------------------------

    def alloc(self, rank: int, nbytes: int, *, fill=None, random=False,
              name: str = "") -> Buffer:
        """Private buffer homed on ``rank``'s socket."""
        buf = alloc(
            nbytes,
            dtype=self.dtype,
            functional=self.functional,
            fill=fill,
            rng=self.rng if random else None,
            owner=rank,
            name=name or f"rank{rank}.buf",
        )
        if self.memsys is not None:
            buf.home_socket = self.memsys.socket_of_rank(rank)
        self.buffers.append(buf)
        return buf

    def alloc_shared(self, nbytes: int, *, name: str = "shm") -> SharedBuffer:
        buf = alloc_shared(
            nbytes, dtype=self.dtype, functional=self.functional, name=name
        )
        self.buffers.append(buf)
        return buf

    # ---- tracing -----------------------------------------------------------------

    def _record(self, ctx: RankCtx, kind: str, nbytes: int, src=None, dst=None,
                *, nt=None, policy: str = "", t0: float = 0.0,
                reads: tuple = (), writes: tuple = ()) -> None:
        if self.trace is None:
            return
        if self.trace_accesses:
            reads = tuple((v.buf.buf_id, v.off, v.nbytes)
                          for v in reads if v.nbytes)
            writes = tuple((v.buf.buf_id, v.off, v.nbytes)
                           for v in writes if v.nbytes)
        else:
            reads = writes = ()
        self.trace.add(
            OpRecord(
                rank=ctx.rank,
                kind=kind,
                nbytes=nbytes,
                src=getattr(getattr(src, "buf", None), "name", ""),
                dst=getattr(getattr(dst, "buf", None), "name", ""),
                nt=nt,
                policy=policy,
                t_start=t0,
                t_end=ctx.clock,
                reads=reads,
                writes=writes,
            )
        )

    # ---- sync cost helpers -----------------------------------------------------------

    def _pair_latency(self, r1: int, r2: int) -> float:
        if self.machine is None:
            return 0.0
        if self.memsys.socket_of_rank(r1) == self.memsys.socket_of_rank(r2):
            return self.machine.sync_latency_intra
        return self.machine.sync_latency_inter

    def _group_latency(self, group: tuple) -> float:
        if self.machine is None:
            return 0.0
        sockets = {self.memsys.socket_of_rank(r) for r in group}
        lat = (
            self.machine.sync_latency_inter
            if len(sockets) > 1
            else self.machine.sync_latency_intra
        )
        rounds = max(1, math.ceil(math.log2(max(2, len(group)))))
        return 2.0 * rounds * lat

    # ---- the scheduler -------------------------------------------------------------

    def run(self, program: Callable, ranks: Optional[Sequence[int]] = None,
            *, start_times: Optional[list] = None) -> RunResult:
        """Run ``program(ctx)`` on every rank in ``ranks`` to completion.

        ``program`` may be a plain function (no internal syncs) or a
        generator function yielding sync events.  Every rank's clock
        starts at zero, or at ``start_times[rank]`` when given.
        """
        policy = self.scheduler
        ranks = list(range(self.nranks)) if ranks is None else list(ranks)
        if self.memsys is not None:
            self.memsys.set_active_ranks(ranks)
            self.memsys.reset_counters()
        self._posts.clear()
        self._barrier_seq.clear()
        self._barrier_arrivals.clear()
        self._sync_count = 0
        first_record = 0
        first_span = 0
        if self.trace is not None:
            # Back-to-back collectives on one engine are separated by a
            # global synchronization (the previous run drained fully);
            # the marker lets Trace.slice_last_run cut out one run.
            self.trace.add_event(
                SyncEvent(rank=-1, kind="run_start", group=tuple(ranks))
            )
            first_record = len(self.trace.records)
            first_span = len(self.trace.spans)

        ctxs = {r: RankCtx(self, r) for r in ranks}
        if start_times is not None:
            for r in ranks:
                ctxs[r].clock = start_times[r]

        gens: dict[int, object] = {}
        done: set[int] = set()
        for r in ranks:
            out = program(ctxs[r])
            if inspect.isgenerator(out):
                gens[r] = out
            else:
                done.add(r)

        policy.begin_run(self, [r for r in ranks if r in gens])
        if policy.controlled:
            self._run_controlled(policy, ctxs, gens, done)
        else:
            self._run_cooperative(policy, ctxs, gens, done)

        times = [0.0] * self.nranks
        for r in ranks:
            times[r] = ctxs[r].clock
        result = RunResult(
            times=[times[r] for r in ranks] if ranks != list(range(self.nranks))
            else times,
            traffic=self.memsys.counters if self.memsys else None,
            per_rank_traffic=self.memsys.per_rank if self.memsys else None,
            trace=self.trace,
            sync_count=self._sync_count,
            first_record=first_record,
            first_span=first_span,
        )
        self.last_result = result
        return result

    def _run_cooperative(self, policy: SchedulerPolicy, ctxs, gens, done
                         ) -> None:
        """The historical greedy loop: the picked rank runs until it
        actually blocks; other ranks' satisfiable waits are released
        eagerly as posts arrive.  With :class:`FifoScheduler` this is
        byte-for-byte the pre-policy engine."""
        blocked: dict[int, object] = {}
        runnable = deque(r for r in ctxs if r in gens)
        while runnable or blocked:
            if not runnable:
                self._diagnose_deadlock(blocked, ctxs)
            r = policy.pick(self, runnable)
            gen = gens[r]
            ctx = ctxs[r]
            while True:
                try:
                    ev = next(gen)
                except StopIteration:
                    done.add(r)
                    del gens[r]
                    break
                satisfied, newly = self._handle_event(r, ctx, ev, ctxs)
                for nr in newly:
                    if nr != r and nr in blocked:
                        del blocked[nr]
                        runnable.append(nr)
                if satisfied:
                    continue
                blocked[r] = ev
                break
            # re-check ranks whose waits may now be satisfiable by posts
            # made while r was running
            for br in list(blocked):
                bev = blocked[br]
                if isinstance(bev, _Wait) and self._wait_ready(bev):
                    self._release_wait(ctxs[br], bev)
                    del blocked[br]
                    runnable.append(br)

    def _run_controlled(self, policy: SchedulerPolicy, ctxs, gens, done
                        ) -> None:
        """One policy decision per step: resume the chosen rank to its
        next yield, resolve the sync it attempted, return control.

        The enabled set handed to the policy is every rank that can
        make progress: runnable ranks plus blocked ranks whose wait
        became satisfiable (released lazily when scheduled, which is
        observationally equivalent to the cooperative loop's eager
        release — waits are non-consuming and match a prefix of the
        append-only post list).
        """
        blocked: dict[int, object] = {}
        while gens:
            enabled = tuple(sorted(
                r for r in gens
                if r not in blocked
                or (isinstance(blocked[r], _Wait)
                    and self._wait_ready(blocked[r]))
            ))
            if not enabled:
                self._diagnose_deadlock(blocked, ctxs)
            r = policy.pick(self, enabled)
            if r not in enabled:
                raise ValueError(
                    f"scheduler chose rank {r} outside enabled set {enabled}"
                )
            ctx = ctxs[r]
            pending = blocked.pop(r, None)
            if pending is not None:
                self._release_wait(ctx, pending)
            try:
                ev = next(gens[r])
            except StopIteration:
                done.add(r)
                del gens[r]
                policy.observe(self, r, None)
                continue
            satisfied, newly = self._handle_event(r, ctx, ev, ctxs)
            for nr in newly:
                blocked.pop(nr, None)
            if not satisfied:
                blocked[r] = ev
            policy.observe(self, r, ev)

    # ---- event handling -------------------------------------------------------

    def _wait_ready(self, ev: _Wait) -> bool:
        return len(self._posts.get(ev.tag, ())) >= ev.count

    def _release_wait(self, ctx: RankCtx, ev: _Wait) -> None:
        posts = self._posts[ev.tag][: ev.count]
        self._sync_count += 1
        t0 = ctx.clock
        t = t0
        for pr, pclock, _ in posts:
            t = max(t, pclock + self._pair_latency(pr, ctx.rank))
        ctx.clock = t
        if self.trace is not None:
            self.trace.add(
                OpRecord(rank=ctx.rank, kind="wait", nbytes=0, tag=ev.tag,
                         count=ev.count, t_start=t0, t_end=t,
                         matched=tuple(index for _, _, index in posts))
            )

    def _handle_event(self, r: int, ctx: RankCtx, ev, ctxs):
        """Returns (satisfied_for_r, ranks_released)."""
        if isinstance(ev, _Wait):
            if self._wait_ready(ev):
                self._release_wait(ctx, ev)
                return True, ()
            return False, ()
        if isinstance(ev, _Barrier):
            seq_key = (ev.group, r)
            n = self._barrier_seq.get(seq_key, 0)
            self._barrier_seq[seq_key] = n + 1
            bucket_key = (ev.group, n)
            bucket = self._barrier_arrivals.setdefault(bucket_key, {})
            bucket[r] = ctx.clock
            if len(bucket) == len(ev.group):
                self._sync_count += 1
                t = max(bucket.values()) + self._group_latency(ev.group)
                released = []
                if self.trace is not None:
                    for br in ev.group:
                        self.trace.add(
                            OpRecord(rank=br, kind="barrier", nbytes=0,
                                     group=ev.group, t_start=bucket[br],
                                     t_end=t)
                        )
                for br in ev.group:
                    ctxs[br].clock = t
                    if br != r:
                        released.append(br)
                del self._barrier_arrivals[bucket_key]
                return True, released
            return False, ()
        raise TypeError(f"rank {r} yielded a non-event: {ev!r}")

    def _diagnose_deadlock(self, blocked, ctxs):
        infos = []
        for r, ev in sorted(blocked.items()):
            if isinstance(ev, _Wait):
                posts = self._posts.get(ev.tag, ())
                info = BlockedInfo(
                    rank=r, kind="wait", tag=ev.tag, count=ev.count,
                    have=len(posts),
                    posters=tuple(pr for pr, _, _ in posts),
                )
            else:
                # the bucket this rank is parked in is its latest arrival
                n = self._barrier_seq[(ev.group, r)] - 1
                bucket = self._barrier_arrivals.get((ev.group, n), {})
                info = BlockedInfo(
                    rank=r, kind="barrier", group=ev.group,
                    arrived=tuple(sorted(bucket)),
                )
            infos.append(info)
            if self.trace is not None:
                self.trace.add_event(
                    SyncEvent(
                        rank=r, kind="blocked",
                        tag=getattr(ev, "tag", None),
                        count=getattr(ev, "count", 0),
                        group=getattr(ev, "group", ()),
                        matched=info.posters or info.arrived,
                        detail=info.describe(),
                    )
                )
        raise DeadlockError(
            f"simulation deadlock: {len(infos)} rank(s) blocked\n  "
            + "\n  ".join(i.describe() for i in infos),
            blocked=infos,
        )
