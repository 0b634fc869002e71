"""Structured operation trace for debugging, DAV verification and
happens-before analysis.

Tracing is optional (off by default — the hot loops only pay an ``if``)
but invaluable: the integration tests replay a collective with tracing
on and check, operation by operation, that the schedule matches the
paper's figures (e.g. Figure 6's step/slice/rank table for the
movement-avoiding reduce-scatter).

A trace carries three parallel streams:

* ``records`` — one :class:`OpRecord` per engine operation (data *and*
  synchronization), the per-rank schedule view consumed by the replay
  and timeline tools;
* ``events`` — fine-grained :class:`AccessEvent`/:class:`SyncEvent`
  entries in global execution order, the input to the schedule-IR
  lift (:func:`repro.analysis.static.extract.ir_from_trace`).  Access
  events name the exact buffer byte range each operation read or
  wrote; sync events capture post/wait/barrier structure, including
  *which* posts a wait matched — everything a happens-before
  construction needs;
* ``spans`` — coarse :class:`SpanRecord` phase labels emitted through
  the :meth:`~repro.sim.engine.RankCtx.span` API, naming *why* a rank
  spent a stretch of time (e.g. MA's reduce wavefront vs its copy-out
  phase).  :mod:`repro.obs` turns them into nested Perfetto slices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional


@dataclass(frozen=True)
class OpRecord:
    """One engine operation.

    ``kind`` is one of ``copy``, ``reduce_acc`` (``A += B``),
    ``reduce_out`` (``C = A + B``), ``compute``, ``touch``, or a
    synchronization kind: ``post``, ``wait``, ``barrier``.
    ``nt`` records whether a copy used a non-temporal store.

    Synchronization records carry structured metadata instead of
    abusing the ``src``/``dst`` strings: ``tag`` is the flag identity a
    ``post``/``wait`` named, ``count`` the number of posts a ``wait``
    required, and ``group`` the member tuple of a ``barrier``.
    """

    rank: int
    kind: str
    nbytes: int
    src: str = ""
    dst: str = ""
    nt: Optional[bool] = None
    policy: str = ""
    t_start: float = 0.0
    t_end: float = 0.0
    tag: object = None
    count: int = 0
    group: tuple = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def is_sync(self) -> bool:
        return self.kind in ("post", "wait", "barrier")


@dataclass(frozen=True)
class AccessEvent:
    """One byte-range access of a data operation.

    ``mode`` is ``"r"`` or ``"w"``; ``op_index`` points back into
    ``Trace.records`` (``-1`` when the operation was not recorded).
    ``shared`` marks accesses to :class:`~repro.sim.buffers.SharedBuffer`
    segments — the ranges cross-rank races live on.
    """

    seq: int
    rank: int
    mode: str
    buf_id: int
    buf_name: str
    shared: bool
    off: int
    nbytes: int
    op_kind: str
    op_index: int = -1

    @property
    def end(self) -> int:
        return self.off + self.nbytes


@dataclass(frozen=True)
class SpanRecord:
    """One labelled phase of a rank's execution.

    Spans are purely observational: they carry no synchronization or
    data semantics, only a name and the rank-clock interval it covers.
    Nested ``span`` calls produce containing intervals (the trace
    exporter renders them as nested slices).
    """

    rank: int
    name: str
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class SyncEvent:
    """One synchronization event, in global execution order.

    ``kind``:

    * ``"post"`` — rank published ``tag``;
    * ``"wait"`` — rank's ``wait(tag, count)`` was released; ``matched``
      holds the event seqs of the posts that satisfied it;
    * ``"barrier"`` — a barrier on ``group`` completed (one event per
      completion, emitted by the last arriver);
    * ``"blocked"`` — the run deadlocked with this rank parked on the
      described wait/barrier (a deadlock certificate);
    * ``"run_start"`` — :meth:`Engine.run` began (separates back-to-back
      collectives on one engine; :meth:`Trace.slice_last_run` cuts at
      the last one).
    """

    seq: int
    rank: int
    kind: str
    tag: object = None
    count: int = 0
    group: tuple = ()
    matched: tuple = ()
    detail: str = ""


class Trace:
    """Append-only trace with simple query helpers."""

    def __init__(self) -> None:
        self.records: list[OpRecord] = []
        self.events: list = []  # AccessEvent | SyncEvent, execution order
        self.spans: list[SpanRecord] = []
        self._seq = 0

    def add(self, rec: OpRecord) -> None:
        self.records.append(rec)

    def add_span(self, span: SpanRecord) -> None:
        self.spans.append(span)

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def add_event(self, ev) -> None:
        self.events.append(ev)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[OpRecord]:
        return iter(self.records)

    def slice_last_run(self, first_record: int = 0,
                       first_span: int = 0) -> "Trace":
        """A standalone single-run view of this (cumulative) trace.

        ``first_record`` / ``first_span`` must be the *final* run's
        offsets (:attr:`~repro.sim.engine.RunResult.first_record` /
        ``first_span`` of the engine's most recent run): events are cut
        at the last ``run_start`` separator, so slicing any earlier run
        would mismatch records and events.  ``AccessEvent.op_index``
        values (absolute indices into the cumulative record list) are
        rebased to the sliced list, which makes the result a valid
        input for :func:`repro.analysis.static.extract.ir_from_trace`.
        """
        out = Trace()
        out.records = self.records[first_record:]
        out.spans = self.spans[first_span:]
        start = 0
        for i, ev in enumerate(self.events):
            if isinstance(ev, SyncEvent) and ev.kind == "run_start":
                start = i + 1
        if first_record:
            for ev in self.events[start:]:
                if isinstance(ev, AccessEvent) and ev.op_index >= 0:
                    ev = replace(ev, op_index=ev.op_index - first_record)
                out.events.append(ev)
        else:
            # nothing to rebase: skip the per-event dataclass copies
            out.events.extend(self.events[start:])
        out._seq = self._seq
        return out

    def by_rank(self, rank: int) -> list[OpRecord]:
        return [r for r in self.records if r.rank == rank]

    def by_kind(self, kind: str) -> list[OpRecord]:
        return [r for r in self.records if r.kind == kind]

    def accesses(self) -> List[AccessEvent]:
        return [e for e in self.events if isinstance(e, AccessEvent)]

    def sync_events(self) -> List[SyncEvent]:
        return [e for e in self.events if isinstance(e, SyncEvent)]

    def copy_bytes(self, *, nt: Optional[bool] = None) -> int:
        return sum(
            r.nbytes
            for r in self.records
            if r.kind == "copy" and (nt is None or r.nt == nt)
        )

    def reduce_bytes(self) -> int:
        return sum(r.nbytes for r in self.records if r.kind.startswith("reduce"))

    def touch_bytes(self) -> int:
        return sum(r.nbytes for r in self.records if r.kind == "touch")

    def summary(self) -> dict:
        kinds: dict[str, int] = {}
        for r in self.records:
            kinds[r.kind] = kinds.get(r.kind, 0) + 1
        return {
            "ops": len(self.records),
            "by_kind": kinds,
            "copy_bytes": self.copy_bytes(),
            "nt_copy_bytes": self.copy_bytes(nt=True),
            "reduce_bytes": self.reduce_bytes(),
            "spans": len(self.spans),
        }
