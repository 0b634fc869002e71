"""Structured operation trace for debugging, DAV verification and
happens-before analysis.

Tracing is optional (off by default — the hot loops only pay an ``if``)
but invaluable: the integration tests replay a collective with tracing
on and check, operation by operation, that the schedule matches the
paper's figures (e.g. Figure 6's step/slice/rank table for the
movement-avoiding reduce-scatter).

A trace carries one stream of operations and two side streams:

* ``records`` — one :class:`OpRecord` per engine operation (data *and*
  synchronization) in global execution order: the per-rank schedule
  view of the timeline tools and the input to the schedule-IR lift
  (:func:`repro.analysis.static.extract.ir_from_trace`).  A data
  record names the exact buffer byte ranges it read and wrote; a
  ``wait`` record names the post records that released it —
  everything a happens-before construction needs;
* ``events`` — :class:`SyncEvent` markers that belong to no operation:
  where each :meth:`~repro.sim.engine.Engine.run` began, and the
  waits and barriers a deadlocked run left blocked;
* ``spans`` — coarse :class:`SpanRecord` phase labels emitted through
  the :meth:`~repro.sim.engine.RankCtx.span` API, naming *why* a rank
  spent a stretch of time (e.g. MA's reduce wavefront vs its copy-out
  phase).  :mod:`repro.obs` turns them into nested Perfetto slices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional


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
    required, ``matched`` the ``Trace.records`` indices of the posts
    that released it, and ``group`` the member tuple of a ``barrier``
    (one record per member, appended together when the last one
    arrives).

    ``reads``/``writes`` are the ``(buf_id, off, nbytes)`` byte ranges
    a data operation loaded and stored, in operand order, without
    zero-byte views; an engine built with ``trace_accesses=False``
    records none.
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
    reads: tuple = ()
    writes: tuple = ()
    matched: tuple = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def is_sync(self) -> bool:
        return self.kind in ("post", "wait", "barrier")


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
    """One engine event that is not an operation.

    ``kind``:

    * ``"run_start"`` — :meth:`Engine.run` began on the ranks in
      ``group`` (separates back-to-back collectives on one engine;
      :meth:`Trace.slice_last_run` cuts at the last one);
    * ``"blocked"`` — the run deadlocked with this rank parked on the
      described wait (``tag``/``count``, ``matched`` the ranks that
      posted) or barrier (``group``, ``matched`` the ranks that
      arrived): a deadlock certificate.
    """

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
        self.events: list[SyncEvent] = []
        self.spans: list[SpanRecord] = []

    def add(self, rec: OpRecord) -> None:
        self.records.append(rec)

    def add_span(self, span: SpanRecord) -> None:
        self.spans.append(span)

    def add_event(self, ev: SyncEvent) -> None:
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
        would mismatch records and events.  A wait's ``matched`` post
        indices (absolute indices into the cumulative record list) are
        rebased to the sliced list, which makes the result a valid
        input for :func:`repro.analysis.static.extract.ir_from_trace`.
        """
        out = Trace()
        out.records = self.records[first_record:]
        if first_record:
            out.records = [
                replace(r, matched=tuple(j - first_record
                                         for j in r.matched))
                if r.matched else r
                for r in out.records
            ]
        out.spans = self.spans[first_span:]
        start = 0
        for i, ev in enumerate(self.events):
            if ev.kind == "run_start":
                start = i + 1
        out.events = self.events[start:]
        return out

    def by_rank(self, rank: int) -> list[OpRecord]:
        return [r for r in self.records if r.rank == rank]

    def by_kind(self, kind: str) -> list[OpRecord]:
        return [r for r in self.records if r.kind == kind]

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
