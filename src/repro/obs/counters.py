"""Per-rank observability counters (schema ``repro-obs/1``).

One :class:`RankCounters` per rank aggregates everything the paper's
argument is made of, from two independent sources:

* the **operation trace** (:class:`~repro.sim.trace.Trace`): copy / NT
  / reduce / touch bytes, flag-wait and barrier-stall time, busy time —
  from which the Theorem 3.1 data-access volume is
  ``2 * copy + 3 * reduce + touch`` bytes, exactly what
  :meth:`repro.analysis.static.ir.ScheduleIR.static_dav` computes
  node-wide over the lifted schedule;
* the **memory system** (:class:`~repro.machine.memory.TrafficCounters`
  per rank): the same accesses broken down by the physical level that
  served them — cache hits, DRAM reads/writes, cross-socket (NUMA) and
  cache-to-cache transfers.

A machine-model run without tracing still yields the memory-level
breakdown (this is what benchmark cells snapshot); a traced run yields
both, and the two DAV accountings must agree for every collective —
``tests/obs`` pins that cross-check against :mod:`repro.models.dav`.

Counters are plain data: :meth:`Counters.snapshot` produces the
JSON-safe dict embedded in every
:class:`~repro.library.yhccl.CollectiveResult` (which the profiler
records) and every ``repro-bench/1`` sweep cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.models.dav import op_touched_bytes
from repro.sim.trace import Trace

SCHEMA = "repro-obs/1"

#: OpRecord kinds accounted as synchronization, not work
SYNC_KINDS = ("post", "wait", "barrier")


@dataclass
class RankCounters:
    """Everything one rank did, totalled.

    Trace-derived fields are zero (and :attr:`Counters.traced` False)
    when the run was not traced; memory-level fields are zero (and
    :attr:`Counters.machine` False) when no machine model was attached.
    """

    rank: int
    # -- trace-derived -------------------------------------------------
    copy_bytes: int = 0
    nt_copy_bytes: int = 0
    reduce_bytes: int = 0
    touch_bytes: int = 0
    sync_wait_time: float = 0.0
    barrier_stall_time: float = 0.0
    busy_time: float = 0.0
    finish_time: float = 0.0
    span: float = 0.0  # global completion time (shared by all ranks)
    # -- memory-level breakdown (machine-model runs) -------------------
    logical_load: int = 0
    logical_store: int = 0
    cache_hit_bytes: int = 0
    mem_read_bytes: int = 0
    mem_write_bytes: int = 0
    numa_bytes: int = 0
    c2c_bytes: int = 0

    @property
    def trace_dav(self) -> float:
        """Theorem 3.1 accounting
        (:func:`repro.models.dav.op_touched_bytes`): ``2n`` bytes per
        copy, ``3n`` per reduce, ``n`` per touch."""
        return float(op_touched_bytes("copy", self.copy_bytes)
                     + op_touched_bytes("reduce", self.reduce_bytes)
                     + op_touched_bytes("touch", self.touch_bytes))

    @property
    def dav(self) -> float:
        """Logical data-access volume: the memory system's per-rank
        load+store count when available, else the trace accounting."""
        traffic = self.logical_load + self.logical_store
        return float(traffic) if traffic else self.trace_dav

    @property
    def stall_time(self) -> float:
        return self.sync_wait_time + self.barrier_stall_time

    @property
    def utilization(self) -> float:
        """Busy time over the *global* completion time — matches
        :func:`repro.sim.timeline.rank_stats`."""
        return self.busy_time / self.span if self.span > 0 else 0.0


#: snapshot field lists (order is the schema; values are attr names)
_INT_FIELDS = ("copy_bytes", "nt_copy_bytes", "reduce_bytes", "touch_bytes",
               "logical_load", "logical_store", "cache_hit_bytes",
               "mem_read_bytes", "mem_write_bytes", "numa_bytes", "c2c_bytes")
#: the memory-level subset, fillable from per-rank TrafficCounters
_TRAFFIC_FIELDS = ("logical_load", "logical_store", "cache_hit_bytes",
                   "mem_read_bytes", "mem_write_bytes", "numa_bytes",
                   "c2c_bytes")
_TIME_FIELDS = ("sync_wait_time", "barrier_stall_time", "busy_time",
                "finish_time")
_DERIVED_FIELDS = ("dav", "trace_dav", "utilization")


@dataclass
class Counters:
    """The per-rank counter registry of one collective run."""

    ranks: List[RankCounters] = field(default_factory=list)
    traced: bool = False
    machine: bool = False

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self):
        return iter(self.ranks)

    def __getitem__(self, rank: int) -> RankCounters:
        return self.ranks[rank]

    # ---- totals ------------------------------------------------------

    @property
    def span(self) -> float:
        return max((rc.finish_time for rc in self.ranks), default=0.0)

    def total(self, attr: str) -> float:
        return sum(getattr(rc, attr) for rc in self.ranks)

    @property
    def dav(self) -> float:
        return self.total("dav")

    @property
    def trace_dav(self) -> float:
        return self.total("trace_dav")

    # ---- construction ------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace, *, nranks: Optional[int] = None,
                   per_rank_traffic: Optional[list] = None,
                   first_record: int = 0) -> "Counters":
        """Build counters from a trace (optionally one run's slice of
        it, via ``first_record``) plus optional per-rank traffic."""
        records = trace.records[first_record:]
        if nranks is None:
            nranks = max((r.rank for r in records), default=-1) + 1
            if per_rank_traffic is not None:
                nranks = max(nranks, len(per_rank_traffic))
        out = cls(ranks=[RankCounters(rank=r) for r in range(nranks)],
                  traced=True)
        for rec in records:
            rc = out.ranks[rec.rank]
            dur = rec.t_end - rec.t_start
            if rec.kind == "copy":
                rc.copy_bytes += rec.nbytes
                if rec.nt:
                    rc.nt_copy_bytes += rec.nbytes
                rc.busy_time += dur
            elif rec.kind.startswith("reduce"):
                rc.reduce_bytes += rec.nbytes
                rc.busy_time += dur
            elif rec.kind == "touch":
                rc.touch_bytes += rec.nbytes
                rc.busy_time += dur
            elif rec.kind == "wait":
                rc.sync_wait_time += dur
            elif rec.kind == "barrier":
                rc.barrier_stall_time += dur
            elif rec.kind not in SYNC_KINDS:  # compute and future kinds
                rc.busy_time += dur
            if rec.t_end > rc.finish_time:
                rc.finish_time = rec.t_end
        if per_rank_traffic is not None:
            out._fill_traffic(per_rank_traffic)
        span = out.span
        for rc in out.ranks:
            rc.span = span
        return out

    @classmethod
    def from_run(cls, result) -> "Counters":
        """Build counters from a :class:`~repro.sim.engine.RunResult`.

        Uses the run's own slice of the (cumulative) engine trace when
        tracing was on; falls back to the memory system's per-rank
        traffic alone otherwise — which is exactly what benchmark cells
        (machine model on, tracing off) persist.
        """
        traffic = result.per_rank_traffic
        if result.trace is not None:
            return cls.from_trace(
                result.trace,
                nranks=len(traffic) if traffic is not None else None,
                per_rank_traffic=traffic,
                first_record=result.first_record,
            )
        nranks = len(traffic) if traffic is not None else len(result.times)
        out = cls(ranks=[RankCounters(rank=r) for r in range(nranks)])
        if traffic is not None:
            out._fill_traffic(traffic)
        times = result.times
        if len(times) == nranks:
            for rc, t in zip(out.ranks, times):
                rc.finish_time = t
        span = out.span
        for rc in out.ranks:
            rc.span = span
        return out

    @classmethod
    def from_machine(cls, times: list,
                     per_rank_traffic: Optional[list] = None) -> "Counters":
        """Counters for a machine-model, *untraced* execution: per-rank
        finish times plus the memory-level traffic breakdown — exactly
        the form benchmark cells persist.  ``per_rank_traffic`` entries
        may be :class:`~repro.machine.memory.TrafficCounters` objects or
        plain dicts (the compiled-schedule replay path stores the
        captured breakdown as dicts)."""
        out = cls(ranks=[RankCounters(rank=r) for r in range(len(times))])
        if per_rank_traffic is not None:
            out._fill_traffic(per_rank_traffic)
        for rc, t in zip(out.ranks, times):
            rc.finish_time = float(t)
        span = out.span
        for rc in out.ranks:
            rc.span = span
        return out

    def _fill_traffic(self, per_rank_traffic: list) -> None:
        self.machine = True
        for rc, tc in zip(self.ranks, per_rank_traffic):
            for name in _TRAFFIC_FIELDS:
                value = (tc[name] if isinstance(tc, dict)
                         else getattr(tc, name))
                setattr(rc, name, int(value))

    # ---- serialization ----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe, deterministic dict form (schema ``repro-obs/1``).

        ``traced`` / ``machine`` tell consumers which field families are
        meaningful; per-rank values are parallel arrays indexed by rank
        (compact in the bench JSON relative to per-rank objects).
        """
        per_rank: dict = {}
        for name in _INT_FIELDS:
            per_rank[name] = [getattr(rc, name) for rc in self.ranks]
        for name in _TIME_FIELDS:
            per_rank[name] = [getattr(rc, name) for rc in self.ranks]
        for name in _DERIVED_FIELDS:
            per_rank[name] = [getattr(rc, name) for rc in self.ranks]
        totals = {name: self.total(name)
                  for name in _INT_FIELDS + _TIME_FIELDS + _DERIVED_FIELDS
                  if name != "utilization"}
        return {
            "schema": SCHEMA,
            "nranks": len(self.ranks),
            "traced": self.traced,
            "machine": self.machine,
            "span": self.span,
            "totals": totals,
            "per_rank": per_rank,
        }

