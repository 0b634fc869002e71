"""Shared-memory process simulation substrate.

MPI ranks are modelled as cooperative coroutines (Python generators)
scheduled by :class:`~repro.sim.engine.Engine`.  Each rank owns private
:class:`~repro.sim.buffers.Buffer` objects and can access
:class:`~repro.sim.buffers.SharedBuffer` regions, mirroring the POSIX
shared-memory mechanism the paper's library uses.  The engine keeps a
per-rank simulated clock, charges every copy/reduce operation to the
:class:`~repro.machine.memory.MemorySystem`, and implements the
flag/barrier synchronization the algorithms rely on.

Two modes share one code path:

* **functional** — buffers carry real numpy data; collectives produce
  verifiable results (tests assert against numpy oracles);
* **timing** — buffers are virtual (sizes only); the same schedules are
  executed to produce simulated time, traffic and DAV for the paper's
  large-message sweeps without allocating gigabytes.
"""

from repro.sim.buffers import Buffer, BufView, SharedBuffer
from repro.sim.compiled import (
    CompiledSchedule,
    CompiledTimes,
    CompileError,
    lower,
    schedule_from_doc,
    schedule_to_doc,
)
from repro.sim.engine import (
    BlockedInfo,
    DeadlockError,
    Engine,
    RankCtx,
    RunResult,
)
from repro.sim.scheduler import (
    ControlledScheduler,
    FifoScheduler,
    SchedulerPolicy,
    StepRecord,
)
from repro.sim.timeline import render_timeline, rank_stats, critical_rank
from repro.sim.trace import AccessEvent, OpRecord, SpanRecord, SyncEvent, Trace

__all__ = [
    "Buffer",
    "BufView",
    "SharedBuffer",
    "SchedulerPolicy",
    "FifoScheduler",
    "ControlledScheduler",
    "StepRecord",
    "CompileError",
    "CompiledSchedule",
    "CompiledTimes",
    "lower",
    "schedule_from_doc",
    "schedule_to_doc",
    "Engine",
    "RankCtx",
    "RunResult",
    "BlockedInfo",
    "DeadlockError",
    "AccessEvent",
    "OpRecord",
    "SpanRecord",
    "SyncEvent",
    "Trace",
    "render_timeline",
    "rank_stats",
    "critical_rank",
]
