"""Pluggable scheduling policies for :class:`~repro.sim.engine.Engine`.

The engine's rank programs are cooperative coroutines: all scheduling
nondeterminism lives at the yield points where a rank attempts a
synchronization.  A :class:`SchedulerPolicy` decides, at each of those
points, which runnable rank advances next.  Two execution modes exist:

* **cooperative** (``controlled = False``, the default
  :class:`FifoScheduler`) — the engine runs the picked rank greedily
  until it actually blocks, releasing other ranks' satisfiable waits
  eagerly as posts arrive.  This is the engine's historical behaviour,
  byte-for-byte: traces, clocks and RNG consumption are identical to
  the pre-policy engine.
* **controlled** (``controlled = True``, e.g.
  :class:`ControlledScheduler`) — the engine executes exactly one
  *step* per policy decision: resume the chosen rank, run it to its
  next yield (or completion), resolve the sync it attempted, and hand
  control back.  Every step sees the full *enabled set* (runnable
  ranks plus blocked ranks whose wait became satisfiable), which is
  what a stateless model checker needs to enumerate interleavings —
  the :mod:`repro.analysis.mc` DPOR explorer drives the engine through
  this interface.

Lazy wait release (controlled mode) is observationally equivalent to
the cooperative engine's eager release: waits are non-consuming and
match ``posts[:count]``, a prefix of an append-only list, so *when* a
satisfiable wait is released never changes which posts it matches nor
the reconciled clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np


class SchedulerPolicy:
    """Base class for engine scheduling policies.

    ``controlled`` selects the engine loop: cooperative policies
    receive the runnable deque in :meth:`pick` and must remove and
    return one rank; controlled policies receive the sorted enabled
    tuple and return one of its members.
    """

    controlled = False

    def begin_run(self, engine, ranks: Sequence[int]) -> None:
        """Called once per :meth:`Engine.run` before scheduling starts."""

    def pick(self, engine, candidates):
        """Choose the next rank to advance (see class docstring)."""
        raise NotImplementedError

    def observe(self, engine, rank: int, event) -> None:
        """Called after each controlled step; ``event`` is the sync the
        rank yielded (``None`` when the rank ran to completion)."""


class FifoScheduler(SchedulerPolicy):
    """The engine's historical schedule: FIFO over runnable ranks, with
    an optional seeded rotation used by the fuzzing tests.

    ``seed=None`` is plain FIFO.  With a seed, every decision with more
    than one runnable rank draws once from the policy's RNG and rotates
    the runnable deque by the draw.  The RNG lives as long as the
    policy, so an engine's successive runs continue one stream.
    """

    controlled = False

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed) if seed is not None else None

    def pick(self, engine, candidates: "Deque[int]") -> int:
        rng = self._rng
        if rng is not None and len(candidates) > 1:
            candidates.rotate(int(rng.integers(0, len(candidates))))
        return candidates.popleft()


@dataclass(frozen=True)
class StepRecord:
    """One controlled-scheduler step: the unit of DPOR exploration.

    A step is the chosen rank's execution from its resume point to its
    next yield (or completion), including the resolution of any
    pending wait it was parked on.  ``reads``/``writes`` are the
    ``(buf_id, off, end)`` byte ranges the step's data operations
    touched; ``posts``/``waits`` the sync tags it published/consumed.
    ``enabled`` is the full enabled set the scheduler chose from —
    the alternatives a model checker may backtrack to.
    """

    index: int
    rank: int
    enabled: Tuple[int, ...]
    reads: Tuple[Tuple[int, int, int], ...] = ()
    writes: Tuple[Tuple[int, int, int], ...] = ()
    posts: Tuple[object, ...] = ()
    waits: Tuple[object, ...] = ()
    completed: bool = False

    def describe(self) -> str:
        extra = " (done)" if self.completed else ""
        return (f"step {self.index}: rank {self.rank} of {self.enabled}"
                f"{extra}")


@dataclass
class ControlledScheduler(SchedulerPolicy):
    """Step-at-a-time scheduler following a forced choice prefix.

    For step ``i`` the policy picks ``choices[i]`` when that rank is
    enabled; past the end of the prefix (or if the forced rank is not
    enabled — which marks the run *diverged*) it falls back to the
    smallest enabled rank, making the continuation deterministic.
    Every step is recorded as a :class:`StepRecord`, with data/sync
    footprints extracted from the engine's event trace when tracing is
    on — the input to the DPOR conflict relation.
    """

    choices: Sequence[int] = ()
    steps: List[StepRecord] = field(default_factory=list)
    diverged: bool = False
    _pending: Optional[Tuple[int, Tuple[int, ...], int]] = None

    controlled = True

    def begin_run(self, engine, ranks: Sequence[int]) -> None:
        # The DPOR conflict relation is built from AccessEvent byte
        # ranges; the compiled-capture light-tracing mode drops those.
        # Refuse loudly rather than explore with empty footprints.
        if engine.trace is not None and \
                not getattr(engine, "trace_accesses", True):
            raise ValueError(
                "ControlledScheduler needs full access tracing; "
                "construct the engine with trace_accesses=True")
        self._pending = None

    def pick(self, engine, candidates: Tuple[int, ...]) -> int:
        i = len(self.steps)
        if i < len(self.choices) and self.choices[i] in candidates:
            choice = self.choices[i]
        else:
            if i < len(self.choices):
                self.diverged = True
            choice = min(candidates)
        n0 = len(engine.trace.events) if engine.trace is not None else 0
        self._pending = (choice, tuple(candidates), n0)
        return choice

    def observe(self, engine, rank: int, event) -> None:
        assert self._pending is not None and self._pending[0] == rank
        choice, enabled, n0 = self._pending
        self._pending = None
        reads: List[Tuple[int, int, int]] = []
        writes: List[Tuple[int, int, int]] = []
        posts: List[object] = []
        waits: List[object] = []
        if engine.trace is not None:
            from repro.sim.trace import AccessEvent, SyncEvent

            for ev in engine.trace.events[n0:]:
                if isinstance(ev, AccessEvent):
                    rng = (ev.buf_id, ev.off, ev.end)
                    (writes if ev.mode == "w" else reads).append(rng)
                elif isinstance(ev, SyncEvent) and ev.rank == rank:
                    if ev.kind == "post":
                        posts.append(ev.tag)
                    elif ev.kind == "wait":
                        waits.append(ev.tag)
        self.steps.append(
            StepRecord(
                index=len(self.steps),
                rank=rank,
                enabled=enabled,
                reads=tuple(reads),
                writes=tuple(writes),
                posts=tuple(posts),
                waits=tuple(waits),
                completed=event is None,
            )
        )

    @property
    def schedule(self) -> List[int]:
        """The full executed schedule (one rank per step)."""
        return [s.rank for s in self.steps]
