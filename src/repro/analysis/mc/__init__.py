"""Stateless model checking of collective schedules (DPOR).

The lint passes (:mod:`repro.analysis.static`) judge the schedule
lifted from the *one* interleaving the cooperative engine executed.
This package closes the gap: it re-runs a collective under a
controlled scheduler and explores every Mazurkiewicz-distinct
interleaving (sleep-set + persistent-set dynamic partial-order
reduction), checking functional output equality, ``lint``'s whole
buffer scan (no races, no uninitialized reads), the DAV invariant and
deadlock freedom at each terminal state.  Failures are minimized to
replayable :class:`~repro.sim.replay.ScheduleCertificate` witnesses.

Entry points: :func:`verify_collective` (the ``python -m repro verify``
backend), :func:`verify_case`, :func:`verify_program` (arbitrary engine
programs, used by the seeded-bug tests) and :func:`replay_certificate`.
See ``docs/analysis.md`` for the equivalence-class model.
"""

from repro.analysis.mc.conflict import data_conflict, dependent, sync_conflict
from repro.analysis.mc.dpor import Explorer, Node
from repro.analysis.mc.verify import (
    DEFAULT_BUDGET,
    Execution,
    ReplayOutcome,
    VerifyCaseResult,
    render_verification,
    replay_certificate,
    verify_case,
    verify_collective,
    verify_program,
)

__all__ = [
    "DEFAULT_BUDGET",
    "Execution",
    "Explorer",
    "Node",
    "ReplayOutcome",
    "VerifyCaseResult",
    "data_conflict",
    "dependent",
    "sync_conflict",
    "render_verification",
    "replay_certificate",
    "verify_case",
    "verify_collective",
    "verify_program",
]
