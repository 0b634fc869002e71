"""Exhaustive schedule verification of registered collectives.

``python -m repro verify`` backend: re-run a collective under the
controlled scheduler, let the DPOR :class:`~repro.analysis.mc.dpor.Explorer`
enumerate every Mazurkiewicz-distinct interleaving, and at each
terminal state check

* **functional output** — the runner's numpy-oracle assertion, plus
  byte equality of *every* engine buffer (scratch and shm included)
  against the first clean execution;
* **buffer discipline** — the explored schedule's trace is lifted
  into the schedule IR and judged by the whole scan of ``lint``'s
  :class:`~repro.analysis.static.passes.BufferPass`: unordered
  conflicting accesses (``race``) and reads no happens-before-ordered
  write or fill produced (``uninit``);
* **the DAV invariant** — the IR's Theorem 3.1 volume must be
  schedule-invariant (the accounting does not depend on
  interleaving);
* **no deadlock / engine error** anywhere.

The first failing schedule is *minimized* — binary search for the
shortest forced-choice prefix that still reproduces the failure (the
suffix re-runs deterministically) — and reported as a replayable
:class:`~repro.sim.replay.ScheduleCertificate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.analysis.mc.dpor import Explorer
from repro.analysis.runner import Case, cases
from repro.analysis.static.extract import ir_from_trace
from repro.analysis.static.passes import BufferPass
from repro.sim.engine import DeadlockError, Engine
from repro.sim.replay import ScheduleCertificate
from repro.sim.scheduler import ControlledScheduler, StepRecord

#: default exploration budget per case (schedules, not steps)
DEFAULT_BUDGET = 1000

#: how a terminal state's BufferPass findings fail it, checked in
#: order: (failure kind, the finding codes it covers, what its detail
#: counts).  Together they cover every code of the pass.
BUFFER_FAILURES = (
    ("race", ("SA-BUF-OVERLAP", "SA-BUF-RACE"), "race(s)"),
    ("uninit", ("SA-BUF-UNINIT",), "uninitialized read(s)"),
    ("error", ("SA-BUF-BOUNDS",), "out-of-bounds access(es)"),
)

#: terminal buffer state, keyed by (name, occurrence).  Buffers may be
#: allocated *during* the run (e.g. ring's per-rank scratch), so global
#: allocation order is schedule-dependent; names are per-rank and each
#: rank's allocations follow program order, making the key invariant.
Snapshot = dict


@dataclass
class Execution:
    """One controlled run of the program: schedule, trace, outcome."""

    scheduler: ControlledScheduler
    engine: Engine
    failure: Optional[Tuple[str, str]] = None  # (kind, detail), raised only
    snapshot: Snapshot = field(default_factory=dict)

    @property
    def schedule(self) -> List[int]:
        return self.scheduler.schedule


class _Executor:
    """Build a fresh engine per schedule and run the program under it."""

    def __init__(self, run_fn: Callable[[Engine], None], *, nranks: int,
                 seed: int):
        self.run_fn = run_fn
        self.nranks = nranks
        self.seed = seed
        self.last: Optional[Execution] = None
        #: first clean execution: (buffer snapshot, DAV)
        self.baseline: Optional[Tuple[Snapshot, float]] = None

    def __call__(self, choices: List[int]) -> List[StepRecord]:
        sched = ControlledScheduler(choices=choices)
        eng = Engine(self.nranks, functional=True, trace=True,
                     seed=self.seed, scheduler=sched)
        exe = Execution(scheduler=sched, engine=eng)
        try:
            self.run_fn(eng)
        except DeadlockError as e:
            exe.failure = ("deadlock", str(e))
        except AssertionError as e:
            detail = str(e).strip().splitlines()
            exe.failure = ("divergence",
                           "output differs from the numpy oracle"
                           + (f": {detail[0]}" if detail else ""))
        except Exception as e:  # noqa: BLE001 - each schedule must not kill the search
            exe.failure = ("error", f"{type(e).__name__}: {e}")
        else:
            seen: dict = {}
            for b in eng.buffers:
                occ = seen.get(b.name, 0)
                seen[b.name] = occ + 1
                exe.snapshot[(b.name, occ)] = (
                    b.data.tobytes() if b.data is not None else None
                )
        self.last = exe
        return sched.steps

    # ---- terminal-state classification -----------------------------------

    def classify(self, exe: Execution) -> Optional[Tuple[str, str]]:
        """The first failed check of a completed execution, if any."""
        if exe.failure is not None:
            return exe.failure
        ir = ir_from_trace(exe.engine.trace, buffers=exe.engine.buffers)
        found = BufferPass().scan(ir)
        for kind, codes, counted in BUFFER_FAILURES:
            hits = [f for code in codes for f in found[code]]
            if hits:
                return (kind, f"{len(hits)} {counted} under this "
                              f"schedule; {hits[0].message}")
        dav = ir.static_dav()
        if self.baseline is None:
            self.baseline = (exe.snapshot, dav)
            return None
        base_snap, base_dav = self.baseline
        if dav != base_dav:
            return ("dav",
                    f"DAV {dav:.0f} differs from canonical "
                    f"{base_dav:.0f} — data volume is schedule-dependent")
        if set(exe.snapshot) != set(base_snap):
            odd = set(exe.snapshot) ^ set(base_snap)
            name = sorted(odd)[0][0]
            return ("divergence",
                    f"buffer allocations differ from the canonical "
                    f"schedule's (e.g. {name})")
        for key in base_snap:
            if exe.snapshot[key] != base_snap[key]:
                return ("divergence",
                        f"final contents of {key[0]} differ from the "
                        f"canonical schedule's")
        return None


@dataclass
class VerifyCaseResult:
    """Verdict of exhaustive exploration of one (collective, kind)."""

    label: str
    collective: str
    kind: str
    nranks: int
    s: int
    schedules: int = 0
    complete: bool = False
    certificate: Optional[ScheduleCertificate] = None

    @property
    def ok(self) -> bool:
        return self.certificate is None

    def describe(self) -> str:
        if self.ok:
            scope = ("all" if self.complete
                     else "budget-capped") + f" {self.schedules} schedule(s)"
            return (f"{self.label}: {scope} explored — 0 races, "
                    f"0 uninitialized reads, 0 divergences, 0 deadlocks")
        return (f"{self.label}: FAILED after {self.schedules} schedule(s)\n"
                f"  {self.certificate.describe()}")


def verify_program(run_fn: Callable[[Engine], None], *, nranks: int,
                   label: str = "program", collective: str = "",
                   kind: str = "", s: int = 0, seed: int = 12345,
                   max_schedules: int = DEFAULT_BUDGET) -> VerifyCaseResult:
    """Model-check an arbitrary engine program.

    ``run_fn(engine)`` must build and run the program on the engine it
    is handed (fresh per schedule) and is expected to be deterministic
    up to scheduling.  This is the core loop ``verify_case`` wraps for
    registered collectives; tests use it directly on seeded-bug
    fixtures.
    """
    executor = _Executor(run_fn, nranks=nranks, seed=seed)
    explorer = Explorer(executor, max_schedules=max_schedules)
    result = VerifyCaseResult(label=label, collective=collective, kind=kind,
                              nranks=nranks, s=s)
    for _ in explorer.run():
        result.schedules = explorer.schedules_run
        exe = executor.last
        verdict = executor.classify(exe)
        if verdict is not None:
            fail_kind, detail = verdict
            witness = _minimize(executor, exe.schedule, fail_kind)
            result.certificate = ScheduleCertificate(
                case=label, collective=collective, kind=kind,
                nranks=nranks, s=s, choices=witness,
                failure=fail_kind, detail=detail, seed=seed,
            )
            return result
    result.schedules = explorer.schedules_run
    result.complete = explorer.complete
    return result


def _fails_same(executor: _Executor, choices: List[int], kind: str) -> bool:
    executor(choices)
    verdict = executor.classify(executor.last)
    return verdict is not None and verdict[0] == kind


def _minimize(executor: _Executor, schedule: List[int], kind: str
              ) -> List[int]:
    """Shortest forced prefix of ``schedule`` reproducing ``kind``.

    The continuation past the prefix is deterministic, so a prefix is a
    complete replay recipe.  Binary search assumes monotonicity (longer
    prefixes of a failing schedule keep failing); if the failure is
    non-monotonic the result is re-validated and falls back to the full
    schedule.
    """
    lo, hi = 0, len(schedule)
    while lo < hi:
        mid = (lo + hi) // 2
        if _fails_same(executor, schedule[:mid], kind):
            hi = mid
        else:
            lo = mid + 1
    if _fails_same(executor, schedule[:hi], kind):
        return schedule[:hi]
    return list(schedule)  # pragma: no cover - non-monotonic failure


def _case_runner(case: Case, s: int) -> Callable[[Engine], None]:
    def run(eng: Engine) -> None:
        case.run(eng, s)
    return run


def verify_case(case: Case, *, nranks: int = 3, s: int = 1024,
                seed: int = 12345,
                max_schedules: int = DEFAULT_BUDGET) -> VerifyCaseResult:
    """Exhaustively model-check one analysis-matrix case."""
    return verify_program(
        _case_runner(case, s), nranks=nranks, label=case.label,
        collective=case.collective, kind=case.kind, s=s, seed=seed,
        max_schedules=max_schedules,
    )


def verify_collective(name: str = "all", *, nranks: int = 3, s: int = 1024,
                      seed: int = 12345,
                      max_schedules: int = DEFAULT_BUDGET
                      ) -> List[VerifyCaseResult]:
    """Model-check every kind of collective ``name`` (or all)."""
    return [
        verify_case(case, nranks=nranks, s=s, seed=seed,
                    max_schedules=max_schedules)
        for case in cases(name)
    ]


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of re-running a certificate's witness schedule."""

    reproduced: bool
    failure: str
    detail: str

    def describe(self) -> str:
        status = "reproduced" if self.reproduced else "NOT reproduced"
        return f"certificate {status}: [{self.failure}] {self.detail}"


def replay_certificate(cert: ScheduleCertificate) -> ReplayOutcome:
    """Re-run a certificate against the registered collective it names."""
    if not cert.collective:
        raise ValueError(
            f"certificate {cert.case!r} was produced by verify_program on an "
            "ad-hoc program, not a registered collective; re-run it through "
            "verify_program with the same run function"
        )
    matched = [c for c in cases(cert.collective) if c.kind == cert.kind]
    if not matched:
        raise ValueError(
            f"certificate names unknown case {cert.collective}/{cert.kind}"
        )
    executor = _Executor(_case_runner(matched[0], cert.s),
                         nranks=cert.nranks, seed=cert.seed)
    # baseline for divergence/dav classification: the canonical schedule
    executor([])
    base = executor.classify(executor.last)
    if base is not None and not cert.choices:
        return ReplayOutcome(base[0] == cert.failure, base[0], base[1])
    executor(list(cert.choices))
    verdict = executor.classify(executor.last)
    if verdict is None:
        return ReplayOutcome(False, "", "witness schedule passed all checks")
    return ReplayOutcome(verdict[0] == cert.failure, verdict[0], verdict[1])


def render_verification(results: List[VerifyCaseResult]) -> str:
    """Human-readable multi-case verification report for the CLI."""
    lines = []
    for res in results:
        status = "OK" if res.ok else "FAIL"
        body = res.describe().splitlines()
        lines.append(f"[{status}] {body[0]}")
        lines += [f"  {ln}" for ln in body[1:]]
    bad = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results)} case(s) verified, {bad} failing")
    return "\n".join(lines)
