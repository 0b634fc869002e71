"""YHCCL: the paper's collective library, as a user-facing facade.

Routes every call through the Section 5.1 switching logic
(:mod:`repro.collectives.switching`), executes on the communicator's
engine, and returns a :class:`CollectiveResult` carrying simulated time,
data-access volume and traffic breakdown.

:class:`CollectiveLibrary` holds the five collective calls once; YHCCL
and :class:`~repro.library.mpi.MPILibrary` differ only in which
algorithm and copy policy they pick for a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collectives.common import run_collective
from repro.collectives.switching import YHCCLConfig, platform_imax, select
from repro.library.communicator import Communicator
from repro.models.dav import table_row
from repro.obs.counters import Counters


@dataclass
class CollectiveResult:
    """Outcome of one collective call on the simulated node."""

    kind: str
    nbytes: int
    time: float
    dav: int
    memory_traffic: int
    sync_count: int
    algorithm: str
    copy_policy: str
    #: per-rank counter registry snapshot (``repro-obs/1``), built by
    #: :meth:`repro.obs.counters.Counters.from_run` — ``None`` only for
    #: results constructed directly without an engine run
    counters: Optional[dict] = None

    @property
    def time_us(self) -> float:
        return self.time * 1e6

    @property
    def dab(self) -> float:
        """Data access bandwidth (bytes/s): DAV over completion time.

        Zero-time results report ``0.0`` (not infinity), keeping
        aggregate statistics and JSON serialization well-defined.
        """
        return self.dav / self.time if self.time > 0 else 0.0


class CollectiveLibrary:
    """The five collective calls of a library facade.

    A subclass picks the algorithm and copy policy for each call
    (:meth:`_choose`) and the slice cap (``imax``); every call runs
    through :func:`~repro.collectives.common.run_collective` on the
    communicator's engine.
    """

    comm: Communicator
    imax: int

    def _choose(self, kind: str, nbytes: int, op: str):
        """``(algorithm, copy_policy)`` for one call."""
        raise NotImplementedError

    def _call(self, kind: str, nbytes: int, *, op: str = "sum",
              root: int = 0, iterations: int = 1) -> CollectiveResult:
        alg, policy = self._choose(kind, nbytes, op)
        res = run_collective(alg, self.comm.engine, nbytes, op=op,
                             copy_policy=policy, imax=self.imax, root=root,
                             iterations=iterations)
        return CollectiveResult(
            kind=kind,
            nbytes=nbytes,
            time=res.time,
            dav=res.traffic.dav if res.traffic else 0,
            memory_traffic=res.traffic.memory_traffic if res.traffic else 0,
            sync_count=res.sync_count,
            algorithm=alg.name,
            copy_policy=policy,
            counters=Counters.from_run(res).snapshot(),
        )

    def allreduce(self, nbytes: int, *, op: str = "sum",
                  iterations: int = 1) -> CollectiveResult:
        return self._call("allreduce", nbytes, op=op, iterations=iterations)

    def reduce(self, nbytes: int, *, op: str = "sum", root: int = 0,
               iterations: int = 1) -> CollectiveResult:
        return self._call("reduce", nbytes, op=op, root=root,
                          iterations=iterations)

    def reduce_scatter(self, nbytes: int, *, op: str = "sum",
                       iterations: int = 1) -> CollectiveResult:
        return self._call("reduce_scatter", nbytes, op=op,
                          iterations=iterations)

    def bcast(self, nbytes: int, *, root: int = 0,
              iterations: int = 1) -> CollectiveResult:
        return self._call("bcast", nbytes, root=root, iterations=iterations)

    def allgather(self, nbytes: int,
                  iterations: int = 1) -> CollectiveResult:
        return self._call("allgather", nbytes, iterations=iterations)


class YHCCL(CollectiveLibrary):
    """The optimized collective library (Figure 4's full stack)."""

    def __init__(self, comm: Communicator, *,
                 config: Optional[YHCCLConfig] = None):
        self.comm = comm
        self.config = config or YHCCLConfig(imax=platform_imax(comm.machine))

    @property
    def imax(self) -> int:
        return self.config.imax

    def _choose(self, kind: str, nbytes: int, op: str):
        sel = select(kind, nbytes, self.config, op=op)
        return sel.algorithm, sel.copy_policy

    def _program(self, kind: str, nbytes: int, op: str):
        """The algorithm selected for ``(kind, nbytes)`` and a runner of
        it on any engine — what :meth:`lint` and :meth:`verify` analyze."""
        alg, policy = self._choose(kind, nbytes, op)

        def run(eng):
            run_collective(alg, eng, nbytes, op=op, copy_policy=policy,
                           imax=self.imax)

        return alg, run

    # ---- schedule verification --------------------------------------------------

    def lint(self, kind: str, nbytes: int, *, op: str = "sum",
             nranks: Optional[int] = None):
        """Statically lint the schedule YHCCL would select for
        ``(kind, nbytes)``.

        One traced functional run (``nranks`` defaults to 4) lifts the
        selected algorithm into a schedule IR; the full static pass
        pipeline — deadlock freedom, Theorem 3.1 DAV, buffer lints,
        NUMA/false-sharing placement, critical-path bound — then runs
        over the DAG with no further execution.  Returns the
        :class:`~repro.analysis.static.Report` (``report.ok`` means no
        error-severity findings).  See ``docs/static_analysis.md``.
        """
        from repro.analysis.static import extract_program, run_passes

        alg, run = self._program(kind, nbytes, op)
        ir = extract_program(
            run, nranks=4 if nranks is None else nranks,
            label=f"{alg.name}/{kind}", kind=kind, s=nbytes,
            machine=self.comm.machine,
        )
        ir.meta["locality"] = str(getattr(alg, "locality", ""))
        # the Table 1-3 row, so the static DAV pass checks instead of
        # skipping
        ir.meta["dav_algorithm"] = table_row(kind, alg.name)
        ir.meta["k"] = int(getattr(alg, "branch", 2))
        return run_passes(ir)

    def verify(self, kind: str, nbytes: int, *, op: str = "sum",
               nranks: Optional[int] = None,
               max_schedules: Optional[int] = None):
        """Model-check the algorithm YHCCL would select for
        ``(kind, nbytes)``.

        Where :meth:`lint` judges the schedule lifted from the one
        interleaving the engine executed, ``verify`` explores **every**
        DPOR-distinct interleaving of the selected algorithm on a
        functional twin (``nranks`` defaults to
        ``min(self.comm.nranks, 3)`` — the schedule space grows fast)
        and checks output equality, race freedom, initialized reads
        and the DAV invariant at each terminal state.  Returns a
        :class:`~repro.analysis.mc.VerifyCaseResult`; a failure
        carries a minimized replayable schedule certificate.
        """
        from repro.analysis.mc import DEFAULT_BUDGET, verify_program

        alg, run = self._program(kind, nbytes, op)
        return verify_program(
            run, nranks=min(self.comm.nranks, 3) if nranks is None
            else nranks,
            label=f"{alg.name}/{kind}", collective=alg.name, kind=kind,
            s=nbytes, max_schedules=(max_schedules if max_schedules is not None
                           else DEFAULT_BUDGET),
        )
