"""YHCCL: the paper's collective library, as a user-facing facade.

Routes every call through the Section 5.1 switching logic
(:mod:`repro.collectives.switching`), executes on the communicator's
engine, and returns a :class:`CollectiveResult` carrying simulated time,
data-access volume and traffic breakdown.

Mirrors the artifact's activation model: constructing with
``priority=0`` disables YHCCL (calls fall through to the fallback
vendor), just as ``OMPI_MCA_coll_yhccl_priority=0`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collectives.common import (
    run_allgather_collective,
    run_bcast_collective,
    run_reduce_collective,
)
from repro.collectives.switching import Selection, YHCCLConfig, select
from repro.library.communicator import Communicator
from repro.machine.spec import KB
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


def _platform_imax(comm: Communicator) -> int:
    """The paper's tuned MA slice caps: 256 KB NodeA, 128 KB NodeB."""
    if comm.machine is None:
        return 256 * KB
    return {"NodeA": 256 * KB, "NodeB": 128 * KB}.get(
        comm.machine.name, 128 * KB
    )


class YHCCL:
    """The optimized collective library (Figure 4's full stack)."""

    def __init__(self, comm: Communicator, *,
                 config: Optional[YHCCLConfig] = None, priority: int = 100):
        self.comm = comm
        self.config = config or YHCCLConfig(imax=_platform_imax(comm))
        self.priority = priority
        if priority <= 0:
            raise ValueError(
                "priority<=0 disables YHCCL; instantiate MPILibrary for the "
                "fallback implementation instead"
            )

    # ---- collective operations ------------------------------------------------

    def allreduce(self, nbytes: int, *, op: str = "sum",
                  iterations: int = 1) -> CollectiveResult:
        return self._reduce_family("allreduce", nbytes, op=op,
                                   iterations=iterations)

    def reduce(self, nbytes: int, *, op: str = "sum", root: int = 0,
               iterations: int = 1) -> CollectiveResult:
        return self._reduce_family("reduce", nbytes, op=op, root=root,
                                   iterations=iterations)

    def reduce_scatter(self, nbytes: int, *, op: str = "sum",
                       iterations: int = 1) -> CollectiveResult:
        return self._reduce_family("reduce_scatter", nbytes, op=op,
                                   iterations=iterations)

    def bcast(self, nbytes: int, *, root: int = 0,
              iterations: int = 1) -> CollectiveResult:
        sel = self._select("bcast", nbytes)
        res = run_bcast_collective(
            sel.algorithm, self.comm.engine, nbytes,
            copy_policy=sel.copy_policy, imax=self.config.imax, root=root,
            iterations=iterations,
        )
        return self._wrap("bcast", nbytes, sel, res)

    def allgather(self, nbytes: int,
                  iterations: int = 1) -> CollectiveResult:
        sel = self._select("allgather", nbytes)
        res = run_allgather_collective(
            sel.algorithm, self.comm.engine, nbytes,
            copy_policy=sel.copy_policy, imax=self.config.imax,
            iterations=iterations,
        )
        return self._wrap("allgather", nbytes, sel, res)

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

        sel = self._select(kind, nbytes) if kind in ("bcast", "allgather") \
            else select(kind, nbytes, self.config, op=op)
        runner = {
            "bcast": run_bcast_collective,
            "allgather": run_allgather_collective,
        }.get(kind, run_reduce_collective)
        kw = {} if kind in ("bcast", "allgather") else {"op": op}
        p = 4 if nranks is None else nranks

        def run(eng):
            runner(sel.algorithm, eng, nbytes,
                   copy_policy=sel.copy_policy, imax=self.config.imax, **kw)

        ir = extract_program(
            run, nranks=p, label=f"{sel.algorithm.name}/{kind}",
            kind=kind, s=nbytes, machine=self.comm.machine,
        )
        ir.meta["locality"] = str(getattr(sel.algorithm, "locality", ""))
        # extract_program cannot know which Table 1-3 row models this
        # algorithm; recover it by identity from the registry so the
        # static DAV pass checks instead of skipping.  bcast/allgather
        # ("pipelined") keep "" — their formulas key on kind alone.
        from repro.library.mpi import ALGORITHMS
        for name, kinds in ALGORITHMS.items():
            if name != "pipelined" and kinds.get(kind) is sel.algorithm:
                ir.meta["dav_algorithm"] = name
                ir.meta["k"] = int(getattr(sel.algorithm, "branch", 2))
                break
        return run_passes(ir)

    def verify(self, kind: str, nbytes: int, *, op: str = "sum",
               nranks: Optional[int] = None, sanitize: bool = False,
               max_schedules: Optional[int] = None):
        """Model-check the algorithm YHCCL would select for
        ``(kind, nbytes)``.

        Where :meth:`lint` judges the schedule lifted from the one
        interleaving the engine executed, ``verify`` explores **every**
        DPOR-distinct interleaving of the selected algorithm on a
        functional twin (``nranks`` defaults to
        ``min(self.comm.nranks, 3)`` — the schedule space grows fast)
        and checks output equality, race freedom and the DAV invariant
        at each terminal state.  Returns
        a :class:`~repro.analysis.mc.VerifyCaseResult`; a failure
        carries a minimized replayable schedule certificate.
        """
        from repro.analysis.mc import DEFAULT_BUDGET, verify_program

        sel = self._select(kind, nbytes) if kind in ("bcast", "allgather") \
            else select(kind, nbytes, self.config, op=op)
        runner = {
            "bcast": run_bcast_collective,
            "allgather": run_allgather_collective,
        }.get(kind, run_reduce_collective)
        kw = {} if kind in ("bcast", "allgather") else {"op": op}
        p = min(self.comm.nranks, 3) if nranks is None else nranks

        def run(eng):
            runner(sel.algorithm, eng, nbytes,
                   copy_policy=sel.copy_policy, imax=self.config.imax, **kw)

        return verify_program(
            run, nranks=p, label=f"{sel.algorithm.name}/{kind}",
            collective=sel.algorithm.name, kind=kind, s=nbytes,
            sanitize=sanitize,
            max_schedules=(max_schedules if max_schedules is not None
                           else DEFAULT_BUDGET),
        )

    # ---- internals ---------------------------------------------------------------

    def _select(self, kind: str, nbytes: int) -> Selection:
        return select(kind, nbytes, self.config)

    def _reduce_family(self, kind: str, nbytes: int, *, op: str = "sum",
                       root: int = 0, iterations: int = 1) -> CollectiveResult:
        sel = select(kind, nbytes, self.config, op=op)
        res = run_reduce_collective(
            sel.algorithm, self.comm.engine, nbytes, op=op,
            copy_policy=sel.copy_policy, imax=self.config.imax, root=root,
            iterations=iterations,
        )
        return self._wrap(kind, nbytes, sel, res)

    def _wrap(self, kind: str, nbytes: int, sel: Selection, res
              ) -> CollectiveResult:
        return CollectiveResult(
            kind=kind,
            nbytes=nbytes,
            time=res.time,
            dav=res.traffic.dav if res.traffic else 0,
            memory_traffic=res.traffic.memory_traffic if res.traffic else 0,
            sync_count=res.sync_count,
            algorithm=sel.algorithm.name,
            copy_policy=sel.copy_policy,
            counters=Counters.from_run(res).snapshot(),
        )
