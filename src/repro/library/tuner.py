"""Collective auto-tuner: measured decision tables for the switching layer.

Production MPI libraries ship tuning tables (Open MPI's ``coll_tuned``
decision files, MVAPICH2's CVARs) choosing an algorithm per (machine,
rank count, message size).  The paper hand-tunes YHCCL's two knobs —
the small-message switch and the MA slice cap ``Imax`` (Section 5.1).
This module measures instead of guessing: it sweeps the candidate
algorithms over a size grid on the simulated machine and emits a
:class:`DecisionTable` the library can follow, plus the best ``Imax``
found for the MA designs.

    comm = Communicator(64, machine=NODE_A)
    table = Tuner(comm).tune("allreduce")
    lib = YHCCL(comm, config=table.to_config())

The tuner is also the honesty check on the hand tuning: the paper's
choices (switch at 256 KB, Imax 256 KB on NodeA) should be near what
measurement picks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.collectives.common import run_collective
from repro.collectives.dpml import (
    DPML2_ALLREDUCE,
    DPML_REDUCE,
    DPML_REDUCE_SCATTER,
)
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE, MA_REDUCE_SCATTER
from repro.collectives.socket_aware import (
    SOCKET_MA_ALLREDUCE,
    SOCKET_MA_REDUCE,
    SOCKET_MA_REDUCE_SCATTER,
)
from repro.collectives.switching import YHCCLConfig
from repro.library.communicator import Communicator
from repro.machine.spec import KB, MB

#: candidate algorithms per collective kind
CANDIDATES = {
    "allreduce": {
        "two-level-dpml": DPML2_ALLREDUCE,
        "ma": MA_ALLREDUCE,
        "socket-ma": SOCKET_MA_ALLREDUCE,
    },
    "reduce_scatter": {
        "dpml": DPML_REDUCE_SCATTER,
        "ma": MA_REDUCE_SCATTER,
        "socket-ma": SOCKET_MA_REDUCE_SCATTER,
    },
    "reduce": {
        "dpml": DPML_REDUCE,
        "ma": MA_REDUCE,
        "socket-ma": SOCKET_MA_REDUCE,
    },
}

DEFAULT_SIZES = [16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB, 16 * MB]
DEFAULT_IMAXES = [64 * KB, 128 * KB, 256 * KB, 512 * KB]


@dataclass
class DecisionEntry:
    size: int
    algorithm: str
    time: float
    runner_up: str
    margin: float  # runner-up time / winner time


@dataclass
class DecisionTable:
    """Measured routing decisions for one collective kind."""

    kind: str
    machine: str
    nranks: int
    imax: int
    entries: list = field(default_factory=list)

    def algorithm_for(self, nbytes: int) -> str:
        """Winner at the nearest measured size at or above ``nbytes``."""
        if not self.entries:
            raise ValueError("empty decision table")
        for e in self.entries:
            if nbytes <= e.size:
                return e.algorithm
        return self.entries[-1].algorithm

    def switch_size(self) -> Optional[int]:
        """Largest measured size still won by the small-message
        (DPML-family) algorithm — the empirical Section 5.1 threshold.
        ``None`` when the MA designs win everywhere."""
        last = None
        for e in self.entries:
            if "dpml" in e.algorithm:
                last = e.size
        return last

    def to_config(self) -> YHCCLConfig:
        """A YHCCLConfig following the measured decisions."""
        return YHCCLConfig(
            imax=self.imax,
            small_threshold=self.switch_size() or 0,
            socket_aware=any(
                e.algorithm == "socket-ma" for e in self.entries
            ),
        )

    def render(self) -> str:
        lines = [
            f"decision table: {self.kind} on {self.machine} "
            f"(p={self.nranks}, Imax={self.imax >> 10}KB)",
            f"{'size':>10}{'winner':>18}{'time(us)':>12}{'margin':>9}",
        ]
        for e in self.entries:
            lines.append(
                f"{e.size:>10}{e.algorithm:>18}{e.time * 1e6:>12.1f}"
                f"{e.margin:>8.2f}x"
            )
        return "\n".join(lines)


class Tuner:
    """Measure-and-pick tuner over the simulated machine."""

    def __init__(self, comm: Communicator, *, iterations: int = 2):
        if comm.machine is None:
            raise ValueError("tuning needs a machine model")
        self.comm = comm
        self.iterations = iterations

    def _fresh(self) -> Communicator:
        return Communicator(self.comm.nranks, machine=self.comm.machine,
                            functional=False)

    def _time(self, alg, nbytes: int, imax: int) -> float:
        comm = self._fresh()
        res = run_collective(
            alg, comm.engine, nbytes, copy_policy="adaptive", imax=imax,
            iterations=self.iterations,
        )
        return res.time

    def tune_imax(self, kind: str = "allreduce", *,
                  nbytes: int = 16 * MB,
                  candidates=DEFAULT_IMAXES) -> int:
        """Best MA slice cap at a representative large message."""
        alg = CANDIDATES[kind]["socket-ma"]
        best = min(candidates, key=lambda i: self._time(alg, nbytes, i))
        return best

    def tune(self, kind: str = "allreduce", *,
             sizes=DEFAULT_SIZES, imax: Optional[int] = None
             ) -> DecisionTable:
        """Full decision table for one collective kind."""
        if kind not in CANDIDATES:
            raise ValueError(
                f"no candidates for {kind!r}; tune one of "
                f"{sorted(CANDIDATES)}"
            )
        imax = imax or self.tune_imax(kind)
        table = DecisionTable(
            kind=kind, machine=self.comm.machine.name,
            nranks=self.comm.nranks, imax=imax,
        )
        for s in sizes:
            times = {
                name: self._time(alg, s, imax)
                for name, alg in CANDIDATES[kind].items()
            }
            ordered = sorted(times.items(), key=lambda kv: kv[1])
            (win, t_win), (up, t_up) = ordered[0], ordered[1]
            table.entries.append(
                DecisionEntry(size=s, algorithm=win, time=t_win,
                              runner_up=up, margin=t_up / t_win)
            )
        return table
