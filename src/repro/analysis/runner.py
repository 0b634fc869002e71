"""The analysis matrix: every registered collective as a runnable case.

The matrix mirrors the fuzz targets: every algorithm family the
package implements, each with the Theorem 3.1 row that models it.
``lint`` lifts each case into a schedule IR, ``verify`` model-checks
it and ``trace`` exports one run of it; a clean matrix means every
schedule is race-free, deadlock-free and moves exactly the bytes its
row predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.collectives.allgather import PIPELINED_ALLGATHER
from repro.collectives.bcast import PIPELINED_BCAST
from repro.collectives.common import ALIGN, run_collective
from repro.collectives.ordered import ORDERED_ALLREDUCE, ORDERED_REDUCE
from repro.collectives.vector import run_allgather_v, run_reduce_scatter_v
from repro.library.mpi import ALGORITHMS
from repro.sim.engine import Engine


@dataclass(frozen=True)
class Case:
    """One (collective, kind) cell of the analysis matrix."""

    collective: str  # matrix name, e.g. "ma", "socket_aware"
    kind: str        # reduce_scatter / allreduce / ... / allgather_v
    dav_algorithm: str  # models.dav row name, "" when no table row
    run: Callable[[Engine, int], None]
    k: int = 2       # RG tree branch, forwarded to the DAV formula
    locality: str = ""  # algorithm's placement contract ("socket" =
    # promises socket-local traffic; the static NUMA lint escalates
    # violations to errors)

    @property
    def label(self) -> str:
        return f"{self.collective}/{self.kind}"


def _runner(alg) -> Callable[[Engine, int], None]:
    """Run ``alg``; a reduction's slice cap follows ``s / p``, the
    pipelined bcast/allgather's ``s / 4``."""
    def run(eng: Engine, s: int) -> None:
        div = 4 if alg.kind in ("bcast", "allgather") else eng.nranks
        run_collective(alg, eng, s, imax=max(512, s // div))
    return run


def _ragged_counts(s: int, p: int) -> List[int]:
    """Deterministic non-uniform aligned counts summing to ``s``."""
    weights = [(i % 3) + 1 for i in range(p)]
    units = s // ALIGN
    total_w = sum(weights)
    counts = [units * w // total_w * ALIGN for w in weights]
    counts[0] += s - sum(counts)
    return counts


def _cases() -> List[Case]:
    cases: List[Case] = []
    for name, kinds in ALGORITHMS.items():
        collective = name.replace("socket-ma", "socket_aware")
        if name == "pipelined":
            continue  # bcast/allgather get explicit cases below
        for kind, alg in kinds.items():
            k = int(getattr(alg, "branch", 2))
            cases.append(Case(collective, kind, name,
                              _runner(alg), k=k,
                              locality=str(getattr(alg, "locality", ""))))
    cases.append(Case("bcast", "bcast", "", _runner(PIPELINED_BCAST)))
    cases.append(Case("allgather", "allgather", "",
                      _runner(PIPELINED_ALLGATHER)))
    cases.append(Case("ordered", "allreduce", "",
                      _runner(ORDERED_ALLREDUCE)))
    cases.append(Case("ordered", "reduce", "", _runner(ORDERED_REDUCE)))
    cases.append(Case("vector", "reduce_scatter_v", "ma", lambda eng, s:
                      run_reduce_scatter_v(eng, _ragged_counts(s,
                                           eng.nranks))))
    cases.append(Case("vector", "allgather_v", "", lambda eng, s:
                      run_allgather_v(eng, _ragged_counts(s, eng.nranks))))
    return cases


def cases(name: str = "all") -> List[Case]:
    """The analysis matrix, filtered to collective ``name`` (or all).

    Shared by ``lint``, ``verify`` and ``trace``, so the model checker
    explores exactly the programs the static passes certify.
    """
    matched = [c for c in _cases() if name == "all" or c.collective == name]
    if not matched:
        raise ValueError(
            f"unknown collective {name!r}; choose from {collectives()}"
        )
    return matched


def collectives() -> List[str]:
    """Matrix names accepted by :func:`cases`."""
    return sorted({c.collective for c in _cases()})
