"""Per-implementation runner factories for the benchmark sweeps.

A *cell* runner is ``fn(comm, nbytes) -> CellResult`` (simulated time,
DAV and the algorithm that ran).

The tuning mirrors Section 5.3: MA slice caps of 256 KB (NodeA) /
128 KB (NodeB), DPML's 8 KB reduction block, RG with branch 2 and
128 KB slices; the published baselines run with ``memmove`` copies
(their implementations' store path), the YHCCL designs with the
adaptive copy unless a specific policy is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collectives.common import run_collective
from repro.collectives.switching import platform_imax

#: steady-state measurement: warm-up iteration + measured iteration,
#: mirroring the paper's OSU-style loops
ITERATIONS = 2


@dataclass(frozen=True)
class CellResult:
    """Outcome of one sweep cell: one (impl, size) point."""

    time: float
    dav: int
    algorithm: str
    #: per-rank counter snapshot (``repro-obs/1``); ``None`` only for
    #: results reconstructed from pre-counter cache entries
    counters: Optional[dict] = None


def resolve_imax(imax: Optional[int], machine) -> int:
    """Resolve an explicit or per-platform slice cap.

    Only ``None`` selects the platform default — an explicit ``imax=0``
    (or any non-positive cap) is a configuration error, not a request
    for the default, and is rejected rather than silently replaced.
    """
    if imax is None:
        return platform_imax(machine)
    if not isinstance(imax, int) or isinstance(imax, bool):
        raise ValueError(f"imax must be an int or None, got {imax!r}")
    if imax <= 0:
        raise ValueError(f"imax must be positive, got {imax}")
    return imax


def _cell(res, algorithm: str) -> CellResult:
    from repro.obs.counters import Counters

    return CellResult(
        time=res.time,
        dav=res.traffic.dav if res.traffic is not None else 0,
        algorithm=algorithm,
        counters=Counters.from_run(res).snapshot(),
    )


def algorithm_cell(alg, policy: str = "memmove",
                   imax: Optional[int] = None, root: int = 0):
    """Directly drive one algorithm (of any kind)."""

    def run(comm, nbytes) -> CellResult:
        res = run_collective(
            alg, comm.engine, nbytes, copy_policy=policy,
            imax=resolve_imax(imax, comm.machine), root=root,
            iterations=ITERATIONS,
        )
        return _cell(res, alg.name)

    return run


def yhccl_cell(kind: str):
    """The full YHCCL stack (switching + socket-aware MA + adaptive copy)."""

    def run(comm, nbytes) -> CellResult:
        from repro.library.yhccl import YHCCL

        res = getattr(YHCCL(comm), kind)(nbytes, iterations=ITERATIONS)
        return CellResult(time=res.time, dav=res.dav,
                          algorithm=res.algorithm, counters=res.counters)

    return run


def vendor_cell(vendor: str, kind: str):
    def run(comm, nbytes) -> CellResult:
        from repro.library.mpi import MPILibrary

        res = getattr(MPILibrary(comm, vendor), kind)(
            nbytes, iterations=ITERATIONS
        )
        return CellResult(time=res.time, dav=res.dav,
                          algorithm=res.algorithm, counters=res.counters)

    return run
