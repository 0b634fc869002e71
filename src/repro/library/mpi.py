"""Vendor-MPI facade and the algorithm registry.

``MPILibrary(comm, "Open MPI")`` exposes the same five collectives as
:class:`~repro.library.yhccl.YHCCL`, backed by the vendor models of
:mod:`repro.collectives.baselines` — the uniform interface the
benchmark harness sweeps over.

``ALGORITHMS`` additionally names every individual algorithm
implementation (``"ma"``, ``"socket-ma"``, ``"ring"``, ``"dpml"``, ...)
so the per-figure benchmarks can compare algorithms directly, outside
any vendor packaging.
"""

from __future__ import annotations

from repro.collectives import baselines
from repro.collectives.allgather import PIPELINED_ALLGATHER
from repro.collectives.bcast import PIPELINED_BCAST
from repro.collectives.dpml import (
    DPML2_ALLREDUCE,
    DPML_ALLREDUCE,
    DPML_REDUCE,
    DPML_REDUCE_SCATTER,
)
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE, MA_REDUCE_SCATTER
from repro.collectives.rabenseifner import (
    RABENSEIFNER_ALLREDUCE,
    RABENSEIFNER_REDUCE_SCATTER,
)
from repro.collectives.rg import RG_ALLREDUCE, RG_REDUCE
from repro.collectives.ring import RING_ALLREDUCE, RING_REDUCE_SCATTER
from repro.collectives.socket_aware import (
    SOCKET_MA_ALLREDUCE,
    SOCKET_MA_REDUCE,
    SOCKET_MA_REDUCE_SCATTER,
)
from repro.library.communicator import Communicator
from repro.library.yhccl import CollectiveLibrary

#: name -> {kind -> algorithm}: the raw algorithm registry
ALGORITHMS = {
    "ma": {
        "reduce_scatter": MA_REDUCE_SCATTER,
        "allreduce": MA_ALLREDUCE,
        "reduce": MA_REDUCE,
    },
    "socket-ma": {
        "reduce_scatter": SOCKET_MA_REDUCE_SCATTER,
        "allreduce": SOCKET_MA_ALLREDUCE,
        "reduce": SOCKET_MA_REDUCE,
    },
    "ring": {
        "reduce_scatter": RING_REDUCE_SCATTER,
        "allreduce": RING_ALLREDUCE,
    },
    "rabenseifner": {
        "reduce_scatter": RABENSEIFNER_REDUCE_SCATTER,
        "allreduce": RABENSEIFNER_ALLREDUCE,
    },
    "dpml": {
        "reduce_scatter": DPML_REDUCE_SCATTER,
        "allreduce": DPML_ALLREDUCE,
        "reduce": DPML_REDUCE,
    },
    "dpml2": {"allreduce": DPML2_ALLREDUCE},
    "rg": {"allreduce": RG_ALLREDUCE, "reduce": RG_REDUCE},
    "pipelined": {"bcast": PIPELINED_BCAST, "allgather": PIPELINED_ALLGATHER},
}


def implementations() -> list[str]:
    """Names accepted by :class:`MPILibrary` (the Figure 15 baselines)."""
    return sorted(baselines.make_vendor_suites().keys())


class MPILibrary(CollectiveLibrary):
    """A vendor MPI implementation's collectives on the simulated node."""

    def __init__(self, comm: Communicator, vendor: str, *,
                 imax: int = 1024 * 1024):
        suites = baselines.make_vendor_suites()
        if vendor not in suites:
            raise ValueError(
                f"unknown vendor {vendor!r}; choose from {sorted(suites)}"
            )
        self.comm = comm
        self.vendor = vendor
        self.suite = suites[vendor]
        self.imax = imax

    def _choose(self, kind: str, nbytes: int, op: str):
        if kind not in self.suite:
            raise ValueError(f"{self.vendor} model lacks {kind}")
        return self.suite[kind]
