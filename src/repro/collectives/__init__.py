"""Collective algorithms: the paper's movement-avoiding designs, the
published baselines they are compared against, and vendor-MPI models.

Every algorithm is expressed as a *rank program* (a generator over a
:class:`~repro.sim.engine.RankCtx`) so that one implementation serves
both functional verification (real numpy data) and timing simulation
(virtual buffers on a machine model).  Every algorithm carries the
``kind`` of collective it implements, and
:func:`~repro.collectives.common.run_collective` runs any of them.
"""

from repro.collectives.common import (
    IMIN_DEFAULT,
    CollectiveEnv,
    compute_slice_size,
    partition,
    run_collective,
)

__all__ = [
    "CollectiveEnv",
    "compute_slice_size",
    "partition",
    "run_collective",
    "IMIN_DEFAULT",
]
