"""MiniAMR: a 3-D stencil mini-app with adaptive mesh refinement.

A faithful-in-structure miniature of the ECP MiniAMR proxy (Figure 17's
workload): each rank owns a set of blocks; every timestep applies a
7-point stencil sweep to each block, a synthetic object moves through
the domain triggering block refinement/coarsening, and refinement
bookkeeping is agreed on with **allreduce** operations whose message
length is proportional to the number of refinements — the large-message
allreduce that dominates the app's communication (the paper runs
``--num_refine 40000``).

The stencil and refinement logic are real (numpy blocks, checksummed in
the tests); communication costs come from the simulated collective
library, and compute time from a calibrated flop model.  Identical
allreduce calls are timed once per (size, implementation, node-count)
and multiplied — the calls are bitwise-identical workloads, so this is
exact for the timing model while keeping quarter-million-call runs
tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.library.communicator import Communicator
from repro.library.hierarchy import (
    allreduce_hierarchy,
    implementation_policy,
    pipeline_chunks,
)

#: effective per-core stencil throughput (flops/s); with the default
#: workload (8^3 blocks, 40 variables, one sweep per refinement step)
#: this puts the single-node compute near Figure 17's ~20 s.
STENCIL_FLOPS_PER_CORE = 2.0e9
STENCIL_FLOPS_PER_CELL = 8.0  # 7-point stencil: 6 adds + 1 multiply + store


@dataclass
class MiniAMRConfig:
    """Workload shape, defaulting to the paper's artifact settings
    (``--num_refine 40000 --num_tsteps 20 --refine_freq 1``)."""

    block_size: int = 8  # cells per block edge (MiniAMR default scale)
    blocks_per_rank: int = 8
    num_vars: int = 40  # MiniAMR's default variable count
    num_refine: int = 40000
    num_tsteps: int = 20
    refine_freq: int = 1
    #: allreduce payload per refinement entry (refine counters, float64)
    bytes_per_refine: int = 8
    #: refinement events carried out with real block logic (the rest are
    #: statistically identical; compute time scales by the true count)
    simulated_refines: int = 200

    def allreduce_bytes(self, nnodes: int = 1) -> int:
        """Message length of the refinement allreduce.

        Proportional to the refinement count, and — because the runs
        weak-scale (``srun -N 64 -n 4096``) — to the node count: the
        bookkeeping vector covers the *global* block population.
        """
        return max(8, self.bytes_per_refine * self.num_refine) * max(1, nnodes)


@dataclass
class MiniAMRResult:
    total_time: float
    compute_time: float
    comm_time: float
    nnodes: int
    implementation: str
    refined_blocks: int
    checksum: float

    @property
    def comm_fraction(self) -> float:
        return self.comm_time / self.total_time if self.total_time else 0.0


class _Block:
    """One mesh block: a cubic cell array plus refinement level."""

    __slots__ = ("cells", "level", "center")

    def __init__(self, n: int, level: int, center, rng):
        self.cells = rng.random((n, n, n))
        self.level = level
        self.center = np.asarray(center, dtype=float)

    def stencil_sweep(self) -> None:
        """One 7-point stencil relaxation (vectorized, periodic faces)."""
        c = self.cells
        out = c.copy()
        for axis in range(3):
            out += np.roll(c, 1, axis=axis) + np.roll(c, -1, axis=axis)
        self.cells = out / 7.0

    def checksum(self) -> float:
        return float(self.cells.sum())


class MiniAMR:
    """Run the mini-app against one collective implementation.

    ``implementation`` is ``"YHCCL"`` or a vendor name (Figure 17 uses
    the Open MPI default); ``nnodes`` scales the run across identical
    nodes through the hierarchical allreduce model.
    """

    def __init__(self, comm: Communicator, config: Optional[MiniAMRConfig] = None,
                 *, implementation: str = "YHCCL", nnodes: int = 1,
                 seed: int = 7):
        self.comm = comm
        self.config = config or MiniAMRConfig()
        self.implementation = implementation
        self.nnodes = nnodes
        self.rng = np.random.default_rng(seed)
        n = self.config.block_size
        self.blocks = [
            _Block(n, 0, self.rng.random(3), self.rng)
            for _ in range(self.config.blocks_per_rank)
        ]
        self._object_pos = np.array([0.1, 0.1, 0.1])
        self.refined = 0

    # ---- refinement logic -------------------------------------------------

    def _move_object(self) -> None:
        self._object_pos = (self._object_pos + 0.037) % 1.0

    def _refine_step(self) -> int:
        """Refine blocks the object touches, coarsen the rest; returns
        the number of refinement events this step."""
        events = 0
        n = self.config.block_size
        new_blocks = []
        for blk in self.blocks:
            d = np.linalg.norm(blk.center - self._object_pos)
            if d < 0.25 and blk.level < 3:
                # split into two child blocks (abbreviated octree)
                for delta in (-0.05, 0.05):
                    child = _Block(n, blk.level + 1, blk.center + delta,
                                   self.rng)
                    # children inherit a coarse restriction of the parent
                    child.cells[:] = blk.cells.mean()
                    new_blocks.append(child)
                events += 1
            elif d > 0.6 and blk.level > 0:
                blk.level -= 1
                new_blocks.append(blk)
                events += 1
            else:
                new_blocks.append(blk)
        # keep the population bounded like the real app's load balancer
        self.blocks = new_blocks[: 4 * self.config.blocks_per_rank]
        self.refined += events
        return events

    # ---- timing model ------------------------------------------------------

    def _sweep_time(self) -> float:
        """One stencil sweep over this rank's base block budget.

        Uses the configured block count (not the instantaneous refined
        population) so the aggregate compute estimate is deterministic;
        the load balancer keeps per-rank work near this budget anyway.
        """
        cells = self.config.blocks_per_rank * self.config.block_size ** 3
        flops = cells * self.config.num_vars * STENCIL_FLOPS_PER_CELL
        return flops / STENCIL_FLOPS_PER_CORE  # one sweep per core

    def run(self) -> MiniAMRResult:
        cfg = self.config
        # one representative allreduce timing per implementation; the
        # refinement allreduces are bitwise-identical workloads, so one
        # simulation per size is exact for the timing model
        policy = implementation_policy(self.implementation)
        hier = allreduce_hierarchy(policy.library(self.comm), self.nnodes,
                                   implementation=self.implementation)

        def allreduce(nbytes: int):
            return hier.run(nbytes, chunks=pipeline_chunks(
                policy.mode, self.nnodes, nbytes))

        ar = allreduce(cfg.allreduce_bytes(self.nnodes))
        # small per-step consistency allreduce (counters)
        ar_small = allreduce(1024)

        comm = 0.0
        # real refinement/stencil logic runs for `simulated_refines`
        # events; compute time scales with the true refinement count
        # (one sweep between consecutive refinement steps).
        refine_rounds = max(1, cfg.simulated_refines // max(1, cfg.num_tsteps))
        for _ in range(cfg.num_tsteps):
            for blk in self.blocks:
                blk.stencil_sweep()
            for _ in range(refine_rounds):
                self._move_object()
                self._refine_step()
            comm += ar_small.time
        refine_steps = cfg.num_refine // max(1, cfg.refine_freq)
        compute = refine_steps * self._sweep_time()
        # refinement-driven allreduce: one call per refinement step
        # (the paper's dominant large-message traffic)
        comm += refine_steps * ar.time
        checksum = float(sum(b.checksum() for b in self.blocks))
        return MiniAMRResult(
            total_time=compute + comm,
            compute_time=compute,
            comm_time=comm,
            nnodes=self.nnodes,
            implementation=self.implementation,
            refined_blocks=self.refined,
            checksum=checksum,
        )
