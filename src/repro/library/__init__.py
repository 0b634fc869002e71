"""YHCCL public API: communicators, the collective library facade, the
vendor-MPI selector and the PMPI-style profiler.

This is the layer a downstream user programs against::

    from repro.library import Communicator, YHCCL
    from repro.machine import NODE_A

    comm = Communicator(nranks=64, machine=NODE_A)
    lib = YHCCL(comm)
    result = lib.allreduce(nbytes=16 << 20)
    print(result.time, result.dav)

The :class:`~repro.library.mpi.MPILibrary` facade exposes the same five
collectives backed by any vendor model (``"Open MPI"``, ``"Intel MPI"``,
``"MVAPICH2"``, ``"MPICH"``, ``"XPMEM"``) or by a single named algorithm,
so benchmark code can sweep implementations uniformly.
"""

from repro.library.communicator import Communicator
from repro.library.yhccl import YHCCL, CollectiveResult
from repro.library.mpi import MPILibrary, ALGORITHMS, implementations
from repro.library.hierarchy import (
    BestOfStage,
    GroupedLeafStage,
    Hierarchy,
    HierarchyResult,
    ImplementationPolicy,
    LeafStage,
    NetworkStage,
    RabenseifnerStage,
    RingStage,
    SizeSwitchStage,
    Stage,
    StageResult,
    TreeAllreduceStage,
    allreduce_hierarchy,
    allreduce_stages,
    hierarchy_for_topology,
    implementation_policy,
    pipeline_chunks,
    vendor_network_stage,
)
from repro.library.profiler import Profiler

__all__ = [
    "Communicator",
    "YHCCL",
    "CollectiveResult",
    "MPILibrary",
    "ALGORITHMS",
    "implementations",
    "Profiler",
    "Stage",
    "StageResult",
    "LeafStage",
    "GroupedLeafStage",
    "NetworkStage",
    "RingStage",
    "TreeAllreduceStage",
    "RabenseifnerStage",
    "BestOfStage",
    "SizeSwitchStage",
    "Hierarchy",
    "HierarchyResult",
    "ImplementationPolicy",
    "implementation_policy",
    "pipeline_chunks",
    "allreduce_stages",
    "allreduce_hierarchy",
    "vendor_network_stage",
    "hierarchy_for_topology",
]
