"""Composable hierarchical collectives: the one multi-node model.

A cluster-scale collective is a stack of *stages*: any shared-memory
algorithm (the MA designs, socket-aware MA, the vendor baselines) runs
as a **leaf stage** on each node, under any pluggable **network stage**
(ring, binomial tree, Rabenseifner reduce-scatter+allgather, and their
multi-lane variants) exchanging across nodes — the explicit hierarchy
the hybrid MPI+MPI literature argues for (Zhou et al.,
arXiv:2007.06892; MPI Advance, arXiv:2309.07337):

* every level is a :class:`Stage` whose ``evaluate`` is pure: it
  prices *its* level (time, DAV-style byte counts, inter-node traffic)
  as a :class:`StageResult` and records nothing — a
  :class:`BestOfStage` prices every candidate and returns only the
  winner's result,
* the :class:`Hierarchy` composes levels, optionally as a segmented
  pipeline, into a :class:`HierarchyResult` — the one traffic ledger:
  its ``repro-hier/1`` document's network totals are the sums of the
  per-level results it keeps.

The segmented pipeline (Section 5.5 of the paper) overlaps chunk k's
inter-node exchange with chunk k+1's intra-node phase.  Chunking is
modelled honestly: a network stage is re-costed at the chunk size, so
its latency terms and message counts scale with the chunk count, while
leaf stages — bandwidth-bound on the node's memory system — divide
their full-message time across chunks; :func:`pipeline_chunks`
decides when to pipeline.  ``Hierarchy.run(skews=)`` models per-node
start skew (stragglers).

:func:`allreduce_stages` builds the two standard two-level instances:
the paper's *partition* hierarchy (MA reduce-scatter -> multi-lane ring
-> MA allgather) and the *leader* hierarchy vendors use on InfiniBand
(node reduce -> single-lane tree/ring exchange -> node bcast), with
:func:`implementation_policy` mapping implementation names onto them.
:func:`allreduce_hierarchy` assembles a whole hierarchy from a node
library (any machine model); :func:`hierarchy_for_topology` from a
:class:`~repro.machine.network.Topology`, including heterogeneous
NodeA/NodeB groups gated on the slowest group.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.library.communicator import Communicator
from repro.library.mpi import MPILibrary
from repro.library.yhccl import YHCCL
from repro.machine.network import Network, NetworkCost, Topology
from repro.machine.spec import PRESETS

#: schema tag of the per-level breakdown document
HIER_SCHEMA = "repro-hier/1"

#: message-size threshold of the vendor tree-vs-ring switch
VENDOR_TREE_CUTOFF = 256 * 1024


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for non-negative partition arithmetic."""
    return -(-a // b)


# ---------------------------------------------------------------------------
# Per-stage results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageResult:
    """One level's contribution to a hierarchical collective.

    ``time`` is the level's total across all pipeline chunks;
    ``chunk_time`` the steady-state per-chunk time the pipeline
    composition uses.  ``bytes_on_wire`` / ``messages`` are the
    inter-node traffic this level carries (zero for leaf stages);
    ``dav`` / ``memory_traffic`` the node-local byte counts a leaf
    reports (zero for network stages).
    """

    name: str
    level: str  # "intra" | "inter"
    time: float
    chunk_time: float
    nbytes: int
    chunks: int = 1
    algorithm: str = ""
    dav: int = 0
    memory_traffic: int = 0
    bytes_on_wire: int = 0
    messages: int = 0
    steps: int = 0

    def to_doc(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HierarchyResult:
    """Composed outcome with per-level breakdown and counter roll-up.

    ``skew`` is the start delay of a skewed run (the largest per-node
    skew, already included in ``time``); ``None`` for unskewed runs.
    """

    name: str
    nbytes: int
    nnodes: int
    nranks: int
    chunks: int
    time: float
    stages: Tuple[StageResult, ...]
    topology: Optional[dict] = None
    skew: Optional[float] = None

    @property
    def pipelined(self) -> bool:
        return self.chunks > 1

    @property
    def intra_time(self) -> float:
        return sum(s.time for s in self.stages if s.level == "intra")

    @property
    def inter_time(self) -> float:
        return sum(s.time for s in self.stages if s.level == "inter")

    @property
    def network_bytes(self) -> int:
        return sum(s.bytes_on_wire for s in self.stages)

    @property
    def network_messages(self) -> int:
        return sum(s.messages for s in self.stages)

    @property
    def dav(self) -> int:
        return sum(s.dav for s in self.stages)

    @property
    def time_us(self) -> float:
        return self.time * 1e6

    def to_doc(self) -> dict:
        """``repro-hier/1``: per-level breakdown plus totals.

        ``network.bytes_sent`` / ``network.messages`` are the sums of
        the per-level traffic by construction — consumers can (and the
        tests do) verify the roll-up.
        """
        doc = {
            "schema": HIER_SCHEMA,
            "name": self.name,
            "nbytes": self.nbytes,
            "nnodes": self.nnodes,
            "nranks": self.nranks,
            "chunks": self.chunks,
            "pipelined": self.pipelined,
            "time": self.time,
            "intra_time": self.intra_time,
            "inter_time": self.inter_time,
            "levels": [s.to_doc() for s in self.stages],
            "network": {
                "bytes_sent": self.network_bytes,
                "messages": self.network_messages,
            },
            "dav": self.dav,
        }
        if self.topology is not None:
            doc["topology"] = self.topology
        if self.skew is not None:
            doc["skew"] = self.skew
        return doc


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class Stage:
    """One level of a hierarchical collective.

    ``evaluate`` is pure — it prices the level and records nothing —
    so the hierarchy (or a :class:`BestOfStage`) can price
    alternatives and keep only the result that runs.
    """

    name: str = "stage"
    level: str = "intra"

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        raise NotImplementedError


class LeafStage(Stage):
    """A node-local collective phase.

    ``op`` is any callable returning an object with a ``time`` attribute
    (the library facades' ``CollectiveResult`` fits); ``sizer`` maps the
    hierarchy's message size to this phase's size — e.g. the trailing
    allgather of the partition hierarchy runs at ``ceil(nbytes / p)``
    per rank.  Leaf phases are bandwidth-bound on the node's memory
    system, so a pipeline chunk costs ``time / chunks``.
    """

    level = "intra"

    def __init__(self, name: str, op: Callable[[int], object], *,
                 sizer: Optional[Callable[[int], int]] = None,
                 algorithm: str = ""):
        self.name = name
        self._op = op
        self._sizer = sizer or (lambda n: n)
        self._algorithm = algorithm

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        size = self._sizer(nbytes)
        res = self._op(size)
        time = float(res.time)
        return StageResult(
            name=self.name,
            level=self.level,
            time=time,
            chunk_time=time / chunks,
            nbytes=size,
            chunks=chunks,
            algorithm=self._algorithm or getattr(res, "algorithm", ""),
            dav=int(getattr(res, "dav", 0) or 0),
            memory_traffic=int(getattr(res, "memory_traffic", 0) or 0),
        )


class GroupedLeafStage(Stage):
    """A node-local phase across heterogeneous node groups.

    Every group runs its own leaf concurrently; the level completes when
    the slowest group does (the inter-node exchange gates on it), so
    ``time`` is the max over children while the byte counts sum across
    the per-group reports.
    """

    level = "intra"

    def __init__(self, name: str, children: Sequence[LeafStage]):
        if not children:
            raise ValueError("a grouped stage needs at least one child")
        self.name = name
        self.children = tuple(children)

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        parts = [c.evaluate(nbytes, chunks) for c in self.children]
        slowest = max(parts, key=lambda r: r.time)
        return StageResult(
            name=self.name,
            level=self.level,
            time=slowest.time,
            chunk_time=slowest.chunk_time,
            nbytes=slowest.nbytes,
            chunks=chunks,
            algorithm=slowest.algorithm,
            dav=sum(p.dav for p in parts),
            memory_traffic=sum(p.memory_traffic for p in parts),
        )


class NetworkStage(Stage):
    """Base for inter-node exchange stages over a shared :class:`Network`.

    Subclasses implement :meth:`cost` (pure).  Pipelining re-costs the
    exchange at the chunk size and scales it by the chunk count, so
    latency terms, bytes and message counts all grow with chunking —
    exactly what a segmented ring pays on a real fabric.
    """

    level = "inter"

    def __init__(self, name: str, net: Network, nnodes: int):
        if nnodes < 1:
            raise ValueError("need at least one node")
        self.name = name
        self.net = net
        self.nnodes = nnodes

    def cost(self, nbytes: int) -> NetworkCost:
        raise NotImplementedError

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        if chunks <= 1:
            per = total = self.cost(nbytes)
        else:
            per = self.cost(ceil_div(nbytes, chunks))
            total = per.scaled(chunks)
        return StageResult(
            name=self.name,
            level=self.level,
            time=total.time,
            chunk_time=per.time,
            nbytes=nbytes,
            chunks=chunks,
            algorithm=self.name,
            bytes_on_wire=total.bytes_on_wire,
            messages=total.messages,
            steps=total.steps,
        )


class RingStage(NetworkStage):
    """Ring allreduce across nodes; ``lanes`` concurrent senders per
    node (the paper's multi-lane design uses one lane per rank)."""

    def __init__(self, net: Network, nnodes: int, *, lanes: int = 1):
        super().__init__(f"ring-{lanes}lane" if lanes > 1 else "ring",
                         net, nnodes)
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.lanes = lanes

    def cost(self, nbytes: int) -> NetworkCost:
        return self.net.ring_allreduce_cost(nbytes, self.nnodes,
                                            concurrent_procs=self.lanes)


class TreeAllreduceStage(NetworkStage):
    """Binomial reduce+bcast across node leaders (single lane)."""

    def __init__(self, net: Network, nnodes: int):
        super().__init__("tree", net, nnodes)

    def cost(self, nbytes: int) -> NetworkCost:
        return self.net.tree_allreduce_cost(nbytes, self.nnodes)


class RabenseifnerStage(NetworkStage):
    """Recursive-halving RS + recursive-doubling AG across nodes."""

    def __init__(self, net: Network, nnodes: int, *, lanes: int = 1):
        super().__init__("rabenseifner", net, nnodes)
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.lanes = lanes

    def cost(self, nbytes: int) -> NetworkCost:
        return self.net.rabenseifner_allreduce_cost(
            nbytes, self.nnodes, concurrent_procs=self.lanes)


class BestOfStage(Stage):
    """Price every candidate exchange and return only the fastest
    one's result (the first on a tie), so the road not taken never
    reaches the traffic totals."""

    level = "inter"

    def __init__(self, children: Sequence[NetworkStage], *,
                 name: str = "best-of"):
        if not children:
            raise ValueError("need at least one candidate stage")
        self.children = tuple(children)
        self.name = name

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        return min((c.evaluate(nbytes, chunks) for c in self.children),
                   key=lambda r: r.time)


class SizeSwitchStage(Stage):
    """Static vendor-style switch: ``small`` exchange up to and
    including ``threshold`` bytes, ``large`` above it."""

    level = "inter"

    def __init__(self, small: NetworkStage, large: NetworkStage, *,
                 threshold: int = VENDOR_TREE_CUTOFF, name: str = ""):
        self.small = small
        self.large = large
        self.threshold = threshold
        self.name = name or f"{small.name}<={threshold}<{large.name}"

    def _pick(self, nbytes: int) -> NetworkStage:
        return self.small if nbytes <= self.threshold else self.large

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        return self._pick(nbytes).evaluate(nbytes, chunks)


# ---------------------------------------------------------------------------
# Hierarchy composition
# ---------------------------------------------------------------------------


class Hierarchy:
    """A stack of stages executed as one collective.

    ``run`` evaluates every level and composes the times: serially for
    ``chunks=1``, as a ``chunks``-deep software pipeline otherwise
    (``T = sum(chunk times) + (chunks-1) * max(chunk time)`` — fill
    plus steady state on the bottleneck stage).  It keeps no state
    between runs: the returned :class:`HierarchyResult` is the run's
    whole record, traffic included.
    """

    def __init__(self, stages: Sequence[Stage], *, name: str = "hierarchy",
                 nnodes: int = 1, nranks: int = 0,
                 topology: Optional[Topology] = None):
        if not stages:
            raise ValueError("a hierarchy needs at least one stage")
        self.stages = tuple(stages)
        self.name = name
        self.topology = topology
        if topology is not None:
            nnodes = topology.nnodes
            nranks = topology.nranks
        self.nnodes = nnodes
        self.nranks = nranks

    def run(self, nbytes: int, *, chunks: int = 1,
            skews: Optional[Sequence[float]] = None) -> HierarchyResult:
        """Run one collective of ``nbytes``.

        ``skews`` gives each node's start delay in seconds (one entry
        per node, all non-negative).  Every inter-node stage gates
        bulk-synchronously on its slowest participant, so the straggler
        delays the whole collective by ``max(skews)``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if chunks < 1:
            raise ValueError("need at least one chunk")
        skew = None
        if skews is not None:
            if len(skews) != self.nnodes:
                raise ValueError(f"need {self.nnodes} skews")
            if any(s < 0 for s in skews):
                raise ValueError("skews must be non-negative")
            skew = float(max(skews))
        results = [s.evaluate(nbytes, chunks) for s in self.stages]
        if chunks == 1:
            # group by level so the two-level total matches the legacy
            # intra + inter float-summation order bitwise
            intra = sum(r.time for r in results if r.level == "intra")
            inter = sum(r.time for r in results if r.level == "inter")
            time = intra + inter
        else:
            chunk_times = [r.chunk_time for r in results]
            time = sum(chunk_times) + (chunks - 1) * max(chunk_times)
        if skew is not None:
            time += skew
        return HierarchyResult(
            name=self.name,
            nbytes=nbytes,
            nnodes=self.nnodes,
            nranks=self.nranks,
            chunks=chunks,
            time=time,
            stages=tuple(results),
            topology=self.topology.describe() if self.topology else None,
            skew=skew,
        )


# ---------------------------------------------------------------------------
# Standard two-level builders
# ---------------------------------------------------------------------------

#: leaf collective kinds (before, after the exchange) of each mode
MODE_KINDS: Dict[str, Tuple[str, str]] = {
    "partition": ("reduce_scatter", "allgather"),
    "leader": ("reduce", "bcast"),
}

#: chunk count of the partition hierarchy's segmented pipeline
PIPELINE_CHUNKS = 4


def pipeline_chunks(mode: str, nnodes: int, nbytes: int) -> int:
    """The chunk count one allreduce runs with (Section 5.5).

    Only the partition hierarchy pipelines, only across more than one
    node, and only bandwidth-bound messages (``>= 4 MiB``): chunking a
    latency-bound message just multiplies its latency terms.  Chunk k's
    inter-node exchange then overlaps chunk k+1's intra-node phase.
    """
    if (mode == "partition" and nnodes > 1
            and nbytes >= PIPELINE_CHUNKS * (1 << 20)):
        return PIPELINE_CHUNKS
    return 1


@dataclass(frozen=True)
class ImplementationPolicy:
    """What an implementation name means for the two-level stack:
    the node model backing the leaves (``vendor``), the default
    ``mode`` and whether the leader exchange probes ``adaptive``-ly."""

    vendor: str
    mode: str
    adaptive: bool

    def library(self, comm: Communicator) -> object:
        """The node-local collective library of this implementation."""
        if self.vendor == "YHCCL":
            return YHCCL(comm)
        return MPILibrary(comm, self.vendor)


def implementation_policy(implementation: str) -> ImplementationPolicy:
    """Resolve ``"YHCCL"`` or a vendor name.

    YHCCL runs the partition hierarchy on its own library; vendors run
    the leader hierarchy on their node model.  ``"OMPI-hcoll"`` is the
    Open MPI node model under hcoll's adaptive tree-vs-ring probe.
    """
    if implementation == "YHCCL":
        return ImplementationPolicy("YHCCL", "partition", False)
    hcoll = implementation == "OMPI-hcoll"
    return ImplementationPolicy("Open MPI" if hcoll else implementation,
                                "leader", hcoll)


def vendor_network_stage(net: Network, nnodes: int, *,
                         adaptive: bool = False) -> Stage:
    """The single-lane exchange vendors run between node leaders.

    ``adaptive`` models hcoll's runtime probe (price tree and ring,
    take the min); the static variant switches at the 256 KiB message
    size Intel MPI / MVAPICH2 / MPICH use.
    """
    tree = TreeAllreduceStage(net, nnodes)
    ring = RingStage(net, nnodes, lanes=1)
    if adaptive:
        return BestOfStage((tree, ring), name="tree|ring")
    return SizeSwitchStage(tree, ring)


#: inter-node exchanges selectable by name, as ``(net, nnodes, lanes)``
#: factories; the binomial tree is single-lane and ignores ``lanes``
EXCHANGES: Dict[str, Callable[[Network, int, int], NetworkStage]] = {
    "ring": lambda net, n, lanes: RingStage(net, n, lanes=lanes),
    "tree": lambda net, n, lanes: TreeAllreduceStage(net, n),
    "rabenseifner": lambda net, n, lanes: RabenseifnerStage(
        net, n, lanes=lanes),
}


def _two_level(groups: Sequence[Tuple[str, int, object]], *, net: Network,
               nnodes: int, mode: str, lanes: Optional[int], exchange: str,
               adaptive: bool) -> List[Stage]:
    """The stage stack of ``mode`` over ``(name, ranks_per_node, lib)``
    node groups."""
    if mode not in MODE_KINDS:
        raise ValueError(f"unknown hierarchy mode: {mode!r}")
    if exchange and exchange not in EXCHANGES:
        raise ValueError(f"unknown exchange stage: {exchange!r}")
    if any(p < 1 for _, p, _ in groups):
        raise ValueError("need at least one rank per node")
    partition = mode == "partition"
    if lanes is None:
        # every node must sustain the lane count, so the smallest
        # group's rank count bounds the partition hierarchy's lanes
        lanes = min(p for _, p, _ in groups) if partition else 1
    if exchange or partition:
        middle = EXCHANGES[exchange or "ring"](net, nnodes, lanes)
    else:
        middle = vendor_network_stage(net, nnodes, adaptive=adaptive)

    def leaf(kind: str) -> Stage:
        children = [
            LeafStage(
                f"{kind}@{name}" if len(groups) > 1 else kind,
                getattr(lib, kind),
                # every rank gathers its ceil-division partition; the
                # last partition may be ragged but no rank gathers more
                # than ceil(nbytes / p), and p * ceil(nbytes / p) >= nbytes
                sizer=(lambda n, p=p: ceil_div(n, p) if n else 0)
                if partition and kind == "allgather" else None,
            )
            for name, p, lib in groups
        ]
        if len(children) == 1:
            return children[0]
        return GroupedLeafStage(kind, children)

    before, after = MODE_KINDS[mode]
    return [leaf(before), middle, leaf(after)]


def allreduce_stages(lib: object, *, net: Network, nnodes: int,
                     nranks_per_node: int, mode: str = "partition",
                     lanes: Optional[int] = None, exchange: str = "",
                     adaptive: bool = False) -> List[Stage]:
    """Build the standard two-level allreduce stage stack.

    ``mode="partition"`` is the paper's hierarchy: MA reduce-scatter,
    multi-lane inter-node ring over the scattered partitions (one lane
    per rank unless ``lanes`` overrides), MA allgather of
    ``ceil(nbytes / p)`` per rank.  ``mode="leader"`` is the vendor
    hierarchy: node reduce, single-lane leader exchange (the tree/ring
    switch, or hcoll's probe when ``adaptive``), node bcast.
    ``exchange`` names an :data:`EXCHANGES` entry replacing the mode's
    native exchange.

    ``lib`` supplies the leaf collectives: any object with the
    :class:`~repro.library.yhccl.YHCCL` facade's method names for the
    mode's two kinds (the bench layer passes compiled-replay leaves).
    """
    return _two_level([("", nranks_per_node, lib)], net=net, nnodes=nnodes,
                      mode=mode, lanes=lanes, exchange=exchange,
                      adaptive=adaptive)


def allreduce_hierarchy(lib: object, nnodes: int, *,
                        implementation: str = "YHCCL") -> Hierarchy:
    """The ``implementation``'s two-level allreduce over ``nnodes``
    identical nodes on the default fabric, whose leaves run on ``lib``
    — the node library an application already holds (``YHCCL(comm)``
    / ``MPILibrary(comm, vendor)``), on any machine model, preset or
    not."""
    policy = implementation_policy(implementation)
    p = lib.comm.nranks
    stages = allreduce_stages(lib, net=Network(), nnodes=nnodes,
                              nranks_per_node=p, mode=policy.mode,
                              adaptive=policy.adaptive)
    return Hierarchy(stages, name=implementation, nnodes=nnodes,
                     nranks=nnodes * p)


def hierarchy_for_topology(topology: Topology, *,
                           implementation: str = "YHCCL",
                           mode: Optional[str] = None,
                           lanes: Optional[int] = None,
                           exchange: str = "",
                           adaptive: Optional[bool] = None) -> Hierarchy:
    """Assemble a two-level hierarchy for a whole cluster topology.

    Homogeneous topologies get plain leaf stages; heterogeneous ones a
    :class:`GroupedLeafStage` per phase, gated on the slowest group.
    The exchange defaults to the implementation's native choice —
    multi-lane ring for YHCCL (lanes = the *smallest* group's rank
    count, since every node must sustain that concurrency), the
    tree/ring leader switch for vendors — and ``exchange`` names an
    :data:`EXCHANGES` override.
    """
    policy = implementation_policy(implementation)
    mode = mode or policy.mode
    groups = [
        (g.machine, g.ranks_per_node, policy.library(
            Communicator(g.ranks_per_node, machine=PRESETS[g.machine],
                         functional=False)))
        for g in topology.groups
    ]
    stages = _two_level(
        groups, net=Network(topology.network), nnodes=topology.nnodes,
        mode=mode, lanes=lanes, exchange=exchange,
        adaptive=policy.adaptive if adaptive is None else adaptive)
    return Hierarchy(stages, name=f"{implementation}-{mode}",
                     topology=topology)


# re-exported for convenience alongside the stage classes
__all__ = [
    "HIER_SCHEMA",
    "VENDOR_TREE_CUTOFF",
    "MODE_KINDS",
    "PIPELINE_CHUNKS",
    "EXCHANGES",
    "ceil_div",
    "StageResult",
    "HierarchyResult",
    "Stage",
    "LeafStage",
    "GroupedLeafStage",
    "NetworkStage",
    "RingStage",
    "TreeAllreduceStage",
    "RabenseifnerStage",
    "BestOfStage",
    "SizeSwitchStage",
    "Hierarchy",
    "ImplementationPolicy",
    "implementation_policy",
    "pipeline_chunks",
    "vendor_network_stage",
    "allreduce_stages",
    "allreduce_hierarchy",
    "hierarchy_for_topology",
]
