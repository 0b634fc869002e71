"""Alpha-beta model of the inter-node interconnect.

The multi-node experiments (Figures 16b, 17, 18) only require relative
intra- vs inter-node costs.  We model each node's NIC as a full-duplex
link with latency ``alpha`` and bandwidth ``beta``, plus the *multi-lane*
effect the paper exploits (Section 5.5): a single MPI process cannot
saturate a modern InfiniBand NIC, so implementations that communicate
through one leader per node see only ``lane_bandwidth``; k concurrent
processes see ``min(k * lane_bandwidth, rails * link_bandwidth)``.
``rails`` models multi-rail nodes (several NICs striped per node, the
HPE Slingshot / dual-HCA InfiniBand configuration): each rail adds a
full link of bandwidth, reachable only with enough concurrent senders.

A :class:`Network` holds no state beyond its spec: every ``*_cost``
method is a pure function returning a :class:`NetworkCost` (time,
bytes on the wire, messages, latency steps), so callers can price
several candidate exchange strategies (the vendor tree-vs-ring switch)
and keep only the one that runs.  Traffic totals are sums over the
results a run keeps (:class:`repro.library.hierarchy.HierarchyResult`),
not counters held here.

:class:`Topology` describes a whole cluster — groups of identical
nodes (machine preset, node count, ranks per node) sharing one NIC
model — and is the shape argument of the composable hierarchy layer
(:mod:`repro.library.hierarchy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.machine.spec import GB_S, US


@dataclass(frozen=True)
class NetworkSpec:
    """Per-node NIC characteristics.

    ``link_bandwidth`` is one rail's full-duplex bandwidth;
    ``lane_bandwidth`` what a single process can drive; ``rails`` how
    many independent rails (NICs) each node stripes traffic across.
    """

    name: str
    latency: float  # seconds, one message
    link_bandwidth: float  # bytes/s, one full NIC rail
    lane_bandwidth: float  # bytes/s achievable by a single process
    rails: int = 1

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0 or self.lane_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.lane_bandwidth > self.link_bandwidth:
            raise ValueError("a single lane cannot exceed the link")
        if self.rails < 1:
            raise ValueError("a node needs at least one rail")

    @property
    def node_bandwidth(self) -> float:
        """Aggregate NIC bandwidth of one node (all rails)."""
        return self.rails * self.link_bandwidth


#: 100 Gb/s-class fabric: ~12 GB/s links, one process drives ~4 GB/s.
INFINIBAND_EDR = NetworkSpec(
    name="InfiniBand-EDR",
    latency=1.5 * US,
    link_bandwidth=12.0 * GB_S,
    lane_bandwidth=4.0 * GB_S,
)

#: 200 Gb/s-class fabric, two rails per node (dual-HCA striping).
INFINIBAND_HDR_2RAIL = NetworkSpec(
    name="InfiniBand-HDR-2rail",
    latency=1.3 * US,
    link_bandwidth=24.0 * GB_S,
    lane_bandwidth=6.0 * GB_S,
    rails=2,
)

#: NIC presets resolvable by name from declarative benchmark specs.
NETWORKS: "dict[str, NetworkSpec]" = {
    INFINIBAND_EDR.name: INFINIBAND_EDR,
    INFINIBAND_HDR_2RAIL.name: INFINIBAND_HDR_2RAIL,
}


@dataclass(frozen=True)
class NetworkCost:
    """Side-effect-free estimate of one inter-node exchange.

    ``bytes_on_wire`` / ``messages`` are per-node (what one NIC
    carries); ``steps`` is the synchronous step count of the exchange
    (latency terms).
    """

    time: float
    bytes_on_wire: int
    messages: int
    steps: int = 0

    def scaled(self, n: int) -> "NetworkCost":
        """The cost of running this exchange ``n`` times back to back
        (a segmented pipeline's chunks: every latency term, message and
        byte recurs per chunk)."""
        if n < 1:
            raise ValueError("need at least one repetition")
        return NetworkCost(
            time=self.time * n,
            bytes_on_wire=self.bytes_on_wire * n,
            messages=self.messages * n,
            steps=self.steps * n,
        )


ZERO_COST = NetworkCost(time=0.0, bytes_on_wire=0, messages=0, steps=0)


class Network:
    """Pure cost model for point-to-point and collective exchanges
    between nodes."""

    def __init__(self, spec: NetworkSpec = INFINIBAND_EDR):
        self.spec = spec

    def effective_bandwidth(self, concurrent_procs: int) -> float:
        """Aggregate node bandwidth seen by ``concurrent_procs`` senders."""
        if concurrent_procs <= 0:
            raise ValueError("need at least one sender")
        return min(
            concurrent_procs * self.spec.lane_bandwidth,
            self.spec.node_bandwidth,
        )

    def p2p_cost(self, nbytes: int, concurrent_procs: int = 1) -> NetworkCost:
        """One message of ``nbytes`` with the node link shared by
        ``concurrent_procs`` concurrent streams (each gets an equal
        share of the effective bandwidth)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        bw = self.effective_bandwidth(concurrent_procs) / concurrent_procs
        return NetworkCost(
            time=self.spec.latency + nbytes / bw,
            bytes_on_wire=nbytes,
            messages=1,
            steps=1,
        )

    def ring_allreduce_cost(
        self, nbytes: int, nnodes: int, concurrent_procs: int = 1
    ) -> NetworkCost:
        """Inter-node ring allreduce of ``nbytes`` (reduce-scatter +
        allgather, the standard 2(n-1)/n exchange), with
        ``concurrent_procs`` processes per node driving the NIC (the
        paper's multi-lane hierarchical design splits the message
        across processes)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nnodes <= 1:
            return ZERO_COST
        steps = 2 * (nnodes - 1)
        chunk = nbytes / nnodes
        bw = self.effective_bandwidth(concurrent_procs)
        return NetworkCost(
            time=steps * (self.spec.latency + chunk / bw),
            bytes_on_wire=int(chunk * steps),
            messages=steps,
            steps=steps,
        )

    def tree_bcast_cost(self, nbytes: int, nnodes: int) -> NetworkCost:
        """Binomial-tree broadcast across nodes, single leader per node.

        ``bytes_on_wire`` totals the whole tree's traffic (a node
        forwards to every subtree it roots), ``messages`` the per-node
        view the ring costs use: one message per round."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nnodes <= 1:
            return ZERO_COST
        rounds = math.ceil(math.log2(nnodes))
        return NetworkCost(
            time=rounds * (self.spec.latency
                           + nbytes / self.spec.lane_bandwidth),
            bytes_on_wire=nbytes * (nnodes - 1),
            messages=nnodes - 1,
            steps=rounds,
        )

    def tree_allreduce_cost(self, nbytes: int, nnodes: int) -> NetworkCost:
        """Reduce+bcast binomial tree, single leader per node (models
        the vendor tree collectives that win on small messages)."""
        bcast = self.tree_bcast_cost(nbytes, nnodes)
        return bcast.scaled(2) if nnodes > 1 else ZERO_COST

    def rabenseifner_allreduce_cost(
        self, nbytes: int, nnodes: int, concurrent_procs: int = 1
    ) -> NetworkCost:
        """Rabenseifner inter-node allreduce: recursive-halving
        reduce-scatter + recursive-doubling allgather.  Same
        ``2(n-1)/n`` bytes as the ring but only ``2 ceil(log2 n)``
        latency steps — the latency-optimal bandwidth-optimal point."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nnodes <= 1:
            return ZERO_COST
        rounds = 2 * math.ceil(math.log2(nnodes))
        exchanged = 2.0 * (nnodes - 1) / nnodes * nbytes
        bw = self.effective_bandwidth(concurrent_procs)
        return NetworkCost(
            time=rounds * self.spec.latency + exchanged / bw,
            bytes_on_wire=int(exchanged),
            messages=rounds,
            steps=rounds,
        )


# ---------------------------------------------------------------------------
# Cluster topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeGroup:
    """A homogeneous slice of the cluster: ``nnodes`` nodes of one
    machine preset, each running ``ranks_per_node`` ranks."""

    machine: str
    nnodes: int
    ranks_per_node: int

    def __post_init__(self) -> None:
        if self.nnodes < 1:
            raise ValueError("a group needs at least one node")
        if self.ranks_per_node < 1:
            raise ValueError("a node needs at least one rank")

    @property
    def nranks(self) -> int:
        return self.nnodes * self.ranks_per_node


@dataclass(frozen=True)
class Topology:
    """Cluster shape: node groups joined by one interconnect.

    A single-group topology is the common homogeneous cluster
    (:meth:`uniform`); multiple groups model mixed NodeA/NodeB
    machines sharing a fabric — the hierarchy layer gates the
    inter-node exchange on the slowest group.
    """

    groups: Tuple[NodeGroup, ...]
    network: NetworkSpec = field(default=INFINIBAND_EDR)

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("a topology needs at least one node group")

    @classmethod
    def uniform(cls, machine: str, nnodes: int, ranks_per_node: int,
                network: NetworkSpec = INFINIBAND_EDR) -> "Topology":
        return cls(groups=(NodeGroup(machine, nnodes, ranks_per_node),),
                   network=network)

    @property
    def nnodes(self) -> int:
        return sum(g.nnodes for g in self.groups)

    @property
    def nranks(self) -> int:
        return sum(g.nranks for g in self.groups)

    @property
    def homogeneous(self) -> bool:
        return len({(g.machine, g.ranks_per_node) for g in self.groups}) == 1

    def describe(self) -> dict:
        """Stable dict form (cache keys, result documents)."""
        return {
            "groups": [
                {"machine": g.machine, "nnodes": g.nnodes,
                 "ranks_per_node": g.ranks_per_node}
                for g in self.groups
            ],
            "network": self.network.name,
            "nnodes": self.nnodes,
            "nranks": self.nranks,
        }
