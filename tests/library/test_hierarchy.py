"""Composable hierarchy framework tests: stage composition, pure stage
evaluation with the result as the one traffic ledger, pipeline
accounting, the shared policies, and topology assembly."""

from types import SimpleNamespace

import pytest

from repro.library.communicator import Communicator
from repro.library.hierarchy import (
    BestOfStage,
    GroupedLeafStage,
    Hierarchy,
    LeafStage,
    NetworkStage,
    RabenseifnerStage,
    RingStage,
    SizeSwitchStage,
    TreeAllreduceStage,
    allreduce_hierarchy,
    allreduce_stages,
    ceil_div,
    hierarchy_for_topology,
    implementation_policy,
    pipeline_chunks,
    vendor_network_stage,
)
from repro.library.mpi import MPILibrary
from repro.library.yhccl import YHCCL
from repro.machine.network import Network, NetworkCost, NodeGroup, Topology

from tests.conftest import TINY

KB = 1024
MB = 1024 * KB


class FakeLeafResult:
    def __init__(self, time, dav=0, algorithm="fake"):
        self.time = time
        self.dav = dav
        self.algorithm = algorithm


def const_leaf(name, time, dav=0):
    return LeafStage(name, lambda n: FakeLeafResult(time, dav))


class FixedCostStage(NetworkStage):
    """An exchange priced at one fixed cost, whatever the size."""

    def __init__(self, name, cost):
        super().__init__(name, Network(), 2)
        self._cost = cost

    def cost(self, nbytes):
        return self._cost


class TestCeilDiv:
    def test_exact_and_remainder(self):
        assert ceil_div(8, 4) == 2
        assert ceil_div(9, 4) == 3
        assert ceil_div(1, 8) == 1
        assert ceil_div(0, 8) == 0


class TestLeafStage:
    def test_reports_leaf_metrics(self):
        stage = const_leaf("rs", 2.0, dav=100)
        res = stage.evaluate(1 * MB)
        assert res.time == 2.0 and res.dav == 100
        assert res.level == "intra"
        assert res.bytes_on_wire == 0 and res.messages == 0

    def test_sizer_maps_message_size(self):
        seen = []

        def op(n):
            seen.append(n)
            return FakeLeafResult(1.0)

        stage = LeafStage("ag", op, sizer=lambda n: ceil_div(n, 8))
        stage.evaluate(100)
        assert seen == [13]

    def test_chunk_time_divides_total(self):
        res = const_leaf("rs", 4.0).evaluate(1 * MB, chunks=4)
        assert res.time == 4.0 and res.chunk_time == 1.0


class TestGroupedLeafStage:
    def test_slowest_group_gates_bytes_sum(self):
        grouped = GroupedLeafStage("rs", [
            const_leaf("rs@A", 2.0, dav=10),
            const_leaf("rs@B", 5.0, dav=7),
        ])
        res = grouped.evaluate(1 * MB)
        assert res.time == 5.0
        assert res.dav == 17

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroupedLeafStage("rs", [])


class TestNetworkStages:
    def test_ring_commit_matches_cost(self):
        """The result is the ledger: it carries exactly the traffic of
        the exchange's cost."""
        net = Network()
        res = RingStage(net, 8, lanes=8).evaluate(1 * MB)
        cost = net.ring_allreduce_cost(1 * MB, 8, concurrent_procs=8)
        assert res.time == cost.time
        assert res.bytes_on_wire == cost.bytes_on_wire
        assert res.messages == cost.messages
        assert res.steps == cost.steps

    def test_chunked_evaluation_scales_latency_and_messages(self):
        net = Network()
        stage = RingStage(net, 8, lanes=8)
        whole = stage.evaluate(4 * MB)
        chunked = stage.evaluate(4 * MB, chunks=4)
        per = net.ring_allreduce_cost(1 * MB, 8, concurrent_procs=8)
        assert chunked.chunk_time == per.time
        assert chunked.time == per.time * 4
        assert chunked.messages == whole.messages * 4
        # chunking pays the per-step latency once per chunk
        assert chunked.time > whole.time

    def test_best_of_commits_only_the_winner(self):
        """Only the winner's result comes back, so the road not taken
        never reaches the traffic totals."""
        net = Network()
        tree = TreeAllreduceStage(net, 16)
        ring = RingStage(net, 16, lanes=1)
        best = BestOfStage((tree, ring))
        small = best.evaluate(16 * KB)
        assert small.algorithm == "tree"
        assert small.bytes_on_wire == net.tree_allreduce_cost(
            16 * KB, 16).bytes_on_wire
        large = best.evaluate(64 * MB)
        assert large.algorithm == "ring"
        assert large.bytes_on_wire == net.ring_allreduce_cost(
            64 * MB, 16).bytes_on_wire

    def test_best_of_tie_keeps_first_child(self):
        cost = NetworkCost(time=1.0, bytes_on_wire=8, messages=1, steps=1)
        best = BestOfStage((FixedCostStage("a", cost),
                            FixedCostStage("b", cost)))
        assert best.evaluate(64).name == "a"
        # pricing keeps no per-result state on the stage
        assert set(vars(best)) == {"children", "name"}

    def test_size_switch_threshold_boundary(self):
        net = Network()
        switch = SizeSwitchStage(TreeAllreduceStage(net, 16),
                                 RingStage(net, 16, lanes=1),
                                 threshold=256 * KB)
        assert switch.evaluate(256 * KB).algorithm == "tree"
        assert switch.evaluate(256 * KB + 1).algorithm == "ring"

    def test_vendor_stage_modes(self):
        net = Network()
        assert isinstance(vendor_network_stage(net, 8, adaptive=True),
                          BestOfStage)
        assert isinstance(vendor_network_stage(net, 8, adaptive=False),
                          SizeSwitchStage)


class TestHierarchyComposition:
    def mk(self, nnodes=8):
        stages = [
            const_leaf("rs", 3.0, dav=30),
            RingStage(Network(), nnodes, lanes=8),
            const_leaf("ag", 1.0, dav=10),
        ]
        return Hierarchy(stages, nnodes=nnodes, nranks=64)

    def test_serial_total_is_intra_plus_inter(self):
        h = self.mk()
        res = h.run(4 * MB)
        assert res.time == res.intra_time + res.inter_time
        assert res.intra_time == 4.0
        assert res.dav == 40

    def test_pipeline_formula(self):
        h = self.mk()
        res = h.run(4 * MB, chunks=4)
        cts = [s.chunk_time for s in res.stages]
        assert res.time == pytest.approx(sum(cts) + 3 * max(cts))
        assert res.pipelined

    def test_counters_reset_per_run_and_roll_up(self):
        h = self.mk()
        first = h.run(4 * MB)
        second = h.run(4 * MB)
        assert second.to_doc() == first.to_doc()  # no accumulation
        doc = second.to_doc()
        assert doc["schema"] == "repro-hier/1"
        assert doc["network"]["bytes_sent"] == sum(
            lv["bytes_on_wire"] for lv in doc["levels"])
        assert doc["network"]["messages"] == sum(
            lv["messages"] for lv in doc["levels"])

    def test_pipelined_commits_chunked_traffic(self):
        h = self.mk()
        serial = h.run(4 * MB)
        piped = h.run(4 * MB, chunks=4)
        inter = next(s for s in piped.stages if s.level == "inter")
        assert piped.network_messages == inter.messages
        assert piped.network_messages == 4 * serial.network_messages

    def test_validation(self):
        h = self.mk()
        with pytest.raises(ValueError):
            h.run(-1)
        with pytest.raises(ValueError):
            h.run(1 * MB, chunks=0)
        with pytest.raises(ValueError):
            Hierarchy([])


class TestAllreduceStages:
    def test_partition_stack(self):
        comm = Communicator(8, machine=TINY, functional=False)
        net = Network()
        stages = allreduce_stages(YHCCL(comm), net=net, nnodes=4,
                                  nranks_per_node=8)
        assert [s.name for s in stages] == ["reduce_scatter",
                                            "ring-8lane", "allgather"]

    def test_leader_stack(self):
        comm = Communicator(8, machine=TINY, functional=False)
        from repro.library.mpi import MPILibrary

        net = Network()
        stages = allreduce_stages(MPILibrary(comm, "Open MPI"), net=net,
                                  nnodes=4, nranks_per_node=8,
                                  mode="leader")
        assert stages[0].name == "reduce" and stages[2].name == "bcast"
        assert isinstance(stages[1], SizeSwitchStage)

    def test_allgather_partition_is_ceil_divided(self):
        sizes = []

        def fake_ag(n):
            sizes.append(n)
            return FakeLeafResult(1.0)

        net = Network()
        leaves = SimpleNamespace(
            reduce_scatter=lambda n: FakeLeafResult(1.0), allgather=fake_ag)
        stages = allreduce_stages(leaves, net=net, nnodes=4,
                                  nranks_per_node=8)
        ag = stages[2]
        ag.evaluate(100)  # 100 bytes over 8 ranks -> ceil = 13
        ag.evaluate(5)  # tiny message: one byte per rank, not the whole 5
        ag.evaluate(0)
        assert sizes == [13, 1, 0]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            allreduce_stages(None, net=Network(), nnodes=4,
                             nranks_per_node=8, mode="flat")


class TestTopologyHierarchy:
    def test_uniform_matches_library_builder(self):
        """A uniform topology and the library-driven builder assemble
        the same hierarchy, bitwise."""
        topo = Topology.uniform("NodeA", 4, 8)
        hres = hierarchy_for_topology(topo).run(1 * MB)
        from repro.machine.spec import PRESETS

        lib = YHCCL(Communicator(8, machine=PRESETS["NodeA"],
                                 functional=False))
        lres = allreduce_hierarchy(lib, 4).run(1 * MB)
        assert hres.time == lres.time
        assert hres.intra_time == lres.intra_time
        assert hres.inter_time == lres.inter_time

    def test_heterogeneous_groups_gate_on_slowest(self):
        topo = Topology(groups=(NodeGroup("NodeA", 2, 8),
                                NodeGroup("NodeB", 2, 4)))
        h = hierarchy_for_topology(topo)
        assert isinstance(h.stages[0], GroupedLeafStage)
        # lanes follow the smallest group's rank count
        assert h.stages[1].lanes == 4
        res = h.run(256 * KB)
        doc = res.to_doc()
        assert doc["topology"]["nranks"] == 2 * 8 + 2 * 4
        assert doc["nnodes"] == 4
        a = [s for s in h.stages[0].children if "NodeA" in s.name]
        assert a, [s.name for s in h.stages[0].children]

    def test_vendor_topology(self):
        topo = Topology.uniform("NodeA", 4, 8)
        h = hierarchy_for_topology(topo, implementation="OMPI-hcoll")
        assert isinstance(h.stages[1], BestOfStage)

    def test_named_exchange_override(self):
        topo = Topology.uniform("NodeA", 8, 8)
        h = hierarchy_for_topology(topo, exchange="rabenseifner", lanes=8)
        assert isinstance(h.stages[1], RabenseifnerStage)
        assert h.stages[1].lanes == 8
        res = h.run(1 * MB)
        inter = [s for s in res.stages if s.level == "inter"]
        assert inter[0].algorithm == "rabenseifner"
        with pytest.raises(ValueError, match="exchange"):
            hierarchy_for_topology(topo, exchange="gossip")


class TestPolicies:
    """The implementation mapping, pipeline policy and library-driven
    builder each have one definition."""

    def test_implementation_mapping(self):
        y = implementation_policy("YHCCL")
        assert (y.vendor, y.mode, y.adaptive) == ("YHCCL", "partition",
                                                  False)
        h = implementation_policy("OMPI-hcoll")
        assert (h.vendor, h.mode, h.adaptive) == ("Open MPI", "leader",
                                                  True)
        m = implementation_policy("MPICH")
        assert (m.vendor, m.mode, m.adaptive) == ("MPICH", "leader", False)

    def test_library_follows_vendor(self):
        comm = Communicator(8, machine=TINY, functional=False)
        assert isinstance(implementation_policy("YHCCL").library(comm),
                          YHCCL)
        lib = implementation_policy("OMPI-hcoll").library(comm)
        assert isinstance(lib, MPILibrary) and lib.vendor == "Open MPI"

    def test_pipeline_policy(self):
        assert pipeline_chunks("partition", 2, 4 * MB) == 4
        assert pipeline_chunks("partition", 2, 4 * MB - 1) == 1
        assert pipeline_chunks("partition", 1, 64 * MB) == 1
        assert pipeline_chunks("leader", 16, 64 * MB) == 1

    def test_library_builder_runs_on_any_machine(self):
        comm = Communicator(8, machine=TINY, functional=False)
        hcoll = implementation_policy("OMPI-hcoll")
        h = allreduce_hierarchy(hcoll.library(comm), 4,
                                implementation="OMPI-hcoll")
        assert isinstance(h.stages[1], BestOfStage)
        assert h.nranks == 32
        assert h.run(64 * KB).time > 0
