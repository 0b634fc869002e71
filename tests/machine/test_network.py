"""Network model tests: multi-lane saturation, collective costs and
pure cost queries."""

import math

import pytest

from repro.machine.network import (
    INFINIBAND_EDR,
    INFINIBAND_HDR_2RAIL,
    NETWORKS,
    Network,
    NetworkSpec,
    NodeGroup,
    Topology,
)


class TestNetworkSpec:
    def test_lane_cannot_exceed_link(self):
        with pytest.raises(ValueError):
            NetworkSpec("bad", latency=1e-6, link_bandwidth=1e9,
                        lane_bandwidth=2e9)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkSpec("bad", latency=1e-6, link_bandwidth=0,
                        lane_bandwidth=0)

    def test_rejects_zero_rails(self):
        with pytest.raises(ValueError):
            NetworkSpec("bad", latency=1e-6, link_bandwidth=1e9,
                        lane_bandwidth=1e9, rails=0)

    def test_presets_registered_by_name(self):
        assert NETWORKS[INFINIBAND_EDR.name] is INFINIBAND_EDR
        assert NETWORKS[INFINIBAND_HDR_2RAIL.name] is INFINIBAND_HDR_2RAIL


class TestEffectiveBandwidth:
    def test_single_lane(self):
        net = Network(INFINIBAND_EDR)
        assert net.effective_bandwidth(1) == INFINIBAND_EDR.lane_bandwidth

    def test_multi_lane_saturates_link(self):
        net = Network(INFINIBAND_EDR)
        k = math.ceil(
            INFINIBAND_EDR.link_bandwidth / INFINIBAND_EDR.lane_bandwidth
        )
        assert net.effective_bandwidth(k) == INFINIBAND_EDR.link_bandwidth
        assert net.effective_bandwidth(64) == INFINIBAND_EDR.link_bandwidth

    def test_rejects_zero_senders(self):
        net = Network()
        with pytest.raises(ValueError):
            net.effective_bandwidth(0)

    def test_multi_rail_raises_the_saturation_ceiling(self):
        net = Network(INFINIBAND_HDR_2RAIL)
        spec = INFINIBAND_HDR_2RAIL
        # one rail saturates at link_bandwidth, both rails at double it
        k_one = math.ceil(spec.link_bandwidth / spec.lane_bandwidth)
        assert net.effective_bandwidth(k_one) == spec.link_bandwidth
        assert net.effective_bandwidth(64) == 2 * spec.link_bandwidth
        assert spec.node_bandwidth == 2 * spec.link_bandwidth


class TestP2P:
    def test_latency_floor(self):
        net = Network()
        assert net.p2p_cost(0).time == INFINIBAND_EDR.latency

    def test_bandwidth_term(self):
        net = Network()
        t = net.p2p_cost(1 << 20).time
        expect = INFINIBAND_EDR.latency + (1 << 20) / INFINIBAND_EDR.lane_bandwidth
        assert t == pytest.approx(expect)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            Network().p2p_cost(-1)


class TestEstimateCommit:
    """Cost queries are pure estimates; a caller keeps the ones that
    run (the hierarchy's results are the only traffic ledger)."""

    def test_time_queries_are_side_effect_free(self):
        net = Network()

        def price():
            return [net.p2p_cost(1000),
                    net.ring_allreduce_cost(1 << 20, 8),
                    net.tree_allreduce_cost(1 << 20, 8),
                    net.rabenseifner_allreduce_cost(1 << 20, 8)]

        assert price() == price()
        assert vars(net) == {"spec": INFINIBAND_EDR}  # no counters

    def test_cost_scaled_multiplies_every_term(self):
        net = Network()
        per = net.ring_allreduce_cost(1 << 20, 4)
        total = per.scaled(4)
        assert total.time == per.time * 4
        assert total.bytes_on_wire == per.bytes_on_wire * 4
        assert total.messages == per.messages * 4
        assert total.steps == per.steps * 4
        with pytest.raises(ValueError):
            per.scaled(0)

    def test_zero_byte_costs(self):
        net = Network()
        p2p = net.p2p_cost(0)
        assert p2p.time == INFINIBAND_EDR.latency
        assert p2p.bytes_on_wire == 0 and p2p.messages == 1
        ring = net.ring_allreduce_cost(0, 8)
        assert ring.bytes_on_wire == 0 and ring.messages == 2 * 7
        assert ring.time == pytest.approx(14 * INFINIBAND_EDR.latency)

    def test_single_node_zero_cost_paths(self):
        net = Network()
        for cost in (net.ring_allreduce_cost(1 << 20, 1),
                     net.tree_bcast_cost(1 << 20, 1),
                     net.tree_allreduce_cost(1 << 20, 1),
                     net.rabenseifner_allreduce_cost(1 << 20, 1)):
            assert cost.time == 0.0
            assert cost.bytes_on_wire == 0 and cost.messages == 0


class TestRingAllreduce:
    def test_single_node_free(self):
        assert Network().ring_allreduce_cost(1 << 20, 1).time == 0.0

    def test_multi_lane_faster(self):
        net = Network()
        slow = net.ring_allreduce_cost(64 << 20, 8, concurrent_procs=1)
        fast = net.ring_allreduce_cost(64 << 20, 8, concurrent_procs=64)
        assert fast.time < slow.time / 2

    def test_scales_with_nodes_latency(self):
        net = Network()
        t4 = net.ring_allreduce_cost(1024, 4).time
        t16 = net.ring_allreduce_cost(1024, 16).time
        assert t16 > t4  # more latency steps


class TestTreeCollectives:
    def test_tree_bcast_log_rounds(self):
        net = Network()
        t2 = net.tree_bcast_cost(1024, 2).time
        t16 = net.tree_bcast_cost(1024, 16).time
        assert t16 == pytest.approx(4 * t2)

    def test_tree_bcast_non_power_of_two_rounds_and_bytes(self):
        net = Network()
        for nnodes in (3, 5, 9, 100):
            cost = net.tree_bcast_cost(4096, nnodes)
            assert cost.steps == math.ceil(math.log2(nnodes))
            assert cost.bytes_on_wire == 4096 * (nnodes - 1)
            assert cost.messages == nnodes - 1
            assert cost.time == pytest.approx(cost.steps * (
                INFINIBAND_EDR.latency
                + 4096 / INFINIBAND_EDR.lane_bandwidth))

    def test_tree_allreduce_is_double_bcast(self):
        net = Network()
        assert net.tree_allreduce_cost(4096, 8).time == pytest.approx(
            2 * net.tree_bcast_cost(4096, 8).time
        )

    def test_tree_beats_ring_small_messages_many_nodes(self):
        net = Network()
        s = 16 * 1024
        assert (net.tree_allreduce_cost(s, 64).time
                < net.ring_allreduce_cost(s, 64).time)

    def test_ring_beats_tree_large_messages(self):
        net = Network()
        s = 256 << 20
        assert (
            net.ring_allreduce_cost(s, 16, concurrent_procs=64).time
            < net.tree_allreduce_cost(s, 16).time
        )


class TestRabenseifner:
    def test_same_bytes_as_ring_fewer_latency_terms(self):
        net = Network()
        s, n = 64 << 20, 64
        rab = net.rabenseifner_allreduce_cost(s, n)
        ring = net.ring_allreduce_cost(s, n)
        # both move ~2(n-1)/n * s per node; rab in 2 log2 n rounds
        assert rab.bytes_on_wire == pytest.approx(ring.bytes_on_wire, rel=1e-6)
        assert rab.steps == 2 * math.ceil(math.log2(n))
        assert rab.steps < ring.steps

    def test_beats_ring_on_latency_bound_exchanges(self):
        net = Network()
        assert (net.rabenseifner_allreduce_cost(16 * 1024, 1024).time
                < net.ring_allreduce_cost(16 * 1024, 1024).time)


class TestTopology:
    def test_uniform(self):
        topo = Topology.uniform("NodeA", 16, 64)
        assert topo.nnodes == 16 and topo.nranks == 1024
        assert topo.homogeneous
        doc = topo.describe()
        assert doc["network"] == INFINIBAND_EDR.name
        assert doc["nranks"] == 1024

    def test_mixed_groups(self):
        topo = Topology(groups=(NodeGroup("NodeA", 8, 64),
                                NodeGroup("NodeB", 8, 48)),
                        network=INFINIBAND_HDR_2RAIL)
        assert topo.nnodes == 16
        assert topo.nranks == 8 * 64 + 8 * 48
        assert not topo.homogeneous
        assert topo.describe()["network"] == INFINIBAND_HDR_2RAIL.name

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(groups=())
        with pytest.raises(ValueError):
            NodeGroup("NodeA", 0, 64)
        with pytest.raises(ValueError):
            NodeGroup("NodeA", 4, 0)
