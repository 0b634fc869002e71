"""Multi-node hierarchical allreduce tests (Figure 16b mechanisms),
written against :class:`~repro.library.hierarchy.Hierarchy` and its
two-level builder."""

import pytest

from repro.library.communicator import Communicator
from repro.library.hierarchy import (
    PIPELINE_CHUNKS,
    allreduce_hierarchy,
    implementation_policy,
    pipeline_chunks,
)
from repro.machine.network import Network

from tests.conftest import TINY

KB = 1024
MB = 1024 * KB


def mk(implementation, nnodes):
    """``nnodes`` TINY nodes of 8 ranks running ``implementation``."""
    comm = Communicator(8, machine=TINY, functional=False)
    lib = implementation_policy(implementation).library(comm)
    return allreduce_hierarchy(lib, nnodes, implementation=implementation)


def allreduce(hier, nbytes, *, pipelined=True):
    """One allreduce under the library's pipeline policy (the builder
    names the hierarchy after its implementation)."""
    mode = implementation_policy(hier.name).mode
    chunks = pipeline_chunks(mode, hier.nnodes, nbytes) if pipelined else 1
    return hier.run(nbytes, chunks=chunks)


class TestMultiNode:
    def test_single_node_no_network(self):
        res = allreduce(mk("YHCCL", 1), 1 * MB)
        assert res.inter_time == 0.0
        assert res.time == res.intra_time

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            mk("YHCCL", 0)

    def test_breakdown_sums(self):
        res = allreduce(mk("YHCCL", 8), 4 * MB, pipelined=False)
        assert res.time == pytest.approx(res.intra_time + res.inter_time)
        # the default (pipelined) never exceeds the serial sum
        piped = allreduce(mk("YHCCL", 8), 4 * MB)
        assert piped.time <= res.intra_time + res.inter_time

    def test_multilane_beats_single_leader_large(self):
        """YHCCL's multi-lane network phase (Section 5.5)."""
        s = 64 * MB
        y = allreduce(mk("YHCCL", 16), s)
        o = allreduce(mk("Open MPI", 16), s)
        assert y.inter_time < o.inter_time
        assert y.time < o.time

    def test_trees_win_small_messages(self):
        """Vendor tree exchanges have lower latency on small messages
        across many nodes — the paper's stated weakness of YHCCL's
        ring-based strategy."""
        s = 16 * KB
        y = allreduce(mk("YHCCL", 64), s)
        h = allreduce(mk("OMPI-hcoll", 64), s)
        assert h.inter_time < y.inter_time

    def test_hcoll_picks_best_network_phase(self):
        small = allreduce(mk("OMPI-hcoll", 16), 16 * KB)
        big = allreduce(mk("OMPI-hcoll", 16), 64 * MB)
        # consistent: never worse than both pure strategies
        net = Network()
        assert small.inter_time <= net.ring_allreduce_cost(16 * KB, 16).time
        assert big.inter_time <= net.tree_allreduce_cost(64 * MB, 16).time

    @pytest.mark.parametrize("impl", ["YHCCL", "Open MPI", "MVAPICH2",
                                      "MPICH", "OMPI-hcoll"])
    def test_all_implementations_run(self, impl):
        assert allreduce(mk(impl, 4), 1 * MB).time > 0


class TestPipelinedOverlap:
    """Section 5.5's segmented pipeline: inter-node exchange overlaps
    intra-node phases."""

    def test_pipelined_faster_than_serial(self):
        serial = allreduce(mk("YHCCL", 8), 8 * MB, pipelined=False)
        piped = allreduce(mk("YHCCL", 8), 8 * MB)
        assert piped.time < serial.time
        assert piped.pipelined and not serial.pipelined
        # part of the (chunked) phase sum is hidden by the overlap
        assert piped.time < piped.intra_time + piped.inter_time

    def test_single_node_unaffected(self):
        res = allreduce(mk("YHCCL", 1), 1 * MB)
        assert not res.pipelined
        assert res.inter_time == 0.0

    def test_pipeline_bounded_below_by_slowest_stage(self):
        res = allreduce(mk("YHCCL", 16), 16 * MB)
        assert res.time >= max(res.inter_time,
                               res.intra_time / 2) * 0.99


class TestVendorProbeAccounting:
    """Bugfix: the hcoll tree-vs-ring probe priced both strategies but
    must record only the chosen one: the probe returns only the
    winner's result, and the totals are sums over results."""

    def test_counters_reflect_only_the_chosen_path(self):
        res = allreduce(mk("OMPI-hcoll", 16), 16 * KB)  # tree wins here
        inter = [s for s in res.stages if s.level == "inter"]
        assert inter[0].algorithm == "tree"
        tree = Network().tree_allreduce_cost(16 * KB, 16)
        ring = Network().ring_allreduce_cost(16 * KB, 16)
        assert res.network_bytes == tree.bytes_on_wire
        assert res.network_bytes != (tree.bytes_on_wire
                                     + ring.bytes_on_wire)
        assert res.network_messages == tree.messages

    def test_counters_reset_per_call(self):
        hier = mk("OMPI-hcoll", 16)
        first = allreduce(hier, 16 * KB)
        assert allreduce(hier, 16 * KB).to_doc() == first.to_doc()


class TestCeilPartition:
    """Bugfix: the trailing allgather partition is ceil(nbytes / p),
    never the floor (remainder dropped) or the whole message
    (nbytes < p)."""

    def ag_stage(self, res):
        return next(s for s in res.stages if s.name == "allgather")

    def test_remainder_not_dropped(self):
        res = allreduce(mk("YHCCL", 4), 100)  # 100 over p=8 ranks
        assert self.ag_stage(res).nbytes == 13  # ceil, not 12

    def test_tiny_message_not_inflated(self):
        res = allreduce(mk("YHCCL", 4), 5)  # nbytes < p
        assert self.ag_stage(res).nbytes == 1  # one byte, not all 5

    def test_exact_division_unchanged(self):
        res = allreduce(mk("YHCCL", 4), 1 * MB)
        assert self.ag_stage(res).nbytes == 1 * MB // 8


class TestPipelinedAccounting:
    """Bugfix: a C-chunk pipeline pays inter-node latency and message
    counts per chunk, and the document totals are the sums of the
    per-level traffic."""

    def test_messages_scale_with_chunks(self):
        res = allreduce(mk("YHCCL", 8), 8 * MB)
        assert res.pipelined
        c = PIPELINE_CHUNKS
        per = Network().ring_allreduce_cost(
            -(-8 * MB // c), 8, concurrent_procs=8)
        inter = next(s for s in res.stages if s.level == "inter")
        assert inter.messages == c * per.messages
        assert inter.steps == c * per.steps
        assert inter.time == per.time * c
        assert res.network_messages == c * per.messages

    def test_document_totals_match_live_counters(self):
        res = allreduce(mk("YHCCL", 8), 8 * MB)
        doc = res.to_doc()
        assert doc["network"] == {"bytes_sent": res.network_bytes,
                                  "messages": res.network_messages}
        assert doc["network"]["bytes_sent"] == sum(
            lv["bytes_on_wire"] for lv in doc["levels"])
        assert doc["network"]["messages"] == sum(
            lv["messages"] for lv in doc["levels"])


class TestLegacyEquivalence:
    """The composed two-level hierarchy reproduces the original
    closed-form arithmetic bitwise (serial path: intra sum + inter
    sum)."""

    def test_yhccl_serial_time_is_legacy_formula(self):
        s = 4 * MB
        res = allreduce(mk("YHCCL", 16), s, pipelined=False)
        from repro.library.yhccl import YHCCL

        lib = YHCCL(Communicator(8, machine=TINY, functional=False))
        rs = lib.reduce_scatter(s)
        ag = lib.allgather(-(-s // 8))
        inter = Network().ring_allreduce_cost(s, 16, concurrent_procs=8).time
        assert res.time == (rs.time + ag.time) + inter
        assert res.intra_time == rs.time + ag.time
        assert res.inter_time == inter

    def test_vendor_serial_time_is_legacy_formula(self):
        s = 1 * MB
        res = allreduce(mk("Open MPI", 16), s)
        from repro.library.mpi import MPILibrary

        lib = MPILibrary(Communicator(8, machine=TINY, functional=False),
                         "Open MPI")
        # size-switch picks the single-lane ring above the tree cutoff
        inter = Network().ring_allreduce_cost(s, 16).time
        expect = (lib.reduce(s).time + lib.bcast(s).time) + inter
        assert res.time == expect
