"""Per-node skew on :meth:`repro.library.hierarchy.Hierarchy.run`:
validation, straggler propagation and resynchronization."""

import pytest

from repro.library.communicator import Communicator
from repro.library.hierarchy import allreduce_hierarchy
from repro.library.yhccl import YHCCL

from tests.conftest import TINY

MB = 1 << 20


def mk(nnodes):
    """YHCCL's partition hierarchy over ``nnodes`` TINY nodes (p=8)."""
    comm = Communicator(8, machine=TINY, functional=False)
    return allreduce_hierarchy(YHCCL(comm), nnodes)


@pytest.fixture(scope="module")
def cluster():
    return mk(4)


def straggler_penalty(hier, nbytes, skew):
    """Completion-time increase caused by one straggling node."""
    base = hier.run(nbytes).time
    skews = [0.0] * hier.nnodes
    skews[0] = skew
    return hier.run(nbytes, skews=skews).time - base


class TestBasics:
    def test_single_node(self):
        single = mk(1)
        res = single.run(1 * MB, skews=[2e-3])
        assert res.time > 0
        assert res.nnodes == 1
        assert res.time == pytest.approx(single.run(1 * MB).time + 2e-3,
                                         rel=1e-12)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            mk(0)

    def test_rejects_bad_skews(self, cluster):
        with pytest.raises(ValueError, match="skews"):
            cluster.run(1 * MB, skews=[0.0])
        with pytest.raises(ValueError, match="non-negative"):
            cluster.run(1 * MB, skews=[0, 0, 0, -1e-3])

    def test_result_fields(self, cluster):
        res = cluster.run(1 * MB, skews=[1e-3, 0, 3e-3, 0])
        assert res.skew == 3e-3
        assert res.time == pytest.approx(
            res.intra_time + res.inter_time + res.skew, rel=1e-12)
        assert res.to_doc()["skew"] == 3e-3
        # unskewed documents carry no skew entry at all
        assert "skew" not in cluster.run(1 * MB).to_doc()


class TestSkew:
    def test_straggler_delays_everyone(self, cluster):
        base = cluster.run(1 * MB)
        skewed = cluster.run(1 * MB, skews=[5e-3, 0, 0, 0])
        assert skewed.time > base.time
        # bulk-synchronous gating: the whole exchange waits for the
        # straggler
        assert skewed.time == pytest.approx(base.time + 5e-3, rel=1e-12)

    def test_ring_resynchronizes(self, cluster):
        """Only the latest entrant matters: once it joins, the nodes
        march in lockstep, so smaller skews are absorbed entirely."""
        mixed = cluster.run(1 * MB, skews=[5e-3, 1e-3, 0, 2e-3])
        lone = cluster.run(1 * MB, skews=[5e-3, 0, 0, 0])
        assert mixed.time == lone.time

    def test_zero_skews_match_unskewed_run(self, cluster):
        base = cluster.run(1 * MB)
        zero = cluster.run(1 * MB, skews=[0.0] * 4)
        assert zero.time == base.time
        assert zero.stages == base.stages

    def test_straggler_penalty_linear(self, cluster):
        p1 = straggler_penalty(cluster, 1 * MB, 1e-3)
        p5 = straggler_penalty(cluster, 1 * MB, 5e-3)
        assert p1 == pytest.approx(1e-3, rel=1e-9)
        assert p5 == pytest.approx(5e-3, rel=1e-9)
