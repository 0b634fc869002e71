"""Fast shape checks of the paper's headline results, run on NodeA-scale
configurations (marked slow where they take seconds).

These mirror what the full benchmark harness measures, at a handful of
points — enough to catch regressions in the reproduced *shapes*:
who wins, roughly by how much, and where crossovers sit.
"""

import pytest

from repro.library.communicator import Communicator
from repro.library.mpi import MPILibrary
from repro.library.yhccl import YHCCL
from repro.machine.spec import NODE_A, MB
from repro.collectives.common import run_collective
from repro.collectives.dpml import DPML_REDUCE_SCATTER
from repro.collectives.socket_aware import SOCKET_MA_REDUCE_SCATTER
from repro.sim.engine import Engine


@pytest.mark.slow
class TestFigure9Shape:
    """MA reduce-scatter wins over DPML for messages >= 64 KB on NodeA."""

    def test_ma_beats_dpml_large(self):
        s = 8 * MB
        eng1 = Engine(64, machine=NODE_A, functional=False)
        t_ma = run_collective(SOCKET_MA_REDUCE_SCATTER, eng1, s).time
        eng2 = Engine(64, machine=NODE_A, functional=False)
        t_dpml = run_collective(DPML_REDUCE_SCATTER, eng2, s).time
        # paper: ~4.2x average on NodeA; require a clear win
        assert t_dpml / t_ma > 1.8

    def test_absolute_time_magnitude(self):
        """Paper Figure 9a: socket-aware MA at 16 MB ~ 6.1 ms on NodeA.
        Accept the right order of magnitude (2x band)."""
        eng = Engine(64, machine=NODE_A, functional=False)
        t = run_collective(SOCKET_MA_REDUCE_SCATTER, eng, 16 * MB).time
        assert 3e-3 < t < 13e-3


@pytest.mark.slow
class TestFigure12Shape:
    """Adaptive NT stores start paying off past the predicted switch."""

    def test_adaptive_wins_past_switch_point(self):
        comm = Communicator(64, machine=NODE_A, functional=False)
        from repro.collectives.switching import YHCCLConfig

        s = 8 * MB  # well past 2176 KB
        t_adaptive = YHCCL(comm).allreduce(s).time
        comm2 = Communicator(64, machine=NODE_A, functional=False)
        t_plain = YHCCL(
            comm2, config=YHCCLConfig(adaptive_copy=False)
        ).allreduce(s).time
        assert t_adaptive < t_plain

    def test_no_loss_below_switch_point(self):
        comm = Communicator(64, machine=NODE_A, functional=False)
        from repro.collectives.switching import YHCCLConfig

        s = 1 * MB  # below 2176 KB: adaptive == temporal path
        t_adaptive = YHCCL(comm).allreduce(s).time
        comm2 = Communicator(64, machine=NODE_A, functional=False)
        t_plain = YHCCL(
            comm2, config=YHCCLConfig(adaptive_copy=False)
        ).allreduce(s).time
        assert t_adaptive == pytest.approx(t_plain, rel=0.02)


@pytest.mark.slow
class TestFigure15Shape:
    """YHCCL vs vendors at one representative large size."""

    @pytest.mark.parametrize("vendor", ["Open MPI", "MPICH", "MVAPICH2"])
    def test_yhccl_wins_large_allreduce(self, vendor):
        s = 8 * MB
        comm = Communicator(64, machine=NODE_A, functional=False)
        t_y = YHCCL(comm).allreduce(s).time
        comm2 = Communicator(64, machine=NODE_A, functional=False)
        t_v = MPILibrary(comm2, vendor).allreduce(s).time
        assert t_y < t_v

    def test_xpmem_overtakes_on_huge_bcast(self):
        """Figure 15d: past 128 MB (s/p = 2 MB) XPMEM's direct copy
        engages NT stores and overtakes YHCCL's pipelined bcast."""
        comm = Communicator(64, machine=NODE_A, functional=False)
        xp = MPILibrary(comm, "XPMEM")
        y = YHCCL(comm)
        big = 256 * MB
        assert xp.bcast(big).time < y.bcast(big).time

    def test_yhccl_beats_xpmem_on_medium_bcast(self):
        comm = Communicator(64, machine=NODE_A, functional=False)
        xp = MPILibrary(comm, "XPMEM")
        y = YHCCL(comm)
        mid = 16 * MB
        assert y.bcast(mid).time < xp.bcast(mid).time
