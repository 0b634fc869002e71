"""m > 2 sockets: correctness, DAV formulas and NUMA behaviour of the
socket-aware designs on a 4-socket machine (NodeD) — the paper's
"future architectures" discussion, exercised."""

import pytest

from repro.collectives.common import run_collective
from repro.collectives.dpml import DPML2_ALLREDUCE
from repro.collectives.socket_aware import (
    SOCKET_MA_ALLREDUCE,
    SOCKET_MA_REDUCE,
    SOCKET_MA_REDUCE_SCATTER,
    socket_groups,
)
from repro.collectives.common import make_env
from repro.machine.spec import NODE_D, KB
from repro.models.dav import implementation_dav
from repro.sim.engine import Engine

ALGS = {
    "reduce_scatter": SOCKET_MA_REDUCE_SCATTER,
    "allreduce": SOCKET_MA_ALLREDUCE,
    "reduce": SOCKET_MA_REDUCE,
}


class TestFourSocketTopology:
    def test_preset_shape(self):
        assert NODE_D.sockets == 4 and NODE_D.total_cores == 64

    def test_groups_follow_sockets(self):
        eng = Engine(16, machine=NODE_D, functional=False)
        env = make_env(SOCKET_MA_ALLREDUCE, engine=eng, s=1024)
        groups = socket_groups(env)
        assert len(groups) == 4
        assert [len(g) for g in groups] == [4, 4, 4, 4]


class TestFourSocketCorrectness:
    @pytest.mark.parametrize("kind", list(ALGS))
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_functional(self, kind, p):
        eng = Engine(p, machine=NODE_D, functional=True)
        run_collective(ALGS[kind], eng, 16 * KB, imax=KB)

    def test_uneven_socket_population(self):
        # 10 ranks over 4 sockets: 3+3+2+2 groups
        eng = Engine(10, machine=NODE_D, functional=True)
        run_collective(SOCKET_MA_ALLREDUCE, eng, 10 * KB, imax=KB)

    def test_functional_m4_without_machine(self):
        eng = Engine(8, functional=True)
        run_collective(SOCKET_MA_ALLREDUCE, eng, 8 * KB,
                       imax=KB, params={"sockets": 4})


class TestFourSocketDAV:
    @pytest.mark.parametrize("kind", list(ALGS))
    def test_formula_with_m4(self, kind):
        s = 64 * KB
        eng = Engine(16, machine=NODE_D, functional=False)
        res = run_collective(ALGS[kind], eng, s, imax=KB)
        assert res.dav == implementation_dav(kind, "socket-ma", s, 16, m=4)

    def test_dav_grows_with_m_but_stays_below_dpml(self):
        from repro.models.dav import dav_allreduce

        s = 1 << 20
        for p in (16, 64):
            d2 = dav_allreduce("socket-ma", s, p, m=2)
            d4 = dav_allreduce("socket-ma", s, p, m=4)
            assert d2 < d4 < dav_allreduce("dpml", s, p)


class TestFourSocketBehaviour:
    def test_level1_numa_locality(self):
        """Level-1 traffic stays intra-socket on 4 sockets too."""
        eng = Engine(16, machine=NODE_D, functional=False)
        s = 64 * KB
        res = run_collective(SOCKET_MA_REDUCE_SCATTER, eng, s, imax=2 * KB)
        # numa_bytes already includes cache-to-cache transfers; level 2
        # reads (m-1) = 3 foreign segments of s bytes in total
        assert res.traffic.numa_bytes <= 3.5 * s

    def test_two_level_dpml_with_m4(self):
        eng = Engine(16, machine=NODE_D, functional=True)
        run_collective(DPML2_ALLREDUCE, eng, 16 * KB)
