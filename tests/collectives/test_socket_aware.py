"""Socket-aware two-level MA tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.common import make_env, run_collective
from repro.collectives.socket_aware import (
    SOCKET_MA_ALLREDUCE,
    SOCKET_MA_REDUCE,
    SOCKET_MA_REDUCE_SCATTER,
    socket_groups,
)
from repro.models.dav import implementation_dav
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024
ALGS = {
    "reduce_scatter": SOCKET_MA_REDUCE_SCATTER,
    "allreduce": SOCKET_MA_ALLREDUCE,
    "reduce": SOCKET_MA_REDUCE,
}


class TestSocketGroups:
    def test_machine_mapping(self):
        eng = Engine(8, machine=TINY, functional=False)
        env = make_env(SOCKET_MA_ALLREDUCE, engine=eng, s=1024)
        groups = socket_groups(env)
        assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_functional_fallback_split(self):
        eng = Engine(6, functional=True)
        env = make_env(SOCKET_MA_ALLREDUCE, engine=eng, s=1024,
                       params={"sockets": 3})
        groups = socket_groups(env)
        assert groups == [[0, 1], [2, 3], [4, 5]]

    def test_degenerate_single_group(self):
        eng = Engine(3, functional=True)
        env = make_env(SOCKET_MA_ALLREDUCE, engine=eng, s=1024,
                       params={"sockets": 1})
        assert socket_groups(env) == [[0, 1, 2]]


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("kind", list(ALGS))
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
    def test_small(self, kind, p):
        eng = Engine(p, functional=True)
        run_collective(ALGS[kind], eng, 960, imax=128)

    @pytest.mark.parametrize("kind", list(ALGS))
    def test_with_machine(self, kind):
        eng = Engine(8, machine=TINY, functional=True)
        run_collective(ALGS[kind], eng, 32 * KB, imax=KB)

    def test_uneven_groups(self):
        # 7 ranks over 2 sockets: groups of 4 and 3
        eng = Engine(7, machine=TINY, functional=True)
        run_collective(SOCKET_MA_ALLREDUCE, eng, 7 * KB, imax=512)

    def test_three_socket_functional(self):
        eng = Engine(9, functional=True)
        run_collective(SOCKET_MA_REDUCE, eng, 9 * KB, root=4,
                       imax=512, params={"sockets": 3})

    @given(p=st.integers(2, 8), s_units=st.integers(2, 400))
    @settings(max_examples=25, deadline=None)
    def test_property_random_shapes(self, p, s_units):
        eng = Engine(p, functional=True)
        run_collective(SOCKET_MA_ALLREDUCE, eng, 8 * s_units, imax=256)


class TestDAV:
    @pytest.mark.parametrize("kind", list(ALGS))
    @pytest.mark.parametrize("s", [16 * KB, 100 * KB])
    def test_exact_formula(self, kind, s):
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(ALGS[kind], eng, s, imax=KB)
        assert res.dav == implementation_dav(kind, "socket-ma", s, 8, m=2)


class TestSyncAdvantage:
    def test_fewer_chain_waits_than_plain_ma(self):
        """Socket-aware level-1 chains span p/m ranks, not p."""
        from repro.collectives.ma import MA_REDUCE_SCATTER

        s = 64 * KB
        eng1 = Engine(8, machine=TINY, functional=False)
        plain = run_collective(MA_REDUCE_SCATTER, eng1, s, imax=8 * KB)
        eng2 = Engine(8, machine=TINY, functional=False)
        sock = run_collective(SOCKET_MA_REDUCE_SCATTER, eng2, s, imax=8 * KB)
        assert sock.sync_count < plain.sync_count

    def test_level1_stays_intra_socket(self):
        """No NUMA traffic during level 1: the only cross-socket bytes
        come from the level-2 combine."""
        eng = Engine(8, machine=TINY, functional=False)
        s = 32 * KB
        res = run_collective(SOCKET_MA_REDUCE_SCATTER, eng, s, imax=KB)
        numa = res.traffic.numa_bytes + res.traffic.c2c_bytes
        # level 2 reads one remote segment per rank's partition: <= ~2s
        assert numa <= 2.5 * s
