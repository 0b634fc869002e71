"""Pipelined all-gather (Algorithm 4) tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.allgather import PIPELINED_ALLGATHER
from repro.collectives.common import make_env, run_collective
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024


class TestFunctional:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_correctness(self, p):
        eng = Engine(p, functional=True)
        run_collective(PIPELINED_ALLGATHER, eng, 4 * KB, imax=512)

    def test_single_slice(self):
        eng = Engine(4, functional=True)
        run_collective(PIPELINED_ALLGATHER, eng, 256, imax=KB)

    def test_ragged(self):
        eng = Engine(3, functional=True)
        run_collective(PIPELINED_ALLGATHER, eng, 1000, imax=384)

    @given(p=st.integers(2, 6), s_units=st.integers(1, 200))
    @settings(max_examples=20, deadline=None)
    def test_property(self, p, s_units):
        eng = Engine(p, functional=True)
        run_collective(PIPELINED_ALLGATHER, eng, 8 * s_units, imax=256)


class TestDAVAndStructure:
    def test_dav(self):
        """Copy-in 2sp, copy-out 2sp^2 (every rank copies all slots)."""
        s = 8 * KB
        p = 4
        eng = Engine(p, machine=TINY, functional=False)
        res = run_collective(PIPELINED_ALLGATHER, eng, s, imax=KB)
        assert res.traffic.dav == 2 * s * p + 2 * s * p * p

    def test_work_set_formula(self):
        # Algorithm 4 line 2: W = s*p + s*p^2 + 2*p*I
        eng = Engine(4, functional=False, machine=TINY)
        s, imax = 16 * KB, 2 * KB
        env = make_env(PIPELINED_ALLGATHER, engine=eng, s=s, imax=imax)
        assert env.work_set == s * 4 + s * 16 + 2 * 4 * imax

    def test_adaptive_engages_nt_early(self):
        """W grows with p^2, so NT engages at much smaller s than bcast."""
        eng = Engine(8, machine=TINY, functional=False, trace=True)
        s = 64 * KB  # W ~ s*p^2 = 4 MB > 1.25 MB cache
        run_collective(PIPELINED_ALLGATHER, eng, s,
                       copy_policy="adaptive", imax=8 * KB)
        assert eng.trace.copy_bytes(nt=True) > 0

    def test_recvbuf_is_p_times_s(self):
        eng = Engine(4, functional=True)
        from repro.collectives.common import make_env as me

        env = me(PIPELINED_ALLGATHER, engine=eng, s=1024)
        assert env.recvbufs[0].nbytes == 4096
