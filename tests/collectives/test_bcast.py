"""Pipelined broadcast (Algorithm 3) tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.bcast import PIPELINED_BCAST
from repro.collectives.common import make_env, run_collective
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024


class TestFunctional:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_correctness(self, p):
        eng = Engine(p, functional=True)
        run_collective(PIPELINED_BCAST, eng, 4 * KB, imax=512)

    def test_single_slice_message(self):
        eng = Engine(4, functional=True)
        run_collective(PIPELINED_BCAST, eng, 256, imax=KB)

    def test_nonzero_root(self):
        eng = Engine(5, functional=True)
        run_collective(PIPELINED_BCAST, eng, 4 * KB, root=3, imax=512)

    def test_ragged_slices(self):
        eng = Engine(3, functional=True)
        run_collective(PIPELINED_BCAST, eng, 1000, imax=384)

    @given(p=st.integers(2, 8), s_units=st.integers(1, 400),
           root=st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_property(self, p, s_units, root):
        eng = Engine(p, functional=True)
        run_collective(PIPELINED_BCAST, eng, 8 * s_units,
                       root=root % p, imax=256)


class TestDAVAndStructure:
    def test_dav(self):
        """Root copies s in; p-1 ranks copy s out: DAV = 2s + 2s(p-1)."""
        s = 16 * KB
        p = 8
        eng = Engine(p, machine=TINY, functional=False)
        res = run_collective(PIPELINED_BCAST, eng, s, imax=KB)
        assert res.traffic.dav == 2 * s + 2 * s * (p - 1)

    def test_double_buffered_shm(self):
        eng = Engine(4, functional=False, machine=TINY)
        env = make_env(PIPELINED_BCAST, engine=eng, s=1 << 20, imax=4 * KB)
        assert env.shm.nbytes == 2 * 4 * KB

    def test_work_set_formula(self):
        # Algorithm 3 line 2: W = s + s*(p-1) + 2*I
        eng = Engine(4, functional=False, machine=TINY)
        s, imax = 64 * KB, 4 * KB
        env = make_env(PIPELINED_BCAST, engine=eng, s=s, imax=imax)
        assert env.work_set == s + s * 3 + 2 * imax

    def test_adaptive_copyout_nt_on_large(self):
        eng = Engine(8, machine=TINY, functional=False, trace=True)
        s = 2 << 20  # W = s*p >> TINY cache
        run_collective(PIPELINED_BCAST, eng, s,
                       copy_policy="adaptive", imax=64 * KB)
        # all copy-outs NT, all root copy-ins temporal
        assert eng.trace.copy_bytes(nt=True) == 7 * s
        assert eng.trace.copy_bytes(nt=False) == s

    def test_pipeline_overlaps_root_and_readers(self):
        """With many slices, completion time is far below the serial
        (copy-in then copy-out) sum."""
        s = 1 << 20
        eng = Engine(8, machine=TINY, functional=False)
        piped = run_collective(PIPELINED_BCAST, eng, s, imax=16 * KB).time
        eng2 = Engine(8, machine=TINY, functional=False)
        serial = run_collective(PIPELINED_BCAST, eng2, s, imax=s).time
        assert piped < serial
