"""DPML multi-leader reduction tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.common import run_collective
from repro.collectives.dpml import (
    DPML2_ALLREDUCE,
    DPML_ALLREDUCE,
    DPML_REDUCE,
    DPML_REDUCE_SCATTER,
)
from repro.models.dav import implementation_dav
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024
ALGS = {
    "reduce_scatter": DPML_REDUCE_SCATTER,
    "allreduce": DPML_ALLREDUCE,
    "reduce": DPML_REDUCE,
}


class TestFunctional:
    @pytest.mark.parametrize("kind", list(ALGS))
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_correctness(self, kind, p):
        eng = Engine(p, functional=True)
        run_collective(ALGS[kind], eng, 960)

    @pytest.mark.parametrize("p", [1, 2, 4, 6, 7])
    def test_two_level_correctness(self, p):
        eng = Engine(p, functional=True)
        run_collective(DPML2_ALLREDUCE, eng, 8 * 150)

    def test_two_level_with_machine(self):
        eng = Engine(8, machine=TINY, functional=True)
        run_collective(DPML2_ALLREDUCE, eng, 16 * KB)

    def test_nonzero_root(self):
        eng = Engine(5, functional=True)
        run_collective(DPML_REDUCE, eng, 4 * KB, root=2)

    @given(p=st.integers(2, 7), s_units=st.integers(1, 300))
    @settings(max_examples=20, deadline=None)
    def test_property(self, p, s_units):
        eng = Engine(p, functional=True)
        run_collective(DPML_ALLREDUCE, eng, 8 * s_units)


class TestDAV:
    @pytest.mark.parametrize("kind", list(ALGS))
    def test_formula(self, kind):
        s = 32 * KB
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(ALGS[kind], eng, s)
        assert res.dav == implementation_dav(kind, "dpml", s, 8)

    def test_copy_in_is_whole_buffers(self):
        """DPML's defining redundancy: 2sp copy-in (Figure 2a)."""
        eng = Engine(4, machine=TINY, functional=False, trace=True)
        s = 16 * KB
        run_collective(DPML_REDUCE_SCATTER, eng, s)
        copy_in = sum(
            r.nbytes for r in eng.trace
            if r.kind == "copy" and r.src.startswith("send")
        )
        assert copy_in == 4 * s


class TestLowSynchronization:
    def test_barrier_count_constant_in_p(self):
        """DPML's advantage: 2 barriers regardless of p (Section 5.1)."""
        for p in (4, 8):
            eng = Engine(p, machine=TINY, functional=False)
            res = run_collective(DPML_REDUCE_SCATTER, eng, 8 * KB)
            assert res.sync_count == 1  # one node barrier (RS copies out)

    def test_dpml_beats_ma_on_small_messages(self):
        from repro.collectives.ma import MA_ALLREDUCE

        s = 2 * KB  # sync-dominated regime: many MA rounds of tiny slices
        eng1 = Engine(8, machine=TINY, functional=False)
        t_dpml = run_collective(DPML2_ALLREDUCE, eng1, s).time
        eng2 = Engine(8, machine=TINY, functional=False)
        t_ma = run_collective(MA_ALLREDUCE, eng2, s, imax=64).time
        assert t_dpml < t_ma

    def test_ma_beats_dpml_on_large_messages(self):
        from repro.collectives.ma import MA_ALLREDUCE

        s = 2 << 20
        eng1 = Engine(8, machine=TINY, functional=False)
        t_dpml = run_collective(DPML_ALLREDUCE, eng1, s).time
        eng2 = Engine(8, machine=TINY, functional=False)
        t_ma = run_collective(MA_ALLREDUCE, eng2, s, imax=64 * KB).time
        assert t_ma < t_dpml
