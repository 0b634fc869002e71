"""Ring reduce-scatter / allreduce tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.common import run_collective
from repro.collectives.ring import RING_ALLREDUCE, RING_REDUCE_SCATTER
from repro.models.dav import implementation_dav
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024


class TestFunctional:
    @pytest.mark.parametrize("alg", [RING_REDUCE_SCATTER, RING_ALLREDUCE])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_correctness(self, alg, p):
        eng = Engine(p, functional=True)
        run_collective(alg, eng, 960)

    @pytest.mark.parametrize("op", ["sum", "max", "min", "prod"])
    def test_operators(self, op):
        eng = Engine(4, functional=True)
        run_collective(RING_ALLREDUCE, eng, 4 * KB, op=op)

    def test_ragged(self):
        eng = Engine(7, functional=True)
        run_collective(RING_REDUCE_SCATTER, eng, 1000)

    @given(p=st.integers(2, 7), s_units=st.integers(1, 300))
    @settings(max_examples=25, deadline=None)
    def test_property(self, p, s_units):
        eng = Engine(p, functional=True)
        run_collective(RING_ALLREDUCE, eng, 8 * s_units)


class TestDAV:
    def test_reduce_scatter_formula(self):
        s = 32 * KB
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(RING_REDUCE_SCATTER, eng, s)
        assert res.dav == implementation_dav("reduce_scatter", "ring", s, 8)

    def test_allreduce_formula(self):
        s = 32 * KB
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(RING_ALLREDUCE, eng, s)
        assert res.dav == implementation_dav("allreduce", "ring", s, 8)


class TestStructure:
    def test_steps_scale_linearly(self):
        """Sync count grows ~linearly with p (the ring's weakness)."""
        counts = {}
        for p in (4, 8):
            eng = Engine(p, machine=TINY, functional=False)
            counts[p] = run_collective(
                RING_REDUCE_SCATTER, eng, 8 * KB
            ).sync_count
        assert counts[8] > 1.7 * counts[4]

    def test_ma_beats_ring_on_large_messages(self):
        """The movement-avoiding design's whole point (Table 1)."""
        from repro.collectives.ma import MA_REDUCE_SCATTER

        s = 2 << 20
        eng1 = Engine(8, machine=TINY, functional=False)
        t_ring = run_collective(RING_REDUCE_SCATTER, eng1, s).time
        eng2 = Engine(8, machine=TINY, functional=False)
        t_ma = run_collective(MA_REDUCE_SCATTER, eng2, s, imax=64 * KB).time
        assert t_ma < t_ring
