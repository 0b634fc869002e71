"""RG pipelined tree reduction tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.common import run_collective
from repro.collectives.rg import (
    RG_ALLREDUCE,
    RG_REDUCE,
    RGAllreduce,
    RGReduce,
    build_tree,
)
from repro.models.dav import implementation_dav
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024


class TestBuildTree:
    def test_single_rank_no_levels(self):
        assert build_tree(1, 2) == []

    def test_exact_ternary(self):
        levels = build_tree(9, 2)
        assert len(levels) == 2
        assert len(levels[0]) == 3
        assert levels[1][0].parent == 0
        assert levels[1][0].children == (3, 6)

    def test_singleton_tail_group(self):
        levels = build_tree(4, 2)  # 3+1 at level 0
        assert levels[0][1].children == ()

    def test_every_rank_appears_once_per_level_role(self):
        for p, k in ((7, 2), (16, 3), (64, 2)):
            levels = build_tree(p, k)
            consumed = set()
            for lvl in levels:
                for g in lvl:
                    for c in g.children:
                        assert c not in consumed
                        consumed.add(c)
            # everyone but the root is eventually consumed
            assert len(consumed) == p - 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_tree(0, 2)
        with pytest.raises(ValueError):
            build_tree(4, 0)


class TestFunctional:
    @pytest.mark.parametrize("alg", [RG_REDUCE, RG_ALLREDUCE])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 9, 13])
    def test_correctness(self, alg, p):
        eng = Engine(p, functional=True)
        run_collective(alg, eng, 960)

    @pytest.mark.parametrize("branch", [1, 2, 3, 4])
    def test_branching_degrees(self, branch):
        eng = Engine(8, functional=True)
        run_collective(RGAllreduce(branch=branch, slice_size=256), eng, 4 * KB)

    def test_pipelined_multi_slice(self):
        eng = Engine(5, functional=True)
        run_collective(RGAllreduce(branch=2, slice_size=128), eng, 4 * KB)

    def test_nonzero_root(self):
        eng = Engine(6, functional=True)
        run_collective(RGReduce(branch=2, slice_size=256), eng, 3 * KB, root=4)

    @given(p=st.integers(2, 9), branch=st.integers(1, 3),
           s_units=st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_property(self, p, branch, s_units):
        eng = Engine(p, functional=True)
        run_collective(RGAllreduce(branch=branch, slice_size=512),
                       eng, 8 * s_units)


class TestDAV:
    @pytest.mark.parametrize("p,k", [(8, 2), (6, 2), (7, 2), (8, 3)])
    def test_allreduce_formula(self, p, k):
        # p=7, k=2 exercises the level-0 singleton group (extra 2s copy)
        s = 32 * KB
        eng = Engine(p, machine=TINY, functional=False)
        res = run_collective(RGAllreduce(branch=k, slice_size=4 * KB), eng, s)
        assert res.dav == implementation_dav("allreduce", "rg", s, p, k=k)

    def test_reduce_has_no_copyout_term(self):
        s = 32 * KB
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(RGReduce(branch=2, slice_size=4 * KB), eng, s)
        assert res.dav == implementation_dav("reduce", "rg", s, 8, k=2)


class TestPipelining:
    def test_double_buffer_bounded_shm(self):
        from repro.collectives.common import make_env

        eng = Engine(8, functional=False, machine=TINY)
        env = make_env(RGAllreduce(branch=2, slice_size=4 * KB), engine=eng,
                       s=1 << 20)
        assert env.shm.nbytes == 2 * 8 * 4 * KB
