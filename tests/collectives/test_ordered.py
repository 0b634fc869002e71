"""Operator registry + order-preserving collective tests.

The headline property: with a non-commutative operator, the ordered
chain matches the rank-order left-fold oracle exactly, while the
reordering algorithms (MA) genuinely do not — the routing layer must
therefore pick the chain.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE
from repro.collectives.ops import (
    ReduceOp,
    get_op,
    is_commutative,
    op_names,
    register_op,
)
from repro.collectives.ordered import (
    ORDERED_ALLREDUCE,
    ORDERED_REDUCE,
    ORDERED_REDUCE_SCATTER,
)
from repro.collectives.switching import select
from repro.sim.engine import Engine
from repro.sim.scheduler import FifoScheduler

from tests.conftest import TINY

ALGS = [ORDERED_REDUCE_SCATTER, ORDERED_ALLREDUCE, ORDERED_REDUCE]


class TestOpRegistry:
    def test_predefined_ops(self):
        assert {"sum", "prod", "max", "min", "sub"} <= set(op_names())
        assert is_commutative("sum")
        assert not is_commutative("sub")

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown reduction op"):
            get_op("xor")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_op("sum", np.add)

    def test_register_custom(self):
        op = register_op("test-avg2", lambda a, b, out=None: np.add(
            a, b, out=out), commutative=True, replace=True)
        assert isinstance(op, ReduceOp)
        assert get_op("test-avg2") is op

    def test_callable(self):
        out = get_op("sub")(np.array([5.0]), np.array([2.0]))
        assert out[0] == 3.0

    def test_replaced_op_reaches_the_engine(self):
        """The engine reduces with the registry's current operator, so
        a ``replace=True`` re-registration takes effect on the next
        run (the oracle already reads the registry)."""
        register_op("test-rereg", np.add, commutative=False, replace=True)
        run_collective(ORDERED_ALLREDUCE, Engine(3), 64, op="test-rereg")
        register_op("test-rereg", np.maximum, commutative=False,
                    replace=True)
        run_collective(ORDERED_ALLREDUCE, Engine(3), 64, op="test-rereg")


class TestOrderedCorrectness:
    """run_collective's oracle is a rank-order left fold — for
    `sub` only an order-preserving algorithm can match it."""

    @pytest.mark.parametrize("alg", ALGS, ids=[a.name for a in ALGS])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_sub_matches_left_fold(self, alg, p):
        eng = Engine(p, functional=True)
        run_collective(alg, eng, 960, op="sub", imax=128)

    @pytest.mark.parametrize("alg", ALGS, ids=[a.name for a in ALGS])
    def test_commutative_ops_also_work(self, alg):
        eng = Engine(4, functional=True)
        run_collective(alg, eng, 4096, op="sum", imax=512)

    def test_ma_gets_sub_wrong(self):
        """Negative control: the MA reordering genuinely breaks `sub`."""
        eng = Engine(4, functional=True)
        with pytest.raises(AssertionError):
            run_collective(MA_ALLREDUCE, eng, 4096, op="sub", imax=512)

    @given(p=st.integers(2, 6), s_units=st.integers(1, 300))
    @settings(max_examples=25, deadline=None)
    def test_property_sub_left_fold(self, p, s_units):
        eng = Engine(p, functional=True)
        run_collective(ORDERED_ALLREDUCE, eng, 8 * s_units, op="sub", imax=256)

    def test_schedule_fuzzing_ordered(self):
        for seed in (3, 17, 91):
            eng = Engine(5, functional=True,
                         scheduler=FifoScheduler(seed=seed))
            run_collective(ORDERED_ALLREDUCE, eng, 4096, op="sub", imax=256)


class TestRouting:
    def test_non_commutative_routes_to_ordered(self):
        for kind, expect in (
            ("allreduce", "ordered-allreduce"),
            ("reduce", "ordered-reduce"),
            ("reduce_scatter", "ordered-reduce-scatter"),
        ):
            sel = select(kind, 16 << 20, op="sub")
            assert sel.algorithm.name == expect
            assert "non-commutative" in sel.reason

    def test_commutative_keeps_fast_path(self):
        sel = select("allreduce", 16 << 20, op="sum")
        assert sel.algorithm.name == "socket-ma-allreduce"

    def test_yhccl_facade_end_to_end(self):
        from repro.library.communicator import Communicator
        from repro.library.yhccl import YHCCL

        comm = Communicator(4, machine=TINY, functional=True)
        r = YHCCL(comm).allreduce(8 * 1024, op="sub")
        assert r.algorithm == "ordered-allreduce"


class TestOrderedTiming:
    def test_pipeline_beats_nonpipelined_chain(self):
        """Slice pipelining: many slices finish far faster than one
        monolithic chain pass."""
        s = 1 << 20
        eng1 = Engine(8, machine=TINY, functional=False)
        piped = run_collective(ORDERED_ALLREDUCE, eng1, s, imax=16 * 1024).time
        eng2 = Engine(8, machine=TINY, functional=False)
        serial = run_collective(ORDERED_ALLREDUCE, eng2, s, imax=s).time
        assert piped < serial

    def test_dav_matches_derivation(self):
        """DAV = s(3p-1) for the chain RS, + 2sp copy-out for allreduce."""
        s, p = 64 * 1024, 8
        eng = Engine(p, machine=TINY, functional=False)
        rs = run_collective(ORDERED_REDUCE_SCATTER, eng, s, imax=4 * 1024)
        assert rs.dav == s * (3 * p - 1) + 2 * s  # + block copy-out
        eng = Engine(p, machine=TINY, functional=False)
        ar = run_collective(ORDERED_ALLREDUCE, eng, s, imax=4 * 1024)
        assert ar.dav == s * (3 * p - 1) + 2 * s * p
