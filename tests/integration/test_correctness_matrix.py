"""Cross-cutting functional correctness: every algorithm x rank count x
message shape x operator x dtype, plus hypothesis-driven fuzzing of the
whole reduction-collective surface."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.allgather import PIPELINED_ALLGATHER
from repro.collectives.bcast import PIPELINED_BCAST
from repro.collectives.common import run_collective
from repro.collectives.dpml import (
    DPML2_ALLREDUCE,
    DPML_ALLREDUCE,
    DPML_REDUCE,
    DPML_REDUCE_SCATTER,
)
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE, MA_REDUCE_SCATTER
from repro.collectives.rabenseifner import (
    RABENSEIFNER_ALLREDUCE,
    RABENSEIFNER_REDUCE_SCATTER,
)
from repro.collectives.rg import RG_ALLREDUCE, RG_REDUCE
from repro.collectives.ring import RING_ALLREDUCE, RING_REDUCE_SCATTER
from repro.collectives.socket_aware import (
    SOCKET_MA_ALLREDUCE,
    SOCKET_MA_REDUCE,
    SOCKET_MA_REDUCE_SCATTER,
)
from repro.sim.engine import Engine

from tests.conftest import TINY

REDUCTION_ALGS = [
    MA_REDUCE_SCATTER, MA_ALLREDUCE, MA_REDUCE,
    SOCKET_MA_REDUCE_SCATTER, SOCKET_MA_ALLREDUCE, SOCKET_MA_REDUCE,
    RING_REDUCE_SCATTER, RING_ALLREDUCE,
    RABENSEIFNER_REDUCE_SCATTER, RABENSEIFNER_ALLREDUCE,
    DPML_REDUCE_SCATTER, DPML_ALLREDUCE, DPML_REDUCE, DPML2_ALLREDUCE,
    RG_ALLREDUCE, RG_REDUCE,
]


class TestFullMatrix:
    @pytest.mark.parametrize(
        "alg", REDUCTION_ALGS, ids=[a.name for a in REDUCTION_ALGS]
    )
    @pytest.mark.parametrize("p", [2, 6])
    @pytest.mark.parametrize("s", [96, 4096, 33333 * 8 // 8 * 8])
    def test_reduction_collectives(self, alg, p, s):
        eng = Engine(p, functional=True)
        run_collective(alg, eng, s, imax=512)

    @pytest.mark.parametrize(
        "alg", REDUCTION_ALGS, ids=[a.name for a in REDUCTION_ALGS]
    )
    def test_on_machine_with_adaptive_policy(self, alg):
        eng = Engine(8, machine=TINY, functional=True)
        run_collective(alg, eng, 24 * 1024, copy_policy="adaptive", imax=1024)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_dtypes(self, dtype):
        eng = Engine(4, functional=True, dtype=dtype)
        run_collective(MA_ALLREDUCE, eng, 4096, imax=512)

    def test_float32_bcast_allgather(self):
        eng = Engine(4, functional=True, dtype=np.float32)
        run_collective(PIPELINED_BCAST, eng, 4096, imax=512)
        eng = Engine(4, functional=True, dtype=np.float32)
        run_collective(PIPELINED_ALLGATHER, eng, 2048, imax=512)


class TestHypothesisFuzz:
    @given(
        alg_idx=st.integers(0, len(REDUCTION_ALGS) - 1),
        p=st.integers(2, 7),
        s_units=st.integers(1, 500),
        imax_units=st.integers(8, 128),
        op=st.sampled_from(["sum", "max", "min"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_algorithm_any_shape(self, alg_idx, p, s_units, imax_units,
                                     op):
        alg = REDUCTION_ALGS[alg_idx]
        eng = Engine(p, functional=True)
        run_collective(alg, eng, 8 * s_units, op=op, imax=8 * imax_units)

    @given(p=st.integers(2, 7), s_units=st.integers(1, 300),
           root=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_bcast_fuzz(self, p, s_units, root):
        eng = Engine(p, functional=True)
        run_collective(PIPELINED_BCAST, eng, 8 * s_units,
                       root=root % p, imax=256)


class TestSequentialReuse:
    def test_engine_runs_back_to_back_collectives(self):
        """An application performs many collectives on one engine; sync
        state must not leak between runs."""
        eng = Engine(4, machine=TINY, functional=True)
        for _ in range(3):
            run_collective(MA_ALLREDUCE, eng, 4096, imax=512)
            run_collective(PIPELINED_BCAST, eng, 2048, imax=512)

    def test_mixed_algorithms_same_engine(self):
        eng = Engine(6, functional=True)
        for alg in (MA_ALLREDUCE, DPML_ALLREDUCE, RING_ALLREDUCE,
                    RG_ALLREDUCE):
            run_collective(alg, eng, 4800, imax=512)
