"""Concurrency fuzzing: collective results must be schedule-invariant.

The engine can randomize which runnable rank it advances next
(``FifoScheduler(seed=...)``).  A collective whose cross-rank dependencies are all
protected by flags/barriers produces bit-identical results under every
schedule; a missing synchronization shows up as a divergent result (or
a deadlock).  This is the closest a deterministic simulator gets to a
race detector — and it exercised real bugs during development.

Every fuzzed run is additionally lifted into the schedule IR and
linted: the pass pipeline must certify the schedule has *no* unordered
conflicting accesses under any interleaving, not merely that this
particular interleaving produced the right bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.static.extract import ir_from_trace
from repro.analysis.static.passes import run_passes
from repro.collectives.allgather import PIPELINED_ALLGATHER
from repro.collectives.bcast import PIPELINED_BCAST
from repro.collectives.common import make_env, run_collective
from repro.collectives.dpml import DPML2_ALLREDUCE, DPML_ALLREDUCE
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE, MA_REDUCE_SCATTER
from repro.collectives.rabenseifner import RABENSEIFNER_ALLREDUCE
from repro.collectives.ordered import ORDERED_ALLREDUCE
from repro.collectives.rg import RGAllreduce
from repro.collectives.ring import RING_ALLREDUCE
from repro.collectives.socket_aware import SOCKET_MA_ALLREDUCE
from repro.sim.engine import Engine
from repro.sim.scheduler import FifoScheduler

FUZZ_TARGETS = [
    MA_REDUCE_SCATTER, MA_ALLREDUCE, MA_REDUCE, SOCKET_MA_ALLREDUCE,
    RING_ALLREDUCE, RABENSEIFNER_ALLREDUCE, DPML_ALLREDUCE,
    DPML2_ALLREDUCE, RGAllreduce(branch=2, slice_size=256),
    ORDERED_ALLREDUCE,
]


def _assert_clean(eng):
    report = run_passes(ir_from_trace(eng.trace, buffers=eng.buffers))
    assert report.ok, report.describe()


def _result_of(alg, schedule_seed, p=5, s=4096):
    eng = Engine(p, functional=True, seed=7, trace=True,
                 scheduler=FifoScheduler(seed=schedule_seed))
    run_collective(alg, eng, s, imax=512)
    # the runner verifies against the oracle; the passes prove the
    # schedule sound under *every* interleaving, not just this one
    _assert_clean(eng)
    return True


class TestScheduleInvariance:
    @pytest.mark.parametrize(
        "alg", FUZZ_TARGETS, ids=[a.name for a in FUZZ_TARGETS]
    )
    @pytest.mark.parametrize("schedule_seed", [1, 2, 3, 99])
    def test_reduction_collectives_schedule_invariant(self, alg,
                                                      schedule_seed):
        # run_collective verifies against the numpy oracle: a
        # schedule-dependent race would fail the verification
        assert _result_of(alg, schedule_seed)

    @pytest.mark.parametrize("schedule_seed", [1, 5, 11])
    def test_bcast_schedule_invariant(self, schedule_seed):
        eng = Engine(5, functional=True, trace=True,
                     scheduler=FifoScheduler(seed=schedule_seed))
        run_collective(PIPELINED_BCAST, eng, 4096, imax=512)
        _assert_clean(eng)

    @pytest.mark.parametrize("schedule_seed", [1, 5, 11])
    def test_allgather_schedule_invariant(self, schedule_seed):
        eng = Engine(5, functional=True, trace=True,
                     scheduler=FifoScheduler(seed=schedule_seed))
        run_collective(PIPELINED_ALLGATHER, eng, 2048, imax=512)
        _assert_clean(eng)

    @given(
        alg_idx=st.integers(0, len(FUZZ_TARGETS) - 1),
        schedule_seed=st.integers(0, 1 << 30),
        p=st.integers(2, 7),
        s_units=st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_fuzz(self, alg_idx, schedule_seed, p, s_units):
        eng = Engine(p, functional=True, seed=3, trace=True,
                     scheduler=FifoScheduler(seed=schedule_seed))
        run_collective(FUZZ_TARGETS[alg_idx], eng, 8 * s_units, imax=256)
        _assert_clean(eng)

    def test_bitwise_identical_across_schedules(self):
        """Same inputs, different schedules -> byte-identical output."""
        results = []
        for seed in (None, 17, 23):
            eng = Engine(4, functional=True, seed=11,
                         scheduler=FifoScheduler(seed=seed))
            env = make_env(MA_ALLREDUCE, engine=eng, s=2048, imax=256)
            eng.run(lambda ctx: MA_ALLREDUCE.program(ctx, env))
            results.append(env.recvbufs[0].array().copy())
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_timing_mode_under_fuzzing(self):
        """Fuzzed schedules must not deadlock on the machine model."""
        from tests.conftest import TINY

        for seed in (1, 2, 3):
            eng = Engine(8, machine=TINY, functional=False,
                         scheduler=FifoScheduler(seed=seed))
            run_collective(SOCKET_MA_ALLREDUCE, eng, 32 * 1024, imax=2048)
