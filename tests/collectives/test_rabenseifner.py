"""Rabenseifner recursive-halving tests, incl. non-power-of-two ranks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.common import run_collective
from repro.collectives.rabenseifner import (
    Plan,
    RABENSEIFNER_ALLREDUCE,
    RABENSEIFNER_REDUCE_SCATTER,
    participant_range,
)
from repro.models.dav import implementation_dav
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024


class TestPlan:
    def test_power_of_two_identity(self):
        plan = Plan(8)
        assert plan.pof2 == 8 and plan.rem == 0
        assert [plan.newrank[r] for r in range(8)] == list(range(8))

    def test_non_power_of_two_folds_odds(self):
        plan = Plan(6)  # pof2=4, rem=2: ranks 0-3 pair up
        assert plan.pof2 == 4 and plan.rem == 2
        assert plan.newrank[1] == -1 and plan.newrank[3] == -1
        assert plan.newrank[0] == 0 and plan.newrank[2] == 1
        assert plan.newrank[4] == 2 and plan.newrank[5] == 3

    def test_oldrank_roundtrip(self):
        for p in (5, 6, 7, 12, 48):
            plan = Plan(p)
            for r in range(p):
                nr = plan.newrank[r]
                if nr >= 0:
                    assert plan.oldrank(nr) == r


class TestParticipantRanges:
    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_ranges_partition_message(self, p):
        plan = Plan(p)
        s = 8 * 128
        ranges = [participant_range(plan, nr, s) for nr in range(plan.pof2)]
        ranges.sort()
        assert ranges[0][0] == 0 and ranges[-1][1] == s
        for (l1, h1), (l2, _) in zip(ranges, ranges[1:]):
            assert h1 == l2

    def test_ranges_disjoint_nonpow2(self):
        plan = Plan(6)
        s = 1024
        covered = set()
        for nr in range(plan.pof2):
            lo, hi = participant_range(plan, nr, s)
            r = set(range(lo, hi))
            assert not (covered & r)
            covered |= r
        assert covered == set(range(s))


class TestFunctional:
    @pytest.mark.parametrize("alg", [RABENSEIFNER_REDUCE_SCATTER,
                                     RABENSEIFNER_ALLREDUCE])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_correctness(self, alg, p):
        eng = Engine(p, functional=True)
        run_collective(alg, eng, 8 * 120)

    @pytest.mark.parametrize("op", ["sum", "max", "prod"])
    def test_operators(self, op):
        eng = Engine(4, functional=True)
        run_collective(RABENSEIFNER_ALLREDUCE, eng, 4 * KB, op=op)

    @given(p=st.integers(2, 9), s_units=st.integers(2, 300))
    @settings(max_examples=25, deadline=None)
    def test_property(self, p, s_units):
        eng = Engine(p, functional=True)
        run_collective(RABENSEIFNER_ALLREDUCE, eng, 8 * s_units)


class TestDAV:
    def test_pow2_reduce_scatter_close_to_formula(self):
        s = 32 * KB
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(RABENSEIFNER_REDUCE_SCATTER, eng, s)
        assert res.dav == implementation_dav("reduce_scatter",
                                             "rabenseifner", s, 8)

    def test_pow2_allreduce_close_to_formula(self):
        s = 32 * KB
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(RABENSEIFNER_ALLREDUCE, eng, s)
        assert res.dav == implementation_dav("allreduce", "rabenseifner",
                                             s, 8)


class TestLatencyAdvantage:
    def test_log_sync_steps(self):
        """Rabenseifner's sync count grows ~logarithmically — its win
        over ring on small messages (Section 5.3)."""
        counts = {}
        for p in (4, 8):
            eng = Engine(p, machine=TINY, functional=False)
            counts[p] = run_collective(
                RABENSEIFNER_REDUCE_SCATTER, eng, 8 * KB
            ).sync_count
        # total waits = p * log2(p): 4*2=8 and 8*3=24 — not quadratic
        assert counts[4] == 8 and counts[8] == 24

    def test_beats_ma_on_tiny_messages(self):
        from repro.collectives.ma import MA_ALLREDUCE

        s = 2 * KB
        eng1 = Engine(8, machine=TINY, functional=False)
        t_rab = run_collective(RABENSEIFNER_ALLREDUCE, eng1, s).time
        eng2 = Engine(8, machine=TINY, functional=False)
        t_ma = run_collective(MA_ALLREDUCE, eng2, s, imax=256).time
        assert t_rab < t_ma
