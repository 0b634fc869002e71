"""Adaptive-copy (Algorithm 1) tests, incl. the paper's capacity model."""

import pytest

from repro.copyengine.primitives import copy, resolve_nt
from repro.machine.spec import NODE_A, NODE_B, available_cache_capacity, KB
from repro.sim.engine import Engine

from tests.conftest import TINY


def _adaptive_nt(machine, p, work_set, t_flag):
    return resolve_nt("adaptive", 8, machine, t_flag=t_flag,
                      work_set=work_set,
                      cache_capacity=available_cache_capacity(machine, p))


class TestAdaptiveCopyDecision:
    def test_nt_requires_flag_and_overflow(self):
        assert _adaptive_nt(TINY, 8, 1 << 30, True) is True
        assert _adaptive_nt(TINY, 8, 1 << 30, False) is False

    def test_small_work_set_stays_temporal(self):
        assert _adaptive_nt(TINY, 8, 1024, True) is False


class TestOneShotForm:
    def test_matches_algorithm_1(self):
        eng = Engine(1, machine=TINY, functional=False, trace=True)
        src = eng.alloc(0, 64)
        dst = eng.alloc(0, 64)

        def program(ctx):
            copy(ctx, dst.view(), src.view(), "adaptive", t_flag=True,
                 work_set=100, cache_capacity=1)

        eng.run(program)
        assert eng.trace.records[0].nt is True
        assert eng.trace.records[0].policy == "adaptive"


class TestPaperSwitchPoints:
    """Section 5.4's derived switch sizes for socket-aware MA allreduce:
    2176 KB on NodeA (p=64, Imax=256 KB), 1152 KB on NodeB (p=48,
    Imax=128 KB)."""

    @pytest.mark.parametrize("machine,p,imax,expect_kb", [
        (NODE_A, 64, 256 * KB, 2176),
        (NODE_B, 48, 128 * KB, 1152),
    ])
    def test_switch_size(self, machine, p, imax, expect_kb):
        from repro.models.nt_model import (
            nt_switch_message_size,
            uses_nt_store,
            work_set_size,
        )

        s_switch = nt_switch_message_size("allreduce", machine, p, imax=imax)
        assert s_switch == expect_kb * KB

        # Algorithm 1 agrees with the closed form: just below stays
        # temporal, above goes NT
        for s, want in ((expect_kb * KB - 8 * KB, False),
                        (expect_kb * KB + 8 * KB, True)):
            w = work_set_size("allreduce", s, p, imax=imax)
            assert _adaptive_nt(machine, p, w, True) is want
            assert uses_nt_store("allreduce", s, machine, p, imax=imax) \
                is want
