"""Algebraic timing model tests: order-of-magnitude agreement with the
event simulator, and correct qualitative orderings."""

import pytest

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE
from repro.collectives.ring import RING_ALLREDUCE
from repro.machine.spec import NODE_A, KB, MB
from repro.models.timing import predict_time

from tests.conftest import TINY
from repro.sim.engine import Engine


class TestQualitativeOrderings:
    def test_ma_predicted_faster_than_ring_large(self):
        s = 64 * MB
        t_ma = predict_time("allreduce", "ma", s, 64, NODE_A)
        t_ring = predict_time("allreduce", "ring", s, 64, NODE_A)
        assert t_ma < t_ring

    def test_nt_stores_predicted_faster(self):
        s = 64 * MB
        t_nt = predict_time("allreduce", "socket-ma", s, 64, NODE_A,
                            nt_stores=True)
        t_t = predict_time("allreduce", "socket-ma", s, 64, NODE_A,
                           nt_stores=False)
        assert t_nt < t_t

    def test_monotone_in_message_size(self):
        ts = [
            predict_time("allreduce", "ma", s, 64, NODE_A)
            for s in (1 * MB, 8 * MB, 64 * MB)
        ]
        assert ts[0] < ts[1] < ts[2]


class TestSyncStepSocketCount:
    """``socket-ma``'s sync-step count follows the machine's socket
    count (regression: the form was hard-coded to two sockets)."""

    def test_two_sockets_reproduce_the_original_form(self):
        from repro.models.timing import _SYNC_STEPS

        s, p, imax = 64 * MB, 64, 256 * KB
        assert _SYNC_STEPS["socket-ma"](s, p, imax, 2) == \
            (p // 2 - 1) * max(1, s // (p * imax)) + 1

    def test_one_socket_degenerates_to_flat_ma(self):
        from repro.models.timing import _SYNC_STEPS

        s, p, imax = 64 * MB, 64, 256 * KB
        assert _SYNC_STEPS["socket-ma"](s, p, imax, 1) == \
            _SYNC_STEPS["ma"](s, p, imax, 1)

    def test_more_sockets_fewer_intra_group_steps(self):
        from repro.models.timing import _SYNC_STEPS

        s, p, imax = 64 * MB, 64, 256 * KB
        steps = [_SYNC_STEPS["socket-ma"](s, p, imax, m)
                 for m in (1, 2, 4)]
        # smaller per-socket groups synchronize in fewer rounds; the
        # extra cross-socket combines are far cheaper than the rounds
        # they replace
        assert steps[0] > steps[1] > steps[2]

    def test_predict_time_reads_machine_sockets(self):
        import dataclasses

        s = 64 * MB
        four = dataclasses.replace(NODE_A, sockets=4)
        t2 = predict_time("allreduce", "socket-ma", s, 64, NODE_A)
        t4 = predict_time("allreduce", "socket-ma", s, 64, four)
        assert t2 != t4, "socket count must reach the sync-step model"


class TestSimulatorAgreement:
    """The coarse model should land within ~3x of the simulator on
    bandwidth-bound configurations (it has no cache simulation)."""

    @pytest.mark.parametrize("alg,name", [
        (MA_ALLREDUCE, "ma"),
        (RING_ALLREDUCE, "ring"),
    ])
    def test_within_factor(self, alg, name):
        s = 2 * MB
        eng = Engine(8, machine=TINY, functional=False)
        sim = run_collective(alg, eng, s, imax=64 * KB).time
        model = predict_time("allreduce", name, s, 8, TINY, imax=64 * KB)
        assert model / sim < 3.5 and sim / model < 3.5
