"""YHCCL library facade tests."""

import pytest

from repro.library.communicator import Communicator
from repro.library.yhccl import YHCCL, CollectiveResult
from repro.collectives.switching import YHCCLConfig

from tests.conftest import TINY

KB = 1024
MB = 1024 * KB


@pytest.fixture
def lib():
    return YHCCL(Communicator(8, machine=TINY, functional=False))


class TestAPI:
    def test_allreduce_result_fields(self, lib):
        r = lib.allreduce(1 * MB)
        assert isinstance(r, CollectiveResult)
        assert r.kind == "allreduce" and r.nbytes == 1 * MB
        assert r.time > 0 and r.dav > 0
        assert r.algorithm == "socket-ma-allreduce"
        assert r.time_us == pytest.approx(r.time * 1e6)
        assert r.dab == pytest.approx(r.dav / r.time)

    def test_dab_zero_time_is_zero_not_inf(self):
        r = CollectiveResult(kind="allreduce", nbytes=0, time=0.0, dav=0,
                             memory_traffic=0, sync_count=0,
                             algorithm="ma", copy_policy="memmove")
        assert r.dab == 0.0

    def test_all_five_collectives(self, lib):
        for call in (lib.allreduce, lib.reduce_scatter, lib.bcast,
                     lib.allgather):
            assert call(64 * KB).time > 0
        assert lib.reduce(64 * KB, root=3).time > 0

    def test_small_message_routing(self, lib):
        r = lib.allreduce(16 * KB)
        assert r.algorithm == "dpml2-allreduce"

    def test_functional_mode_verifies(self):
        comm = Communicator(4, machine=TINY, functional=True)
        lib = YHCCL(comm)
        # run_collective verifies against numpy oracles internally
        lib.allreduce(8 * KB)
        lib.reduce(8 * KB)
        lib.bcast(8 * KB)
        lib.allgather(8 * KB)
        lib.reduce_scatter(8 * KB)

    def test_custom_config(self):
        comm = Communicator(8, machine=TINY, functional=False)
        lib = YHCCL(comm, config=YHCCLConfig(socket_aware=False,
                                             adaptive_copy=False))
        r = lib.allreduce(1 * MB)
        assert r.algorithm == "ma-allreduce"
        assert r.copy_policy == "t"

    def test_ops_parameter(self):
        comm = Communicator(4, machine=TINY, functional=True)
        lib = YHCCL(comm)
        lib.allreduce(8 * KB, op="max")
        lib.reduce(8 * KB, op="min")

    def test_platform_imax(self):
        from repro.collectives.switching import platform_imax
        from repro.machine import NODE_A, NODE_B

        assert platform_imax(NODE_A) == 256 * KB
        assert platform_imax(NODE_B) == 128 * KB
        assert platform_imax(None) == 256 * KB
        assert YHCCL(Communicator(4, machine=NODE_B,
                                  functional=False)).config.imax == 128 * KB
        assert YHCCL(Communicator(4)).config.imax == 256 * KB


class TestAdaptiveBehaviourThroughFacade:
    def test_adaptive_beats_plain_t_on_large(self):
        comm = Communicator(8, machine=TINY, functional=False)
        adaptive = YHCCL(comm).allreduce(4 * MB).time
        comm2 = Communicator(8, machine=TINY, functional=False)
        plain = YHCCL(
            comm2, config=YHCCLConfig(adaptive_copy=False)
        ).allreduce(4 * MB).time
        assert adaptive < plain
