"""Collective infrastructure tests: partitioning, slice rule, env."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.common import (
    CollectiveEnv,
    compute_slice_size,
    make_env,
    partition,
    run_collective,
    subslices,
    IMIN_DEFAULT,
)
from repro.collectives.ma import MA_ALLREDUCE
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024


class TestPartition:
    def test_even_split(self):
        parts = partition(64, 4)
        assert parts == [(0, 16), (16, 16), (32, 16), (48, 16)]

    def test_ragged_split_sums_to_total(self):
        parts = partition(100, 3)
        assert sum(n for _, n in parts) == 100
        assert parts[0][0] == 0
        for (o1, n1), (o2, _) in zip(parts, parts[1:]):
            assert o1 + n1 == o2

    def test_alignment(self):
        parts = partition(1000, 7)
        for off, n in parts[:-1]:
            assert off % 8 == 0 and n % 8 == 0

    def test_more_parts_than_units(self):
        parts = partition(16, 5)
        assert sum(n for _, n in parts) == 16
        assert any(n == 0 for _, n in parts)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            partition(10, 0)
        with pytest.raises(ValueError):
            partition(-1, 2)

    @given(st.integers(0, 1 << 20), st.integers(1, 128))
    @settings(max_examples=100, deadline=None)
    def test_property_contiguous_cover(self, total, parts):
        ps = partition(total, parts)
        assert len(ps) == parts
        off = 0
        for o, n in ps:
            assert o == off and n >= 0
            off += n
        assert off == total


class TestSliceSizeRule:
    def test_paper_rule(self):
        # I = max(min(s/p, Imax), Imin)
        assert compute_slice_size(64 * KB, 64, imax=256 * KB) == IMIN_DEFAULT * 16
        assert compute_slice_size(256 * KB * 64, 64, imax=256 * KB) == 256 * KB
        assert compute_slice_size(1 << 30, 64, imax=256 * KB) == 256 * KB

    def test_minimum_is_cache_line(self):
        assert compute_slice_size(64, 64) == IMIN_DEFAULT

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            compute_slice_size(0, 4)

    @given(st.integers(1, 1 << 28), st.integers(1, 128))
    @settings(max_examples=100, deadline=None)
    def test_property_bounds(self, s, p):
        i = compute_slice_size(s, p)
        assert IMIN_DEFAULT <= i <= max(256 * KB, IMIN_DEFAULT)
        assert i % 8 == 0


class TestSubslices:
    def test_exact_division(self):
        assert subslices(0, 64, 16) == [(0, 16), (16, 16), (32, 16), (48, 16)]

    def test_remainder_tail(self):
        assert subslices(8, 20, 16) == [(8, 16), (24, 4)]

    def test_empty_range(self):
        assert subslices(0, 0, 16) == []

    def test_rejects_bad_slice(self):
        with pytest.raises(ValueError):
            subslices(0, 16, 0)


def _env_copy(env, *, t_flag):
    """Run one ``env.copy`` on rank 0; return its (nt, policy) record."""
    def program(ctx):
        if ctx.rank == 0:
            env.copy(ctx, env.recvbufs[0].view(0, 8),
                     env.sendbufs[0].view(0, 8), t_flag=t_flag)

    env.engine.run(program)
    rec = env.engine.trace.records[-1]
    return rec.nt, rec.policy


class TestCollectiveEnv:
    def test_rejects_unknown_op(self):
        eng = Engine(2, functional=True)
        with pytest.raises(ValueError):
            CollectiveEnv(engine=eng, sendbufs=[], recvbufs=[], shm=None,
                          s=8, p=2, op="xor")

    def test_policy_resolution(self):
        eng = Engine(2, machine=TINY, functional=False, trace=True)
        env = make_env(MA_ALLREDUCE, engine=eng, s=1024, copy_policy="nt")
        assert _env_copy(env, t_flag=False) == (True, "nt")
        env.copy_policy = "t"
        assert _env_copy(env, t_flag=True) == (False, "t")

    def test_adaptive_uses_machine_capacity(self):
        eng = Engine(2, machine=TINY, functional=False)
        env = make_env(MA_ALLREDUCE, engine=eng, s=1024,
                       copy_policy="adaptive")
        assert env.cache_capacity == TINY.socket.l3.size + 2 * 64 * KB

    def test_unknown_policy_raises(self):
        eng = Engine(2, functional=True)
        env = make_env(MA_ALLREDUCE, engine=eng, s=1024)
        env.copy_policy = "weird"
        with pytest.raises(ValueError):
            _env_copy(env, t_flag=True)

    def test_make_env_buffers(self):
        eng = Engine(3, functional=True)
        env = make_env(MA_ALLREDUCE, engine=eng, s=240)
        assert len(env.sendbufs) == 3 and len(env.recvbufs) == 3
        assert env.shm.nbytes == MA_ALLREDUCE.shm_bytes(env)
        # send buffers hold distinct random data
        assert not np.array_equal(env.sendbufs[0].array(),
                                  env.sendbufs[1].array())


class TestRunCollective:
    def test_refuses_unknown_kind(self):
        class Scan:
            name = "stub-scan"
            kind = "scan"

        eng = Engine(2, functional=True)
        with pytest.raises(ValueError) as err:
            run_collective(Scan(), eng, 64)
        for kind in ("reduce_scatter", "reduce", "allreduce", "bcast",
                     "allgather"):
            assert kind in str(err.value)
        assert not eng.buffers  # refused before allocating
