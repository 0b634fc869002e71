"""Copy-primitive tests: policy resolution and primitive behaviour."""

import pytest

from repro.copyengine.primitives import copy, kernel_copy_time, resolve_nt
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024


class TestResolveNT:
    def test_t_never(self):
        assert resolve_nt("t", 1 << 30, TINY, t_flag=True, work_set=1 << 40,
                          cache_capacity=0) is False

    def test_nt_always(self):
        assert resolve_nt("nt", 8, TINY) is True
        assert resolve_nt("nt", 8, None) is True

    def test_memmove_threshold(self):
        thr = TINY.memmove_nt_threshold
        assert resolve_nt("memmove", thr, TINY) is True
        assert resolve_nt("memmove", thr - 1, TINY) is False
        # no machine, no library threshold to cross
        assert resolve_nt("memmove", 1 << 40, None) is False

    def test_adaptive_needs_both_conditions(self):
        # Algorithm 1: NT iff t_flag and W > C, whatever the copy size
        assert resolve_nt("adaptive", 8, TINY, t_flag=True, work_set=100,
                          cache_capacity=10) is True
        assert resolve_nt("adaptive", 1 << 30, TINY, t_flag=True,
                          work_set=10, cache_capacity=100) is False
        assert resolve_nt("adaptive", 8, TINY, t_flag=False, work_set=100,
                          cache_capacity=10) is False

    def test_unknown_policy_raises(self):
        # "kernel" is a copy mechanism, not a store-path rule
        for policy in ("bogus", "kernel"):
            with pytest.raises(ValueError, match="unknown copy policy"):
                resolve_nt(policy, 8, TINY)


def _run_one(policy, **kw):
    eng = Engine(1, machine=TINY, functional=True, trace=True)
    src = eng.alloc(0, 64 * KB, fill=1.0)
    dst = eng.alloc(0, 64 * KB, fill=0.0)

    def program(ctx):
        copy(ctx, dst.view(), src.view(), policy, **kw)

    eng.run(program)
    assert dst.array()[0] == 1.0  # data moved
    return eng.trace.records[0]


class TestPrimitives:
    def test_t_copy_is_temporal(self):
        assert _run_one("t").nt is False

    def test_nt_copy_is_nontemporal(self):
        assert _run_one("nt").nt is True

    def test_memmove_small_is_temporal(self):
        # 64 KB < TINY's 256 KB threshold
        assert _run_one("memmove").nt is False

    def test_memmove_large_is_nt(self):
        eng = Engine(1, machine=TINY, functional=False, trace=True)
        src = eng.alloc(0, 512 * KB)
        dst = eng.alloc(0, 512 * KB)

        def program(ctx):
            copy(ctx, dst.view(), src.view(), "memmove")

        eng.run(program)
        assert eng.trace.records[0].nt is True

    def test_kernel_copy_never_nt(self):
        rec = _run_one("kernel")
        assert rec.nt is False
        assert rec.policy == "kernel"

    def test_kernel_copy_charges_page_overhead(self):
        eng = Engine(1, machine=TINY, functional=False)
        src = eng.alloc(0, 64 * KB)
        d1 = eng.alloc(0, 64 * KB)
        d2 = eng.alloc(0, 64 * KB)

        def plain(ctx):
            copy(ctx, d1.view(), src.view(), "t")

        t_plain = eng.run(plain).times[0]

        def kern(ctx):
            copy(ctx, d2.view(), src.view(), "kernel")

        eng.memsys.reset_caches()
        t_kern = eng.run(kern).times[0]
        pages = 64 * KB // TINY.kernel_page_size
        min_extra = TINY.kernel_syscall_overhead + pages * TINY.kernel_page_overhead
        assert t_kern >= t_plain + min_extra * 0.9
        assert kernel_copy_time(TINY, 64 * KB) == min_extra
        assert kernel_copy_time(None, 64 * KB) == 0.0

    def test_kernel_copy_contention_scales(self):
        eng = Engine(1, machine=TINY, functional=False)
        src = eng.alloc(0, 64 * KB)
        d1 = eng.alloc(0, 64 * KB)
        d2 = eng.alloc(0, 64 * KB)

        t1 = eng.run(lambda ctx: copy(ctx, d1.view(), src.view(), "kernel",
                                      contention=1)).times[0]
        eng.memsys.reset_caches()
        t8 = eng.run(lambda ctx: copy(ctx, d2.view(), src.view(), "kernel",
                                      contention=8)).times[0]
        assert t8 > t1

    def test_kernel_copy_rejects_bad_contention(self):
        eng = Engine(1, machine=TINY, functional=False)
        src = eng.alloc(0, 64)
        dst = eng.alloc(0, 64)

        def program(ctx):
            copy(ctx, dst.view(), src.view(), "kernel", contention=0)

        with pytest.raises(ValueError):
            eng.run(program)
        with pytest.raises(ValueError):
            kernel_copy_time(None, 64, contention=0)

    def test_copy_with_policy_dispatch(self):
        rec = _run_one("nt")
        assert rec.nt is True and rec.policy == "nt"
        rec = _run_one("kernel")
        assert rec.policy == "kernel"
        rec = _run_one("adaptive", t_flag=True, work_set=2, cache_capacity=1)
        assert rec.nt is True and rec.policy == "adaptive"
