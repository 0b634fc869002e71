"""Additional engine coverage: subset runs, start times, determinism,
cross-run isolation and misuse errors."""

import numpy as np
import pytest

from repro.sim.engine import DeadlockError, Engine
from repro.sim.scheduler import FifoScheduler

from tests.conftest import TINY


class TestSubsetRuns:
    def test_subset_of_ranks(self):
        eng = Engine(6, machine=TINY, functional=True)
        hits = []

        def program(ctx):
            hits.append(ctx.rank)
            yield ctx.barrier(group=[1, 3, 5])

        res = eng.run(program, ranks=[1, 3, 5])
        assert sorted(hits) == [1, 3, 5]
        assert len(res.times) == 3

    def test_subset_contention_uses_subset(self):
        eng = Engine(8, machine=TINY, functional=False)
        buf = eng.alloc(0, 1 << 20)

        def program(ctx):
            if ctx.rank == 0:
                ctx.touch(buf.view())

        t_few = eng.run(program, ranks=[0]).times[0]
        eng.memsys.reset_caches()
        t_many = eng.run(program).times[0]
        assert t_few < t_many  # fewer sharers -> more bandwidth


class TestStartTimes:
    def test_start_times_offset_clocks(self):
        eng = Engine(2, machine=TINY, functional=False)

        def program(ctx):
            ctx.compute(1e-3)

        res = eng.run(program, start_times=[5e-3, 0.0])
        assert res.times[0] == pytest.approx(6e-3)
        assert res.times[1] == pytest.approx(1e-3)


class TestDeterminism:
    def _run_once(self, schedule_seed):
        eng = Engine(4, machine=TINY, functional=True, seed=9,
                     scheduler=FifoScheduler(seed=schedule_seed))
        a = {r: eng.alloc(r, 512, random=True) for r in range(4)}
        b = {r: eng.alloc(r, 512) for r in range(4)}

        def program(ctx):
            ctx.copy(b[ctx.rank].view(), a[ctx.rank].view())
            yield ctx.barrier()

        res = eng.run(program)
        return res.times, b[0].array().copy()

    def test_same_seed_same_everything(self):
        t1, d1 = self._run_once(42)
        t2, d2 = self._run_once(42)
        assert t1 == t2
        np.testing.assert_array_equal(d1, d2)

    def test_fifo_default_deterministic(self):
        t1, _ = self._run_once(None)
        t2, _ = self._run_once(None)
        assert t1 == t2


class TestCrossRunIsolation:
    def test_posts_do_not_leak_between_runs(self):
        eng = Engine(2, functional=True)

        def poster(ctx):
            ctx.post("flag")
            yield ctx.barrier()

        eng.run(poster)

        def waiter(ctx):
            if ctx.rank == 0:
                yield ctx.wait("flag", count=3)  # stale posts would satisfy

        with pytest.raises(DeadlockError):
            eng.run(waiter)

    def test_barrier_sequence_reset(self):
        eng = Engine(3, functional=True)

        def program(ctx):
            yield ctx.barrier()
            yield ctx.barrier()

        eng.run(program)
        eng.run(program)  # must not mis-match against the first run


class TestMisuse:
    def test_windowed_shm_pipeline_needs_consumer(self):
        from repro.collectives.common import make_env
        from repro.collectives.ma import MA_ALLREDUCE, ma_pipeline

        eng = Engine(4, functional=True)
        env = make_env(MA_ALLREDUCE, engine=eng, s=1024, imax=128)

        def program(ctx):
            yield from ma_pipeline(ctx, env, range(4), layout="window",
                                   final="shm", round_consumer=None)

        with pytest.raises(ValueError, match="round_consumer"):
            eng.run(program)

    def test_bad_pipeline_modes(self):
        from repro.collectives.common import make_env
        from repro.collectives.ma import MA_ALLREDUCE, ma_pipeline

        eng = Engine(4, functional=True)
        env = make_env(MA_ALLREDUCE, engine=eng, s=1024, imax=128)

        for kw in ({"layout": "ring"}, {"final": "bcast"}):
            def program(ctx, kw=kw):
                yield from ma_pipeline(ctx, env, range(4), **kw)

            with pytest.raises(ValueError):
                eng.run(program)


class TestTracingNeutrality:
    def test_trace_does_not_change_timing(self):
        from repro.collectives.common import run_collective
        from repro.collectives.ma import MA_ALLREDUCE

        times = {}
        for trace in (False, True):
            eng = Engine(4, machine=TINY, functional=False, trace=trace)
            times[trace] = run_collective(
                MA_ALLREDUCE, eng, 8192, imax=512
            ).time
        assert times[False] == times[True]


class TestSpans:
    def test_span_records_rank_clock_interval(self):
        eng = Engine(2, machine=TINY, functional=False, trace=True)

        def program(ctx):
            buf = eng.alloc(ctx.rank, 4096)
            with ctx.span("work"):
                ctx.copy(buf.view(0, 2048), buf.view(2048, 2048))
            return
            yield

        eng.run(program)
        spans = eng.trace.spans
        assert len(spans) == 2
        for s in spans:
            assert s.name == "work"
            assert s.t_end > s.t_start == 0.0

    def test_spans_nest_and_may_enclose_syncs(self):
        eng = Engine(2, machine=TINY, functional=True, trace=True)

        def program(ctx):
            with ctx.span("outer"):
                with ctx.span("inner"):
                    ctx.post(("t", ctx.rank))
                yield ctx.wait(("t", 1 - ctx.rank))

        eng.run(program)
        by_rank = {}
        for s in eng.trace.spans:
            by_rank.setdefault(s.rank, []).append(s)
        for spans in by_rank.values():
            names = {s.name for s in spans}
            assert names == {"outer", "inner"}
            inner = next(s for s in spans if s.name == "inner")
            outer = next(s for s in spans if s.name == "outer")
            assert outer.t_start <= inner.t_start
            assert inner.t_end <= outer.t_end

    def test_span_is_shared_noop_singleton_when_untraced(self):
        eng = Engine(2, machine=TINY, functional=False, trace=False)
        seen = []

        def program(ctx):
            span = ctx.span("work")
            seen.append(span)
            with span:
                pass
            return
            yield

        eng.run(program)
        # zero-overhead-when-off: every rank gets the same singleton,
        # no per-call allocation on the hot path
        assert seen[0] is seen[1]

    def test_run_result_slices_spans_per_run(self):
        eng = Engine(2, machine=TINY, functional=False, trace=True)

        def program(ctx):
            with ctx.span("phase"):
                pass
            return
            yield

        r1 = eng.run(program)
        r2 = eng.run(program)
        assert len(r1.trace.spans) == 4  # cumulative across runs
        assert len(r2.run_spans) == 2    # this run's slice only
        assert r2.first_span == 2
