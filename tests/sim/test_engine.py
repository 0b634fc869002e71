"""Engine tests: scheduling, synchronization semantics, clocks,
deadlock detection and functional data operations."""

import numpy as np
import pytest

from repro.sim.engine import DeadlockError, Engine

from tests.conftest import TINY


class TestBasicExecution:
    def test_plain_function_program(self, engine4):
        bufs = {r: engine4.alloc(r, 64, fill=float(r)) for r in range(4)}
        dsts = {r: engine4.alloc(r, 64, fill=0.0) for r in range(4)}

        def program(ctx):
            ctx.copy(dsts[ctx.rank].view(), bufs[ctx.rank].view())

        res = engine4.run(program)
        for r in range(4):
            assert np.all(dsts[r].array() == float(r))
        assert res.sync_count == 0

    def test_generator_program(self, engine4):
        order = []

        def program(ctx):
            order.append(("pre", ctx.rank))
            yield ctx.barrier()
            order.append(("post", ctx.rank))

        engine4.run(program)
        pres = [i for i, (k, _) in enumerate(order) if k == "pre"]
        posts = [i for i, (k, _) in enumerate(order) if k == "post"]
        assert max(pres) < min(posts)

    def test_rejects_bad_nranks(self):
        with pytest.raises(ValueError):
            Engine(0)


class TestPostWait:
    def test_signal_chain(self, engine4):
        log = []

        def program(ctx):
            if ctx.rank > 0:
                yield ctx.wait(("t", ctx.rank - 1))
            log.append(ctx.rank)
            ctx.post(("t", ctx.rank))

        engine4.run(program)
        assert log == [0, 1, 2, 3]

    def test_wait_count(self, engine4):
        log = []

        def program(ctx):
            ctx.post(("ready",))
            if ctx.rank == 0:
                yield ctx.wait(("ready",), count=4)
                log.append("released")

        engine4.run(program)
        assert log == ["released"]

    def test_nonconsuming_waits(self, engine4):
        """One post can release many waiters (broadcast signalling)."""
        released = []

        def program(ctx):
            if ctx.rank == 0:
                ctx.post(("go",))
            else:
                yield ctx.wait(("go",))
                released.append(ctx.rank)

        engine4.run(program)
        assert sorted(released) == [1, 2, 3]

    def test_wait_rejects_bad_count(self, engine4):
        def program(ctx):
            yield ctx.wait("x", count=0)

        with pytest.raises(ValueError):
            engine4.run(program)


class TestBarriers:
    def test_subgroup_barrier(self, engine4):
        def program(ctx):
            if ctx.rank < 2:
                yield ctx.barrier(group=[0, 1])

        engine4.run(program)  # must not deadlock

    def test_barrier_requires_membership(self, engine4):
        def program(ctx):
            yield ctx.barrier(group=[0, 1])

        with pytest.raises(ValueError):
            engine4.run(program)

    def test_repeated_barriers_match_by_arrival(self, engine4):
        counter = {"n": 0}

        def program(ctx):
            for _ in range(5):
                yield ctx.barrier()
                counter["n"] += 1

        engine4.run(program)
        assert counter["n"] == 20


class TestClocks:
    def test_barrier_reconciles_clocks(self):
        eng = Engine(4, machine=TINY, functional=False)

        def program(ctx):
            ctx.compute(1e-3 * (ctx.rank + 1))
            yield ctx.barrier()

        res = eng.run(program)
        # all ranks end at the slowest + barrier cost
        assert max(res.times) - min(res.times) < 1e-12
        assert res.time > 4e-3

    def test_wait_inherits_poster_clock(self):
        eng = Engine(2, machine=TINY, functional=False)

        def program(ctx):
            if ctx.rank == 0:
                ctx.compute(5e-3)
                ctx.post("x")
            else:
                yield ctx.wait("x")

        res = eng.run(program)
        assert res.times[1] >= 5e-3

    def test_compute_rejects_negative(self, engine4):
        def program(ctx):
            ctx.compute(-1.0)

        with pytest.raises(ValueError):
            engine4.run(program)

    def test_sync_latency_charged(self):
        eng = Engine(2, machine=TINY, functional=False)

        def program(ctx):
            if ctx.rank == 0:
                ctx.post("x")
            else:
                yield ctx.wait("x")

        res = eng.run(program)
        assert res.times[1] >= TINY.sync_latency_intra


class TestDeadlockDetection:
    def test_unmatched_wait_raises(self, engine4):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.wait(("never",))

        with pytest.raises(DeadlockError, match="never"):
            engine4.run(program)

    def test_partial_barrier_raises(self, engine4):
        def program(ctx):
            if ctx.rank < 3:
                yield ctx.barrier()

        with pytest.raises(DeadlockError, match="barrier"):
            engine4.run(program)


class TestDataOps:
    def test_copy_size_mismatch_raises(self, engine4):
        a = engine4.alloc(0, 64)
        b = engine4.alloc(0, 128)

        def program(ctx):
            if ctx.rank == 0:
                ctx.copy(b.view(), a.view())

        with pytest.raises(ValueError):
            engine4.run(program)

    def test_reduce_ops(self, engine4):
        a = engine4.alloc(0, 64, fill=2.0)
        b = engine4.alloc(0, 64, fill=3.0)
        c = engine4.alloc(0, 64, fill=0.0)

        def program(ctx):
            if ctx.rank == 0:
                ctx.reduce_out(c.view(), a.view(), b.view(), op="max")
                ctx.reduce_acc(c.view(), a.view(), op="sum")

        engine4.run(program)
        assert np.all(c.array() == 5.0)

    def test_all_reduce_ops_supported(self, engine4):
        results = {}
        a = engine4.alloc(0, 64, fill=2.0)
        b = engine4.alloc(0, 64, fill=3.0)

        for op, want in (("sum", 5.0), ("prod", 6.0), ("max", 3.0),
                         ("min", 2.0)):
            c = engine4.alloc(0, 64, fill=0.0)

            def program(ctx, c=c, op=op):
                if ctx.rank == 0:
                    ctx.reduce_out(c.view(), a.view(), b.view(), op=op)

            engine4.run(program)
            results[op] = c.array()[0]
            assert results[op] == want

    def test_trace_records_operations(self):
        eng = Engine(2, functional=True, trace=True)
        a = eng.alloc(0, 64, fill=1.0)
        b = eng.alloc(0, 64)

        def program(ctx):
            if ctx.rank == 0:
                ctx.copy(b.view(), a.view(), nt=True)
            yield ctx.barrier()

        eng.run(program)
        copies = eng.trace.by_kind("copy")
        assert len(copies) == 1
        assert copies[0].nt is True
        assert copies[0].nbytes == 64

    def test_timing_mode_keeps_clock_monotone(self):
        eng = Engine(2, machine=TINY, functional=False)
        a = eng.alloc(0, 1024)
        b = eng.alloc(0, 1024)

        def program(ctx):
            if ctx.rank == 0:
                ctx.copy(b.view(), a.view())

        res = eng.run(program)
        assert res.times[0] > 0.0
        assert res.times[1] == 0.0

    def test_touch_charges_load(self):
        eng = Engine(1, machine=TINY, functional=False)
        a = eng.alloc(0, 64 * 1024)

        def program(ctx):
            ctx.touch(a.view())

        res = eng.run(program)
        assert res.traffic.logical_load == 64 * 1024
        assert res.traffic.logical_store == 0


class TestLightTracing:
    """``trace_accesses=False`` — the compiled-capture fast path —
    must drop only the AccessEvent stream, never observation-free
    structure (op records, spans, sync events) nor the simulation
    itself (clocks, traffic, functional results)."""

    def _run(self, **kw):
        from repro.collectives.common import run_collective
        from repro.collectives.ma import MA_ALLREDUCE

        eng = Engine(4, machine=TINY, functional=True, seed=7,
                     trace=True, **kw)
        res = run_collective(MA_ALLREDUCE, eng, 2048, imax=512)
        return eng, res

    def test_drops_access_events_only(self):
        full_eng, full = self._run()
        light_eng, light = self._run(trace_accesses=False)

        assert full_eng.trace.accesses(), "full tracing lost accesses"
        assert light_eng.trace.accesses() == []

        # everything else survives, byte-for-byte
        assert len(light_eng.trace.records) == len(full_eng.trace.records)
        assert ([(r.rank, r.kind, r.nbytes, r.nt, r.t_start, r.t_end)
                 for r in light_eng.trace.records] ==
                [(r.rank, r.kind, r.nbytes, r.nt, r.t_start, r.t_end)
                 for r in full_eng.trace.records])
        assert len(light_eng.trace.spans) == len(full_eng.trace.spans)
        assert ([(e.rank, e.kind, e.tag)
                 for e in light_eng.trace.sync_events()] ==
                [(e.rank, e.kind, e.tag)
                 for e in full_eng.trace.sync_events()])

    def test_tracing_only_observes(self):
        _, full = self._run()
        _, light = self._run(trace_accesses=False)
        assert light.times == full.times
        assert light.traffic == full.traffic
