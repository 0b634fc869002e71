"""Counter registry: trace aggregation, DAV cross-check, snapshots."""

import json

import pytest

from repro.analysis.static.extract import ir_from_trace
from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE_SCATTER
from repro.models.dav import implementation_dav
from repro.obs import Counters
from repro.sim.engine import Engine

from tests.conftest import TINY

P, S = 4, 4096


def traced_result(alg=MA_REDUCE_SCATTER, p=P, s=S, machine=TINY):
    eng = Engine(p, machine=machine, functional=False, trace=True)
    res = run_collective(alg, eng, s, imax=512)
    return eng, res


class TestFromTrace:
    def test_totals_match_trace_queries(self):
        eng, _ = traced_result()
        c = Counters.from_trace(eng.trace, nranks=P)
        assert c.total("copy_bytes") == eng.trace.copy_bytes()
        assert c.total("nt_copy_bytes") == eng.trace.copy_bytes(nt=True)
        assert c.total("reduce_bytes") == eng.trace.reduce_bytes()
        assert c.total("touch_bytes") == eng.trace.touch_bytes()

    def test_trace_dav_equals_analyzer_dav(self):
        # the acceptance cross-check: the counter registry's Theorem 3.1
        # accounting is exactly what the lifted schedule IR sums
        eng, _ = traced_result()
        c = Counters.from_trace(eng.trace, nranks=P)
        ir = ir_from_trace(eng.trace, buffers=eng.buffers)
        assert c.trace_dav == ir.static_dav()

    @pytest.mark.parametrize("alg,kind", [
        (MA_REDUCE_SCATTER, "reduce_scatter"),
        (MA_ALLREDUCE, "allreduce"),
    ])
    def test_trace_dav_matches_theorem_formula(self, alg, kind):
        eng, _ = traced_result(alg)
        c = Counters.from_trace(eng.trace, nranks=P)
        want = implementation_dav(kind, "ma", S, P, m=TINY.sockets)
        assert c.trace_dav == want

    def test_sync_time_separated_from_busy(self):
        eng, _ = traced_result(MA_ALLREDUCE)  # barriers + flag waits
        c = Counters.from_trace(eng.trace, nranks=P)
        assert c.total("barrier_stall_time") > 0
        for rc in c:
            assert rc.busy_time > 0
            assert rc.busy_time + rc.stall_time <= rc.span + 1e-12
            assert 0.0 < rc.utilization <= 1.0

    def test_span_is_global_max_finish(self):
        eng, res = traced_result()
        c = Counters.from_trace(eng.trace, nranks=P)
        assert c.span == pytest.approx(res.time)
        assert all(rc.span == c.span for rc in c)


class TestTouchTally:
    def test_touch_counts_once_in_every_tally(self):
        # a touch loads n bytes: the trace tally, the IR's static DAV
        # and the memory system's logical load+store all count it once
        from repro.collectives.common import make_env
        from repro.machine import NODE_A

        eng = Engine(P, machine=NODE_A, functional=False, trace=True)
        env = make_env(MA_ALLREDUCE, engine=eng, s=S, imax=512)

        def program(ctx):
            yield from MA_ALLREDUCE.program(ctx, env)
            ctx.touch(env.recvbufs[ctx.rank].view(0, S))

        res = eng.run(program)
        c = Counters.from_run(res)
        ir = ir_from_trace(eng.trace, buffers=eng.buffers)
        assert c.total("touch_bytes") == P * S
        assert c.trace_dav == ir.static_dav() == c.dav


class TestFromRun:
    def test_traced_run_slices_cumulative_trace(self):
        # two collectives on one engine: the second result's counters
        # must cover only the second run
        eng = Engine(P, machine=TINY, functional=False, trace=True)
        run_collective(MA_REDUCE_SCATTER, eng, S, imax=512)
        first = Counters.from_trace(eng.trace, nranks=P)
        res2 = run_collective(MA_REDUCE_SCATTER, eng, S, imax=512)
        c2 = Counters.from_run(res2)
        assert c2.total("copy_bytes") == first.total("copy_bytes")
        assert c2.trace_dav == first.trace_dav

    def test_untraced_machine_run_uses_memory_traffic(self):
        eng = Engine(P, machine=TINY, functional=False, trace=False)
        res = run_collective(MA_REDUCE_SCATTER, eng, S, imax=512)
        c = Counters.from_run(res)
        assert not c.traced and c.machine
        assert c.total("copy_bytes") == 0  # no trace stream
        assert c.dav == res.traffic.dav  # logical load+store, summed
        assert c.span == pytest.approx(res.time)

    def test_traced_machine_run_has_both_families(self):
        eng, res = traced_result()
        c = Counters.from_run(res)
        assert c.traced and c.machine
        assert c.total("logical_load") > 0
        # both accountings agree on the same run
        assert c.dav == res.traffic.dav


class TestSnapshot:
    def test_snapshot_is_json_safe_and_complete(self):
        eng, res = traced_result()
        snap = Counters.from_run(res).snapshot()
        text = json.dumps(snap)  # must not raise
        back = json.loads(text)
        assert back["schema"] == "repro-obs/1"
        assert back["nranks"] == P
        assert back["traced"] and back["machine"]
        for name in ("copy_bytes", "reduce_bytes", "sync_wait_time",
                     "dav", "utilization"):
            assert len(back["per_rank"][name]) == P
        assert back["totals"]["copy_bytes"] == \
            sum(back["per_rank"]["copy_bytes"])
        assert "utilization" not in back["totals"]

    def test_snapshot_totals_match_registry(self):
        eng, res = traced_result()
        c = Counters.from_run(res)
        snap = c.snapshot()
        assert snap["totals"]["trace_dav"] == c.trace_dav
        assert snap["span"] == c.span
