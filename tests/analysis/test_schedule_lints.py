"""Sync-hygiene verdicts of the deadlock pass over lifted schedules:
deadlock certificates, tag reuse, barrier mismatch, lift integrity and
slot-overwrite races."""

import pytest

from repro.analysis.static.extract import ir_from_trace
from repro.analysis.static.passes import DeadlockPass, run_passes
from repro.sim.engine import DeadlockError, Engine
from repro.sim.trace import OpRecord, SyncEvent, Trace


def _findings(eng, code):
    report = run_passes(ir_from_trace(eng.trace, buffers=eng.buffers,
                                      meta={"deadlocked": True}))
    return report, [f for f in report.findings if f.code == code]


class TestDeadlockCertificates:
    def test_unsatisfiable_wait_produces_certificate(self):
        eng = Engine(3, functional=True, trace=True)

        def prog(ctx):
            if ctx.rank == 2:
                yield ctx.wait(("ghost", 7), 1)

        with pytest.raises(DeadlockError):
            eng.run(prog)
        report, (cert,) = _findings(eng, "SA-DL-UNSAT")
        assert not report.ok
        assert "rank 2 wait(('ghost', 7), count=1)" in cert.message
        assert "never arrive" in cert.message

    def test_underposted_wait_counts_missing_posts(self):
        eng = Engine(4, functional=True, trace=True)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.post(("flag",))
            elif ctx.rank == 3:
                yield ctx.wait(("flag",), 3)

        with pytest.raises(DeadlockError) as exc:
            eng.run(prog)
        (blocked,) = exc.value.blocked
        assert blocked.rank == 3
        assert blocked.have == 1 and blocked.count == 3
        assert blocked.posters == (0,)
        _, (cert,) = _findings(eng, "SA-DL-UNSAT")
        assert "1 post(s) of 3 required" in cert.message
        assert cert.data == {"have": 1, "required": 3}

    def test_partial_barrier_names_missing_ranks(self):
        eng = Engine(3, functional=True, trace=True)

        def prog(ctx):
            if ctx.rank != 1:
                yield ctx.barrier()

        with pytest.raises(DeadlockError) as exc:
            eng.run(prog)
        assert len(exc.value.blocked) == 2
        for b in exc.value.blocked:
            assert b.kind == "barrier"
            assert 1 not in b.arrived
        _, certs = _findings(eng, "SA-DL-BARRIER")
        assert len(certs) == 2
        assert all("ranks (1,) never arrive" in c.message for c in certs)


class TestTagReuse:
    def test_reposted_tag_after_release_flagged(self):
        eng = Engine(2, functional=True, trace=True)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.post(("flag",))
                yield ctx.barrier()
                ctx.post(("flag",))  # recycled: wait already released
            else:
                yield ctx.wait(("flag",), 1)
                yield ctx.barrier()

        eng.run(prog)
        report = run_passes(ir_from_trace(eng.trace, buffers=eng.buffers))
        reuse = [f for f in report.findings if f.code == "SA-DL-TAG-REUSE"]
        assert len(reuse) == 1
        assert reuse[0].severity == "warning"
        assert report.ok  # a hygiene warning, not a broken schedule
        assert "('flag',)" in reuse[0].message
        assert "unique per step" in reuse[0].message

    def test_fresh_tags_per_step_clean(self):
        eng = Engine(2, functional=True, trace=True)

        def prog(ctx):
            for step in range(3):
                if ctx.rank == 0:
                    ctx.post(("flag", step))
                else:
                    yield ctx.wait(("flag", step), 1)
            if ctx.rank == 0:
                yield ctx.barrier()
            else:
                yield ctx.barrier()

        eng.run(prog)
        ir = ir_from_trace(eng.trace, buffers=eng.buffers)
        assert DeadlockPass().run(ir) == []


class TestBarrierMismatch:
    def test_overlapping_groups_reported(self):
        eng = Engine(3, functional=True, trace=True)

        def prog(ctx):
            # ranks 0 and 1 each wait on a barrier containing the other,
            # but they named different groups: both block forever
            if ctx.rank == 0:
                yield ctx.barrier((0, 1))
            elif ctx.rank == 1:
                yield ctx.barrier((1, 2))

        with pytest.raises(DeadlockError):
            eng.run(prog)
        report, (mism,) = _findings(eng, "SA-DL-BARRIER-MISMATCH")
        assert mism.severity == "error" and not report.ok
        assert "overlap on ranks (1,)" in mism.message
        assert "barrier(0, 1)" in mism.message
        assert "barrier(1, 2)" in mism.message


class TestTraceIntegrity:
    def test_truncated_trace_unmatched_post_ref(self):
        """A wait whose matched post is not in the trace would lose its
        happens-before edge; the lift refuses it instead."""
        trace = Trace()
        trace.add(OpRecord(rank=1, kind="wait", nbytes=0, tag=("x",),
                           count=1))
        trace.add_event(SyncEvent(seq=5, rank=1, kind="wait",
                                  tag=("x",), count=1, matched=(3,)))
        with pytest.raises(ValueError, match="truncated"):
            ir_from_trace(trace)


class TestSlotOverwrite:
    def test_write_after_unordered_read_classified(self):
        eng = Engine(2, functional=True, trace=True)
        shm = eng.alloc_shared(64, name="win")
        priv = [eng.alloc(r, 64, fill=1.0, name=f"b[{r}]") for r in range(2)]

        def prog(ctx):
            if ctx.rank == 0:
                ctx.copy(priv[0].view(0, 64), shm.view(0, 64))
            else:
                ctx.copy(shm.view(0, 64), priv[1].view(0, 64))
            return
            yield

        eng.run(prog)
        report = run_passes(ir_from_trace(eng.trace, buffers=eng.buffers))
        (race,) = [f for f in report.findings if f.code == "SA-BUF-RACE"]
        assert "rank 0 reads win[0, 64)" in race.message
        assert "unordered write may be in flight" in race.message
