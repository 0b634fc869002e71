"""Engine failure paths: deadlock diagnostics and access errors.

A simulator that fails opaquely is worse than none — these tests pin
the error surface: deadlocks name every blocked rank with the tag or
barrier it is parked on (structured on ``DeadlockError.blocked``, and
as ``blocked`` trace events when tracing), and misaligned buffer
accesses raise immediately instead of corrupting elements.
"""

import pytest

from repro.sim.engine import BlockedInfo, DeadlockError, Engine


class TestDeadlockDiagnostics:
    def test_message_names_rank_tag_and_count(self):
        eng = Engine(3, functional=True)

        def prog(ctx):
            if ctx.rank == 1:
                yield ctx.wait(("step", 4, "chain"), 2)

        with pytest.raises(DeadlockError) as exc:
            eng.run(prog)
        msg = str(exc.value)
        assert "1 rank(s) blocked" in msg
        assert "rank 1" in msg
        assert "('step', 4, 'chain')" in msg
        assert "count=2" in msg

    def test_blocked_is_structured(self):
        eng = Engine(2, functional=True)

        def prog(ctx):
            yield ctx.wait(("t", ctx.rank), 1)

        with pytest.raises(DeadlockError) as exc:
            eng.run(prog)
        blocked = exc.value.blocked
        assert len(blocked) == 2
        assert all(isinstance(b, BlockedInfo) for b in blocked)
        assert [b.rank for b in blocked] == [0, 1]
        assert {b.tag for b in blocked} == {("t", 0), ("t", 1)}
        assert all(b.kind == "wait" and b.have == 0 for b in blocked)

    def test_partial_post_diagnosis_counts_per_poster(self):
        """A wait(tag, 4) holding 2 posts from one rank and 1 from
        another must say exactly what arrived from whom — the
        information that makes partial-post deadlocks diagnosable."""
        eng = Engine(3, functional=True)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.post(("chunk",))
                ctx.post(("chunk",))
            elif ctx.rank == 1:
                ctx.post(("chunk",))
            else:
                yield ctx.wait(("chunk",), 4)

        with pytest.raises(DeadlockError) as exc:
            eng.run(prog)
        (blocked,) = exc.value.blocked
        assert blocked.have == 3 and blocked.count == 4
        assert blocked.posts_by_rank == {0: 2, 1: 1}
        msg = blocked.describe()
        assert "3 post(s) of 4 required" in msg
        assert "rank 0 x2" in msg and "rank 1" in msg
        assert "1 will never arrive" in msg

    def test_barrier_deadlock_names_arrived_and_missing(self):
        eng = Engine(4, functional=True)

        def prog(ctx):
            if ctx.rank in (0, 3):
                yield ctx.barrier()

        with pytest.raises(DeadlockError) as exc:
            eng.run(prog)
        msg = str(exc.value)
        assert "barrier" in msg
        for b in exc.value.blocked:
            assert set(b.arrived) == {0, 3}
            assert set(b.missing) == {1, 2}

    def test_blocked_events_recorded_when_tracing(self):
        eng = Engine(2, functional=True, trace=True)

        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.wait(("gone",), 1)

        with pytest.raises(DeadlockError):
            eng.run(prog)
        blocked = [e for e in eng.trace.events if e.kind == "blocked"]
        assert len(blocked) == 1
        assert blocked[0].rank == 0
        assert blocked[0].tag == ("gone",)
        assert "never arrive" in blocked[0].detail

    def test_no_blocked_events_on_clean_run(self):
        eng = Engine(2, functional=True, trace=True)

        def prog(ctx):
            yield ctx.barrier()

        eng.run(prog)
        assert not [e for e in eng.trace.events if e.kind == "blocked"]


class TestAccessErrors:
    def test_misaligned_view_access_raises(self):
        eng = Engine(1, functional=True)
        buf = eng.alloc(0, 64, fill=0.0)
        with pytest.raises(ValueError, match="not aligned"):
            buf.view(3, 16).array()

    def test_misaligned_copy_raises_inside_program(self):
        eng = Engine(2, functional=True)
        a = eng.alloc(0, 64, fill=1.0)
        b = eng.alloc(0, 64, fill=0.0)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.copy(b.view(4, 8), a.view(4, 8))
            return
            yield

        with pytest.raises(ValueError, match="aligned"):
            eng.run(prog)

    def test_virtual_buffer_array_raises(self):
        eng = Engine(1, functional=False)
        buf = eng.alloc(0, 64)
        with pytest.raises(RuntimeError, match="virtual"):
            buf.view(0, 64).array()
