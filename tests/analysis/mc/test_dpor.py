"""DPOR explorer: equivalence-class counts and exhaustiveness.

The strongest check here is cross-validation against brute force:
for small programs we enumerate *every* legal interleaving directly
and assert DPOR visits every distinct terminal state while exploring
no more schedules than the full interleaving count.
"""

import pytest

from repro.analysis.mc import Explorer, dependent
from repro.analysis.mc.verify import _Executor
from repro.sim.engine import Engine
from repro.sim.scheduler import ControlledScheduler, StepRecord


def _step(rank, *, reads=(), writes=(), posts=(), waits=(), enabled=(0, 1)):
    return StepRecord(index=0, rank=rank, enabled=enabled, reads=reads,
                      writes=writes, posts=posts, waits=waits)


class TestConflictRelation:
    def test_same_rank_always_dependent(self):
        assert dependent(_step(0), _step(0))

    def test_disjoint_steps_independent(self):
        a = _step(0, writes=((1, 0, 64),))
        b = _step(1, writes=((1, 64, 128),))
        assert not dependent(a, b)
        assert not dependent(_step(0), _step(1))

    def test_write_read_overlap_dependent(self):
        a = _step(0, writes=((1, 0, 64),))
        b = _step(1, reads=((1, 32, 96),))
        assert dependent(a, b)
        assert dependent(b, a)

    def test_different_buffers_independent(self):
        a = _step(0, writes=((1, 0, 64),))
        b = _step(1, writes=((2, 0, 64),))
        assert not dependent(a, b)

    def test_post_wait_same_tag_dependent(self):
        a = _step(0, posts=(("t",),))
        b = _step(1, waits=(("t",),))
        assert dependent(a, b)
        assert not dependent(a, _step(1, waits=(("u",),)))

    def test_wait_wait_independent(self):
        a = _step(0, waits=(("t",),))
        b = _step(1, waits=(("t",),))
        assert not dependent(a, b)


def _run_program(make_prog, nranks, choices):
    """One controlled execution; returns (scheduler, engine)."""
    sched = ControlledScheduler(choices=choices)
    eng = Engine(nranks, functional=True, trace=True, scheduler=sched)
    make_prog(eng)
    return sched, eng


def _brute_force_schedules(make_prog, nranks, length_hint=32):
    """Every legal schedule by DFS over the enabled sets."""
    results = []

    def extend(prefix):
        sched, eng = _run_program(make_prog, nranks, prefix)
        steps = sched.steps
        if len(steps) <= len(prefix):
            results.append([s.rank for s in steps])
            return
        # branch on every enabled alternative at the first free step
        for r in steps[len(prefix)].enabled:
            extend(prefix + [r])

    extend([])
    return results


class TestExplorerVsBruteForce:
    """DPOR must reach every distinct terminal state brute force does."""

    @pytest.mark.parametrize("conflicting", [True, False])
    def test_two_rank_copies(self, conflicting):
        def make_prog(eng):
            shm = eng.alloc_shared(128)
            srcs = [eng.alloc(r, 64, fill=float(r + 1)) for r in range(2)]

            def prog(ctx):
                off = 0 if conflicting else ctx.rank * 64
                ctx.copy(shm.view(off, 64), srcs[ctx.rank].view())
                yield ctx.barrier((0, 1))

            eng.run(prog)

        terminal_states = set()

        def execute(choices):
            sched, eng = _run_program(make_prog, 2, choices)
            state = tuple(
                b.data.tobytes() for b in eng.buffers if b.data is not None
            )
            terminal_states.add(state)
            return sched.steps

        explorer = Explorer(execute)
        schedules = list(explorer.run())
        assert explorer.complete

        brute_states = set()
        for full in _brute_force_schedules(make_prog, 2):
            _, eng = _run_program(make_prog, 2, full)
            brute_states.add(tuple(
                b.data.tobytes() for b in eng.buffers if b.data is not None
            ))
        assert terminal_states == brute_states
        if conflicting:
            # the write order is observable: two outcomes, both explored
            assert len(terminal_states) == 2
        else:
            # commuting writes: one Mazurkiewicz class suffices
            assert len(terminal_states) == 1

    def test_independent_ranks_explore_once(self):
        """Fully independent programs collapse to a single schedule."""

        def make_prog(eng):
            bufs = [eng.alloc(r, 64, fill=1.0) for r in range(3)]
            outs = [eng.alloc(r, 64, fill=0.0) for r in range(3)]

            def prog(ctx):
                ctx.copy(outs[ctx.rank].view(), bufs[ctx.rank].view())
                yield ctx.barrier((0, 1, 2))

            eng.run(prog)

        def execute(choices):
            sched, _ = _run_program(make_prog, 3, choices)
            return sched.steps

        explorer = Explorer(execute)
        n = sum(1 for _ in explorer.run())
        assert explorer.complete
        # barrier arrivals commute; nothing else interacts
        assert n == 1

    def test_budget_caps_exploration(self):
        def make_prog(eng):
            shm = eng.alloc_shared(64)
            srcs = [eng.alloc(r, 64, fill=float(r)) for r in range(3)]

            def prog(ctx):
                ctx.copy(shm.view(), srcs[ctx.rank].view())
                yield ctx.barrier((0, 1, 2))

            eng.run(prog)

        def execute(choices):
            sched, _ = _run_program(make_prog, 3, choices)
            return sched.steps

        explorer = Explorer(execute, max_schedules=2)
        n = sum(1 for _ in explorer.run())
        assert n == 2
        assert not explorer.complete


class TestExplorerOnExecutor:
    def test_deterministic_program_single_rank(self):
        def run_fn(eng):
            a = eng.alloc(0, 64, fill=1.0)
            b = eng.alloc(0, 64, fill=0.0)

            def prog(ctx):
                ctx.copy(b.view(), a.view())
                yield ctx.barrier((0,))

            eng.run(prog, ranks=[0])

        executor = _Executor(run_fn, nranks=1, seed=1)
        explorer = Explorer(executor)
        n = sum(1 for _ in explorer.run())
        assert n == 1 and explorer.complete
