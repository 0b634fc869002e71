"""Scheduler-policy plumbing: the default must be byte-for-byte the
pre-refactor engine, and the controlled scheduler must expose the
enabled set and step footprints the model checker depends on."""

import hashlib
import json

import numpy as np
import pytest

from repro.collectives.common import make_env, run_collective
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE
from repro.sim.engine import Engine
from repro.sim.scheduler import ControlledScheduler, FifoScheduler

#: every schedule-visible field of an op record
RECORD_FIELDS = ("rank", "kind", "nbytes", "src", "dst", "nt", "policy",
                 "t_start", "t_end", "tag", "count", "group")


def _traced_run(**engine_kwargs) -> str:
    """Canonical JSON of one traced MA allreduce: each record's
    :data:`RECORD_FIELDS`, in trace order, plus the phase spans."""
    eng = Engine(4, functional=True, seed=11, trace=True, **engine_kwargs)
    run_collective(MA_ALLREDUCE, eng, 1024, imax=256)
    return json.dumps({
        "records": [[getattr(r, f) for f in RECORD_FIELDS]
                    for r in eng.trace.records],
        "spans": [[s.rank, s.name, s.t_start, s.t_end]
                  for s in eng.trace.spans],
    })


class TestDefaultPolicyRegression:
    def test_explicit_fifo_equals_default(self):
        """Engine(scheduler=FifoScheduler()) is the default policy."""
        assert _traced_run() == _traced_run(scheduler=FifoScheduler())

    @pytest.mark.parametrize("schedule_seed,digest", [
        (1, "15f207923cc9d72cb80a6bc4055a484b4d030cae2c8bb524910860a1dd819c23"),
        (17, "6a0ebc5fcfbb49d8768e3a02f444f58b998224f1200b70fa758d98ca78abe768"),
        (99, "5a327d17069adc0cab5b02d8b82c359c4afad368f36e10536d077f0fdbfdf7bf"),
    ], ids=["1", "17", "99"])
    def test_fifo_rng_consumption_matches_seed_engine(self, schedule_seed,
                                                      digest):
        """A seeded FIFO policy draws from its RNG in the exact
        historical pattern: each seed's trace is byte-identical to the
        one the engine-level schedule seed produced (digests recorded
        from that engine), and distinct seeds interleave differently."""
        trace = _traced_run(scheduler=FifoScheduler(seed=schedule_seed))
        assert hashlib.sha256(trace.encode()).hexdigest() == digest
        assert trace != _traced_run()

    def test_results_identical_across_policies(self):
        """Functional output is policy-invariant for a correct program."""
        outs = []
        for sched in (None, FifoScheduler(), ControlledScheduler()):
            eng = Engine(4, functional=True, seed=5, trace=True,
                         scheduler=sched)
            env = make_env(MA_ALLREDUCE, engine=eng, s=512, imax=128)
            eng.run(lambda ctx: MA_ALLREDUCE.program(ctx, env))
            outs.append(env.recvbufs[0].array().copy())
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])


class TestControlledScheduler:
    def test_records_steps_with_enabled_sets(self):
        sched = ControlledScheduler()
        eng = Engine(3, functional=True, trace=True, scheduler=sched)
        run_collective(MA_REDUCE, eng, 384, imax=128)
        assert sched.steps, "no steps recorded"
        for step in sched.steps:
            assert step.rank in step.enabled
        # every rank runs to completion exactly once
        assert sum(1 for s in sched.steps if s.completed) == 3
        # fallback is deterministic: replaying the recorded schedule
        # reproduces it exactly
        replay = ControlledScheduler(choices=sched.schedule)
        eng2 = Engine(3, functional=True, trace=True, scheduler=replay)
        run_collective(MA_REDUCE, eng2, 384, imax=128)
        assert replay.schedule == sched.schedule
        assert not replay.diverged

    def test_forced_prefix_is_followed(self):
        probe = ControlledScheduler()
        eng = Engine(3, functional=True, trace=True, scheduler=probe)
        run_collective(MA_REDUCE, eng, 384, imax=128)
        # force a different first step than the min-rank default
        first_enabled = probe.steps[0].enabled
        alt = max(first_enabled)
        forced = ControlledScheduler(choices=[alt])
        eng2 = Engine(3, functional=True, trace=True, scheduler=forced)
        run_collective(MA_REDUCE, eng2, 384, imax=128)
        assert forced.schedule[0] == alt
        assert not forced.diverged

    def test_footprints_cover_data_and_sync(self):
        sched = ControlledScheduler()
        eng = Engine(2, functional=True, trace=True, scheduler=sched)

        shm = eng.alloc_shared(64)
        src = eng.alloc(0, 64, fill=3.0)
        dst = eng.alloc(1, 64, fill=0.0)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.copy(shm.view(), src.view())
                ctx.post(("ready",))
            else:
                yield ctx.wait(("ready",))
                ctx.copy(dst.view(), shm.view())

        eng.run(prog)
        writes = [w for s in sched.steps for w in s.writes]
        reads = [r for s in sched.steps for r in s.reads]
        posts = [p for s in sched.steps for p in s.posts]
        waits = [w for s in sched.steps for w in s.waits]
        assert (shm.buf_id, 0, 64) in writes and (shm.buf_id, 0, 64) in reads
        assert posts == [("ready",)]
        assert waits == [("ready",)]

    def test_light_tracing_refused(self):
        # footprints come from AccessEvents; the compiled-capture light
        # mode drops them, which would silently break DPOR conflicts
        sched = ControlledScheduler()
        eng = Engine(2, functional=True, trace=True,
                     trace_accesses=False, scheduler=sched)

        def prog(ctx):
            return
            yield  # pragma: no cover - makes prog a generator

        with pytest.raises(ValueError, match="trace_accesses"):
            eng.run(prog)
