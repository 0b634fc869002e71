"""Movement-avoiding collective tests: functional correctness across
shapes, DAV exactness, schedule structure (Figure 6) and sync counts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE, MA_REDUCE_SCATTER
from repro.models.dav import implementation_dav
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024
ALGS = {
    "reduce_scatter": MA_REDUCE_SCATTER,
    "allreduce": MA_ALLREDUCE,
    "reduce": MA_REDUCE,
}


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("kind", list(ALGS))
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_small_messages(self, kind, p):
        eng = Engine(p, functional=True)
        run_collective(ALGS[kind], eng, 512, imax=128)

    @pytest.mark.parametrize("kind", list(ALGS))
    def test_multi_round_pipeline(self, kind):
        # s >> p * I forces many window rounds
        eng = Engine(4, functional=True)
        run_collective(ALGS[kind], eng, 64 * KB, imax=256)

    @pytest.mark.parametrize("op", ["sum", "prod", "max", "min"])
    def test_all_operators(self, op):
        eng = Engine(4, functional=True)
        run_collective(MA_ALLREDUCE, eng, 4 * KB, op=op, imax=512)

    def test_nonzero_root(self):
        eng = Engine(5, functional=True)
        run_collective(MA_REDUCE, eng, 4 * KB, root=3, imax=512)

    def test_ragged_message(self):
        # s not divisible by p
        eng = Engine(6, functional=True)
        run_collective(MA_REDUCE_SCATTER, eng, 1000, imax=128)

    @given(
        p=st.integers(2, 6),
        s_units=st.integers(1, 600),
        imax_units=st.integers(8, 64),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_shapes(self, p, s_units, imax_units):
        eng = Engine(p, functional=True)
        run_collective(MA_ALLREDUCE, eng, 8 * s_units, imax=8 * imax_units )

    def test_timed_and_functional_agree(self):
        # attaching a machine model must not change results
        eng = Engine(8, machine=TINY, functional=True)
        run_collective(MA_ALLREDUCE, eng, 16 * KB, imax=KB)


class TestDAV:
    @pytest.mark.parametrize("kind,name", [
        ("reduce_scatter", "ma"),
        ("allreduce", "ma"),
        ("reduce", "ma"),
    ])
    @pytest.mark.parametrize("s", [8 * KB, 64 * KB, 1000 * 8])
    def test_exact_formula(self, kind, name, s):
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(ALGS[kind], eng, s, imax=KB)
        assert res.dav == implementation_dav(kind, name, s, 8)

    def test_copy_volume_is_lower_bound(self):
        """Only 2s bytes of pure copy during the reduce-scatter — the
        Theorem 3.1 bound realized (copies tracked via the trace)."""
        eng = Engine(4, machine=TINY, functional=False, trace=True)
        s = 32 * KB
        run_collective(MA_REDUCE_SCATTER, eng, s, imax=KB)
        assert eng.trace.copy_bytes() == s  # one s-worth copied in (=2s DAV)


class TestScheduleStructure:
    def test_figure6_step_assignment(self):
        """p=3: rank a/b/c copies slice 2/3/1 (0-indexed: 1/2/0), per
        Figure 6's step S0."""
        eng = Engine(3, functional=True, trace=True)
        s = 240  # 3 slices of 80
        run_collective(MA_REDUCE_SCATTER, eng, s, imax=s)
        copies = [r for r in eng.trace if r.kind == "copy"]
        assert len(copies) == 3
        by_rank = {c.rank: c for c in copies}
        # rank r copies slice (r+1) mod p: verify via the shm offsets
        # recorded in trace destinations (same buffer, so check sizes)
        assert all(c.dst.startswith("shm") for c in by_rank.values())

    def test_sync_count_per_round(self):
        """p-1 chain waits per rank per round (plus RS consumed waits)."""
        p, rounds = 4, 3
        eng = Engine(p, machine=TINY, functional=False)
        imax = KB
        s = p * imax * rounds
        res = run_collective(MA_REDUCE_SCATTER, eng, s, imax=imax)
        chain_syncs = p * (p - 1) * rounds
        # consumed waits add at most one per slice per round
        assert chain_syncs <= res.sync_count <= chain_syncs + p * rounds

    def test_window_shm_footprint(self):
        """Shared memory stays at p*I bytes regardless of message size."""
        eng = Engine(4, functional=False, machine=TINY)
        from repro.collectives.common import make_env

        env = make_env(MA_ALLREDUCE, engine=eng, s=1 << 20, imax=KB)
        assert env.shm.nbytes == 4 * KB


class TestNTPolicyIntegration:
    def test_adaptive_copyout_uses_nt_when_working_set_large(self):
        eng = Engine(8, machine=TINY, functional=False, trace=True)
        s = 4 << 20  # W = 2sp >> TINY cache (1.25 MB)
        run_collective(MA_ALLREDUCE, eng, s, copy_policy="adaptive",
                       imax=64 * KB)
        nt_bytes = eng.trace.copy_bytes(nt=True)
        t_bytes = eng.trace.copy_bytes(nt=False)
        # copy-outs (s per rank) NT, copy-ins (s total) temporal
        assert nt_bytes == 8 * s
        assert t_bytes == s

    def test_adaptive_small_message_stays_temporal(self):
        eng = Engine(8, machine=TINY, functional=False, trace=True)
        run_collective(MA_ALLREDUCE, eng, 8 * KB,
                       copy_policy="adaptive", imax=KB)
        assert eng.trace.copy_bytes(nt=True) == 0

    def test_nt_policy_lowers_large_message_time(self):
        s = 4 << 20
        times = {}
        for pol in ("t", "adaptive"):
            eng = Engine(8, machine=TINY, functional=False)
            times[pol] = run_collective(
                MA_ALLREDUCE, eng, s, copy_policy=pol, imax=64 * KB
            ).time
        assert times["adaptive"] < times["t"]
