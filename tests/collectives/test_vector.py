"""Vector collective tests: reduce_scatter with arbitrary counts and
allgatherv, including zero blocks and hypothesis-random shapes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.vector import (
    counts_to_partition,
    run_allgather_v,
    run_reduce_scatter_v,
)
from repro.sim.engine import Engine
from repro.sim.scheduler import FifoScheduler

from tests.conftest import TINY

KB = 1024


class TestCountValidation:
    def test_wrong_count_length(self):
        eng = Engine(4, functional=True)
        with pytest.raises(ValueError, match="need 4 counts"):
            run_reduce_scatter_v(eng, [8, 8, 8])

    def test_negative_counts(self):
        eng = Engine(2, functional=True)
        with pytest.raises(ValueError, match="non-negative"):
            run_reduce_scatter_v(eng, [8, -8])

    def test_unaligned_counts(self):
        eng = Engine(2, functional=True)
        with pytest.raises(ValueError, match="multiples"):
            run_reduce_scatter_v(eng, [7, 9])

    def test_all_zero_rejected(self):
        eng = Engine(2, functional=True)
        with pytest.raises(ValueError, match="positive"):
            run_reduce_scatter_v(eng, [0, 0])

    def test_counts_to_partition(self):
        assert counts_to_partition([8, 0, 16]) == [(0, 8), (8, 0), (8, 16)]


class TestReduceScatterV:
    @pytest.mark.parametrize("counts", [
        [64, 64, 64, 64],
        [8, 128, 32, 88],
        [0, 128, 0, 128],
        [256, 0, 0, 0],
    ])
    def test_correctness(self, counts):
        eng = Engine(4, functional=True)
        run_reduce_scatter_v(eng, counts, imax=64)

    @pytest.mark.parametrize("op", ["sum", "max", "prod"])
    def test_operators(self, op):
        eng = Engine(3, functional=True)
        run_reduce_scatter_v(eng, [80, 160, 80], op=op, imax=64)

    def test_on_machine(self):
        eng = Engine(8, machine=TINY, functional=True)
        counts = [2 * KB] * 4 + [6 * KB] * 4
        res = run_reduce_scatter_v(eng, counts, imax=KB)
        assert res.time > 0

    def test_copy_floor_holds_for_ragged_counts(self):
        """Theorem 3.1 never used uniformity: copy volume == s."""
        eng = Engine(4, machine=TINY, functional=False, trace=True)
        counts = [1 * KB, 5 * KB, 2 * KB, 8 * KB]
        run_reduce_scatter_v(eng, counts, imax=KB)
        assert eng.trace.copy_bytes() == sum(counts)

    @given(
        p=st.integers(2, 6),
        weights=st.lists(st.integers(0, 40), min_size=6, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_counts(self, p, weights):
        counts = [8 * w for w in weights[:p]]
        if sum(counts) == 0:
            counts[0] = 8
        eng = Engine(p, functional=True)
        run_reduce_scatter_v(eng, counts, imax=128)


class TestAllgatherV:
    @pytest.mark.parametrize("counts", [
        [64, 64, 64],
        [8, 240, 32],
        [0, 128, 64],
        [96, 0, 0],
    ])
    def test_correctness(self, counts):
        eng = Engine(3, functional=True)
        run_allgather_v(eng, counts, imax=64)

    def test_on_machine_with_adaptive(self):
        eng = Engine(8, machine=TINY, functional=True)
        counts = [KB * (r + 1) for r in range(8)]
        run_allgather_v(eng, counts, copy_policy="adaptive", imax=KB)

    @given(
        p=st.integers(2, 6),
        weights=st.lists(st.integers(0, 30), min_size=6, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_counts(self, p, weights):
        counts = [8 * w for w in weights[:p]]
        if sum(counts) == 0:
            counts[-1] = 16
        eng = Engine(p, functional=True)
        run_allgather_v(eng, counts, imax=128)

    def test_schedule_fuzzing(self):
        for seed in (5, 9):
            eng = Engine(4, functional=True,
                         scheduler=FifoScheduler(seed=seed))
            run_allgather_v(eng, [32, 96, 0, 64], imax=64)


class TestUniformEquivalence:
    def test_rsv_with_uniform_counts_matches_rs(self):
        """Uniform counts reproduce the paper's reduce-scatter DAV."""
        from repro.models.dav import implementation_dav

        p, block = 8, 4 * KB
        eng = Engine(p, machine=TINY, functional=False)
        res = run_reduce_scatter_v(eng, [block] * p, imax=KB)
        assert res.dav == implementation_dav(
            "reduce_scatter", "ma", block * p, p
        )
