"""Trace serialization, schedule signatures, and the Figure 6 golden
schedule."""

import pytest

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_REDUCE_SCATTER
from repro.sim.engine import Engine
from repro.sim.scheduler import FifoScheduler
from repro.sim.replay import (
    diff_schedules,
    schedule_signature,
    trace_from_json,
    trace_to_json,
)
from repro.sim.trace import OpRecord, Trace

from tests.conftest import TINY


def traced_ma(p=3, s=240, imax=10**9, schedule_seed=None):
    eng = Engine(p, machine=TINY, functional=True, trace=True,
                 scheduler=FifoScheduler(seed=schedule_seed))
    run_collective(MA_REDUCE_SCATTER, eng, s, imax=imax)
    return eng.trace


class TestRoundTrip:
    def test_lossless(self):
        trace = traced_ma()
        back = trace_from_json(trace_to_json(trace))
        assert len(back) == len(trace)
        for a, b in zip(trace, back):
            assert a == b

    def test_spans_round_trip(self):
        trace = traced_ma()  # MA pipeline emits reduce-wavefront spans
        assert trace.spans
        back = trace_from_json(trace_to_json(trace))
        assert back.spans == trace.spans

    def test_spanless_payloads_still_load(self):
        # pre-span trace files have no "spans" key
        back = trace_from_json('{"version": 1, "records": []}')
        assert back.spans == []

    def test_rejects_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            trace_from_json('{"version": 9, "records": []}')

    def test_bad_version_error_names_supported_versions(self):
        with pytest.raises(ValueError, match=r"supported versions: 1"):
            trace_from_json('{"version": 9, "records": []}')

    def test_missing_version_rejected_clearly(self):
        with pytest.raises(ValueError, match="unsupported trace schema"):
            trace_from_json('{"records": []}')

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            trace_from_json('[1, 2, 3]')

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown trace fields"):
            trace_from_json(
                '{"version": 1, "records": [{"rank": 0, "kind": "copy", '
                '"nbytes": 8, "surprise": 1}]}'
            )


class TestSignatures:
    def test_identical_runs_identical_signature(self):
        assert schedule_signature(traced_ma()) == schedule_signature(
            traced_ma()
        )

    def test_schedule_invariant_under_fuzzing(self):
        """Per-rank op sequences don't depend on the engine schedule."""
        base = schedule_signature(traced_ma())
        for seed in (7, 19):
            other = schedule_signature(traced_ma(schedule_seed=seed))
            assert diff_schedules(base, other) is None

    def test_different_sizes_diverge(self):
        a = schedule_signature(traced_ma(s=240))
        b = schedule_signature(traced_ma(s=480))
        assert diff_schedules(a, b) is not None

    def test_diff_pinpoints_rank_and_op(self):
        a = {0: [("copy", 8, False)]}
        b = {0: [("copy", 16, False)]}
        assert "rank 0 op 0" in diff_schedules(a, b)
        c = {0: [("copy", 8, False), ("copy", 8, False)]}
        assert "lengths differ" in diff_schedules(a, c)

    def test_compute_records_excluded(self):
        t = Trace()
        t.add(OpRecord(rank=0, kind="compute", nbytes=0))
        t.add(OpRecord(rank=0, kind="copy", nbytes=8))
        assert schedule_signature(t) == {0: [("copy", 8, False)]}


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
        sig = schedule_signature(traced_ma(p=3, s=s))
        for rank in range(3):
            assert sig[rank] == [
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


class TestRoundTripProperty:
    from hypothesis import given, settings, strategies as st

    @given(st.lists(
        st.tuples(
            st.integers(0, 7),
            st.sampled_from(["copy", "reduce_acc", "reduce_out",
                             "compute"]),
            st.integers(0, 1 << 20),
            st.booleans(),
            st.floats(0, 1e-3, allow_nan=False),
            st.floats(0, 1e-3, allow_nan=False),
        ),
        min_size=0, max_size=40,
    ))
    @settings(max_examples=40, deadline=None)
    def test_random_traces_round_trip(self, recs):
        t = Trace()
        for rank, kind, n, nt, t0, dt in recs:
            t.add(OpRecord(rank=rank, kind=kind, nbytes=n, nt=nt,
                           t_start=t0, t_end=t0 + dt))
        back = trace_from_json(trace_to_json(t))
        assert list(back) == list(t)
        assert schedule_signature(back) == schedule_signature(t)
