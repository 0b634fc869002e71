"""Chrome trace-event export: schema golden test for the MA
reduce-scatter, flow-arrow structure, validator rejections."""

import json

import pytest

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE_SCATTER
from repro.models.dav import implementation_dav
from repro.obs import (
    Counters,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.engine import Engine

from tests.conftest import TINY

P, S = 4, 4096


@pytest.fixture(scope="module")
def ma_doc():
    eng = Engine(P, machine=TINY, functional=False, trace=True)
    run_collective(MA_REDUCE_SCATTER, eng, S, imax=512)
    counters = Counters.from_trace(eng.trace, nranks=P)
    return eng.trace, chrome_trace(eng.trace,
                                   counters=counters.snapshot(),
                                   label="ma/reduce_scatter")


class TestGoldenSchema:
    """Field-by-field golden checks of the MA reduce-scatter export."""

    def test_document_shape(self, ma_doc):
        _, doc = ma_doc
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["schema"] == "repro-trace-event/1"
        assert doc["otherData"]["collective"] == "ma/reduce_scatter"

    def test_validator_accepts_and_counts(self, ma_doc):
        _, doc = ma_doc
        counts = validate_chrome_trace(doc)
        # process_name + (thread_name + thread_sort_index) per rank
        assert counts["M"] == 1 + 2 * P
        assert counts["X"] > 0 and counts["C"] > 0
        assert counts["s"] == counts["f"] > 0  # arrows come in pairs

    def test_rank_tracks_are_named(self, ma_doc):
        _, doc = ma_doc
        names = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert names == {f"rank {r}" for r in range(P)}

    def test_data_slices_mirror_trace_records(self, ma_doc):
        trace, doc = ma_doc
        slices = [ev for ev in doc["traceEvents"]
                  if ev["ph"] == "X" and ev["cat"] == "data"]
        data_records = [r for r in trace.records
                        if not r.is_sync]
        assert len(slices) == len(data_records)
        for ev, rec in zip(slices, data_records):
            assert ev["tid"] == rec.rank
            assert ev["ts"] == pytest.approx(rec.t_start * 1e6)
            assert ev["dur"] == pytest.approx(rec.duration * 1e6)
            assert ev["args"]["nbytes"] == rec.nbytes

    def test_phase_spans_exported(self, ma_doc):
        trace, doc = ma_doc
        phases = [ev for ev in doc["traceEvents"]
                  if ev["ph"] == "X" and ev["cat"] == "phase"]
        assert len(phases) == len(trace.spans) > 0
        assert {ev["name"] for ev in phases} == {"reduce-wavefront"}

    def test_flow_arrows_connect_posts_to_waits(self, ma_doc):
        trace, doc = ma_doc
        starts = {ev["id"]: ev for ev in doc["traceEvents"]
                  if ev["ph"] == "s"}
        finishes = [ev for ev in doc["traceEvents"] if ev["ph"] == "f"]
        matched = {seq for w in trace.sync_events() if w.kind == "wait"
                   for seq in w.matched}
        assert set(starts) == matched
        for fin in finishes:
            start = starts[fin["id"]]
            assert start["ts"] <= fin["ts"] + 1e-9  # arrows point forward

    def test_counter_track_is_cumulative_and_final(self, ma_doc):
        trace, doc = ma_doc
        samples = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        copies = [ev["args"]["copy_bytes"] for ev in samples]
        assert copies == sorted(copies)  # monotone accumulation
        assert copies[-1] == trace.copy_bytes()
        assert samples[-1]["args"]["reduce_bytes"] == trace.reduce_bytes()

    def test_embedded_counters_match_theorem(self, ma_doc):
        _, doc = ma_doc
        totals = doc["otherData"]["counters"]["totals"]
        want = implementation_dav("reduce_scatter", "ma", S, P,
                                  m=TINY.sockets)
        assert totals["trace_dav"] == want


class TestWrite:
    def test_round_trips_through_disk(self, tmp_path):
        eng = Engine(P, machine=TINY, functional=False, trace=True)
        run_collective(MA_ALLREDUCE, eng, S, imax=512)
        path = write_chrome_trace(eng.trace, tmp_path / "t.json")
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)
        phases = {ev["name"] for ev in doc["traceEvents"]
                  if ev["ph"] == "X" and ev.get("cat") == "phase"}
        assert phases == {"reduce-wavefront", "copy-out"}


class TestValidator:
    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_empty_events(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_chrome_trace({"traceEvents": []})

    def test_rejects_unknown_phase_with_index(self):
        doc = {"traceEvents": [{"ph": "Z", "pid": 0}]}
        with pytest.raises(ValueError, match=r"traceEvents\[0\].*'Z'"):
            validate_chrome_trace(doc)

    def test_rejects_missing_required_key(self):
        doc = {"traceEvents": [
            {"ph": "X", "pid": 0, "tid": 0, "name": "x", "ts": 0.0},
        ]}
        with pytest.raises(ValueError, match="requires 'dur'"):
            validate_chrome_trace(doc)

    def test_rejects_non_finite_timestamp(self):
        doc = {"traceEvents": [
            {"ph": "X", "pid": 0, "tid": 0, "name": "x",
             "ts": float("nan"), "dur": 1.0},
        ]}
        with pytest.raises(ValueError, match="finite"):
            validate_chrome_trace(doc)
