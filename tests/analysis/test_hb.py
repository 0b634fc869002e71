"""Happens-before race detection over the lifted schedule IR: the
buffer pass's unordered-conflict scan on hand-written engine programs."""

import pytest

from repro.analysis.static.extract import ir_from_trace
from repro.analysis.static.ir import ScheduleIR
from repro.analysis.static.passes import MAX_REPORTED, BufferPass, run_passes
from repro.sim.engine import Engine

RACE_CODES = ("SA-BUF-OVERLAP", "SA-BUF-RACE")


def _two_rank_engine():
    eng = Engine(2, functional=True, trace=True)
    shm = eng.alloc_shared(128, name="win")
    priv = [eng.alloc(r, 128, fill=float(r), name=f"b[{r}]")
            for r in range(2)]
    return eng, shm, priv


def _lift(eng):
    return ir_from_trace(eng.trace, buffers=eng.buffers)


def _races(eng):
    """Every unordered conflicting pair, uncapped."""
    found = BufferPass().scan(_lift(eng))
    return [f for code in RACE_CODES for f in found[code]]


def _sliced_writes(slices):
    """Both ranks write the same ``slices`` 64-byte slices of one
    window, unordered: one write-write pair per slice."""
    eng = Engine(2, functional=True, trace=True)
    shm = eng.alloc_shared(64 * slices, name="win")
    priv = [eng.alloc(r, 64, fill=0.0, name=f"b[{r}]") for r in range(2)]

    def prog(ctx):
        for i in range(slices):
            ctx.copy(shm.view(i * 64, 64), priv[ctx.rank].view(0, 64))
        return
        yield

    eng.run(prog)
    return eng


class TestOrdering:
    def test_post_wait_orders_accesses(self):
        eng, shm, priv = _two_rank_engine()

        def prog(ctx):
            if ctx.rank == 0:
                ctx.copy(shm.view(0, 64), priv[0].view(0, 64))
                ctx.post(("ready",))
            else:
                yield ctx.wait(("ready",), 1)
                ctx.copy(priv[1].view(0, 64), shm.view(0, 64))

        eng.run(prog)
        assert _races(eng) == []
        assert run_passes(_lift(eng)).ok

    def test_missing_wait_is_a_race(self):
        eng, shm, priv = _two_rank_engine()

        def prog(ctx):
            if ctx.rank == 0:
                ctx.copy(shm.view(0, 64), priv[0].view(0, 64))
            else:
                ctx.copy(priv[1].view(0, 64), shm.view(0, 64))
            return
            yield

        eng.run(prog)
        ir = _lift(eng)
        (race,) = _races(eng)
        assert race.code == "SA-BUF-RACE"
        assert "win[0, 64)" in race.message
        assert {ir.nodes[n].rank for n in race.nodes} == {0, 1}

    def test_barrier_orders_accesses(self):
        eng, shm, priv = _two_rank_engine()

        def prog(ctx):
            if ctx.rank == 0:
                ctx.copy(shm.view(0, 64), priv[0].view(0, 64))
            yield ctx.barrier()
            if ctx.rank == 1:
                ctx.copy(priv[1].view(0, 64), shm.view(0, 64))

        eng.run(prog)
        assert _races(eng) == []

    def test_run_boundary_is_global_sync(self):
        """A trace holding two engine runs has no single schedule to
        lift: the IR refuses it instead of dropping the run boundary
        (which would order nothing and report false races)."""
        eng, shm, priv = _two_rank_engine()

        def writer(ctx):
            if ctx.rank == 0:
                ctx.copy(shm.view(0, 64), priv[0].view(0, 64))
            return
            yield

        def reader(ctx):
            if ctx.rank == 1:
                ctx.copy(priv[1].view(0, 64), shm.view(0, 64))
            return
            yield

        eng.run(writer)
        res = eng.run(reader)
        with pytest.raises(ValueError, match="Trace.slice_last_run"):
            _lift(eng)
        # the last run alone lifts fine
        last = ir_from_trace(eng.trace.slice_last_run(res.first_record),
                             buffers=eng.buffers)
        assert [n.rank for n in last.nodes] == [1]


class TestConflictRules:
    def test_concurrent_reads_are_not_a_race(self):
        eng, shm, priv = _two_rank_engine()

        def prog(ctx):
            ctx.copy(priv[ctx.rank].view(0, 64), shm.view(0, 64))
            return
            yield

        eng.run(prog)
        assert _races(eng) == []

    def test_disjoint_ranges_are_not_a_race(self):
        eng, shm, priv = _two_rank_engine()

        def prog(ctx):
            off = ctx.rank * 64
            ctx.copy(shm.view(off, 64), priv[ctx.rank].view(0, 64))
            return
            yield

        eng.run(prog)
        assert _races(eng) == []

    def test_unordered_write_write_flagged(self):
        eng, shm, priv = _two_rank_engine()

        def prog(ctx):
            ctx.copy(shm.view(32, 64), priv[ctx.rank].view(0, 64))
            return
            yield

        eng.run(prog)
        (race,) = _races(eng)
        assert race.code == "SA-BUF-OVERLAP"
        assert "win[32, 96)" in race.message

    def test_partial_overlap_reported_exactly(self):
        eng, shm, priv = _two_rank_engine()

        def prog(ctx):
            if ctx.rank == 0:
                ctx.copy(shm.view(0, 64), priv[0].view(0, 64))
            else:
                ctx.copy(shm.view(48, 64), priv[1].view(0, 64))
            return
            yield

        eng.run(prog)
        (race,) = _races(eng)
        assert "win[48, 64)" in race.message


class TestReporting:
    def test_max_reports_caps_reporting_not_counting(self):
        eng = _sliced_writes(12)
        assert len(_races(eng)) == 12
        listed = [f for f in BufferPass().run(_lift(eng))
                  if f.code == "SA-BUF-OVERLAP"]
        # MAX_REPORTED pairs listed, plus one summary counting them all
        assert len(listed) == MAX_REPORTED + 1 < 12
        assert listed[-1].data == {"total": 12}

    def test_run_passes_surfaces_races(self):
        eng, shm, priv = _two_rank_engine()

        def prog(ctx):
            ctx.copy(shm.view(0, 64), priv[ctx.rank].view(0, 64))
            return
            yield

        eng.run(prog)
        report = run_passes(_lift(eng))
        assert not report.ok
        overlaps = [f for f in report.errors if f.code == "SA-BUF-OVERLAP"]
        assert len(overlaps) == 1
        assert "no dependency path" in report.describe()

    def test_find_races_empty_input(self):
        assert not any(BufferPass().scan(ScheduleIR()).values())
        assert BufferPass().run(ScheduleIR()) == []

    def test_kind_totals_exact_under_truncation(self):
        """The count survives the cap: every pair is write-write, and
        the summary counts all of them, not just the listed ones."""
        eng = _sliced_writes(12)
        found = BufferPass().scan(_lift(eng))
        overlaps, races = found["SA-BUF-OVERLAP"], found["SA-BUF-RACE"]
        assert (len(overlaps), len(races)) == (12, 0)
        findings = BufferPass().run(_lift(eng))
        assert {f.code for f in findings} & set(RACE_CODES) == \
            {"SA-BUF-OVERLAP"}
        assert findings[MAX_REPORTED].data["total"] == len(overlaps)

    def test_truncated_report_names_hidden_count(self):
        eng = _sliced_writes(12)
        text = run_passes(_lift(eng)).describe()
        hidden = 12 - MAX_REPORTED
        assert (f"and {hidden} more SA-BUF-OVERLAP finding(s) not listed "
                f"(all 12 counted)") in text
