"""PMPI-style profiler tests."""

import pytest

from repro.library.communicator import Communicator
from repro.library.profiler import Profiler
from repro.library.yhccl import YHCCL, CollectiveResult

from tests.conftest import TINY

KB = 1024


@pytest.fixture
def profiled():
    lib = YHCCL(Communicator(8, machine=TINY, functional=False))
    return Profiler(lib)


class TestProfiler:
    def test_records_calls(self, profiled):
        profiled.allreduce(64 * KB)
        profiled.bcast(32 * KB)
        assert len(profiled.records) == 2
        assert profiled.records[0].kind == "allreduce"
        assert profiled.records[1].nbytes == 32 * KB

    def test_results_pass_through(self, profiled):
        r = profiled.allreduce(64 * KB)
        assert r.time > 0 and r.kind == "allreduce"

    def test_stats_aggregation(self, profiled):
        for _ in range(3):
            profiled.allreduce(64 * KB)
        st = profiled.stats()["allreduce"]
        assert st.calls == 3
        assert st.total_bytes == 3 * 64 * KB
        assert st.total_time > 0

    def test_total_time(self, profiled):
        profiled.allreduce(64 * KB)
        profiled.reduce(64 * KB)
        assert profiled.total_time == pytest.approx(
            sum(r.time for r in profiled.records)
        )

    def test_report_format(self, profiled):
        profiled.allreduce(64 * KB)
        profiled.allgather(8 * KB)
        report = profiled.report()
        assert "allreduce" in report and "allgather" in report
        assert "DAB" in report

    def test_clear(self, profiled):
        profiled.allreduce(8 * KB)
        profiled.clear()
        assert not profiled.records

    def test_dab_property(self, profiled):
        profiled.allreduce(64 * KB)
        rec = profiled.records[0]
        assert rec.dab == pytest.approx(rec.dav / rec.time)

    def test_dab_zero_time_is_zero_not_inf(self):
        rec = CollectiveResult(kind="allreduce", nbytes=0, time=0.0,
                               dav=64 * KB, memory_traffic=0, sync_count=0,
                               algorithm="ma", copy_policy="t")
        assert rec.dab == 0.0

    def test_missing_attr_raises(self, profiled):
        # neither a collective nor anything the wrapped library has
        with pytest.raises(AttributeError):
            profiled.alltoall

    def test_delegates_non_collective_api(self, profiled):
        # a PMPI shim is transparent: the wrapped library's full
        # surface stays reachable, unprofiled
        assert profiled.comm is profiled.library.comm
        assert profiled.config is profiled.library.config
        report = profiled.lint("allreduce", 8 * KB)
        assert report.ok
        assert not profiled.records  # lint is not a collective call

    def test_dunders_keep_standard_semantics(self, profiled):
        import copy

        # copy/pickle probe dunders like __deepcopy__/__reduce_ex__ and
        # must get AttributeError, not a delegated library attribute
        assert copy.copy(profiled).library is profiled.library
        with pytest.raises(AttributeError):
            profiled.__wrapped__

    def test_records_carry_counters(self, profiled):
        profiled.allreduce(64 * KB)
        snap = profiled.records[0].counters
        assert snap is not None and snap["schema"] == "repro-obs/1"
        assert snap["nranks"] == 8

    def test_report_zero_time_aggregate_is_finite(self):
        prof = Profiler(library=None)
        prof.records.append(CollectiveResult(
            kind="allreduce", nbytes=0, time=0.0, dav=64 * KB,
            memory_traffic=0, sync_count=0, algorithm="ma",
            copy_policy="t",
        ))
        assert "inf" not in prof.report()
