"""DAV verdicts: the lifted schedule's volume vs Theorem 3.1 formulas."""

import pytest

from repro.analysis.static.extract import ir_from_trace
from repro.analysis.static.passes import StaticDavPass
from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE
from repro.models.dav import implementation_dav, predicted_dav
from repro.sim.engine import Engine
from repro.sim.trace import OpRecord, Trace


def _traced_run(p=6, s=4800):
    eng = Engine(p, functional=True, trace=True)
    run_collective(MA_ALLREDUCE, eng, s, imax=512)
    return eng.trace, p, s


def _dav_finding(trace, kind, algorithm, s, p):
    meta = {"kind": kind, "dav_algorithm": algorithm, "s": s, "nranks": p}
    (finding,) = StaticDavPass().run(ir_from_trace(trace, meta=meta))
    return finding


def test_static_dav_is_2copy_plus_3reduce():
    trace = Trace()
    trace.add(OpRecord(rank=0, kind="copy", nbytes=100))
    trace.add(OpRecord(rank=1, kind="reduce_acc", nbytes=40))
    trace.add(OpRecord(rank=1, kind="reduce_out", nbytes=10))
    trace.add(OpRecord(rank=0, kind="touch", nbytes=999))  # one load
    assert ir_from_trace(trace).static_dav() == 2 * 100 + 3 * 50 + 999


def test_ma_allreduce_matches_formula_exactly():
    trace, p, s = _traced_run()
    finding = _dav_finding(trace, "allreduce", "ma", s, p)
    assert finding.code == "SA-DAV-OK"
    assert finding.data["measured"] == \
        implementation_dav("allreduce", "ma", s, p)


def test_excess_movement_fails():
    trace, p, s = _traced_run()
    trace.add(OpRecord(rank=0, kind="copy", nbytes=64))  # redundant copy
    finding = _dav_finding(trace, "allreduce", "ma", s, p)
    assert finding.code == "SA-DAV-EXCESS"
    assert finding.severity == "error"
    assert "128 B of redundant movement" in finding.message


def test_unknown_collective_is_skipped_not_passed():
    trace, p, s = _traced_run()
    finding = _dav_finding(trace, "allreduce", "mystery", s, p)
    assert finding.code == "SA-DAV-SKIP"
    assert finding.severity == "info"  # skipped is not a failure
    assert "no DAV model" in finding.message
    assert predicted_dav("allreduce", "mystery", s, p) is None


def test_extra_formulas_cover_non_table_collectives():
    assert predicted_dav("bcast", "", 1000, 8) == 16000
    assert predicted_dav("allgather", "", 1000, 4) == 2 * 4000 + 2 * 16000
    assert predicted_dav("reduce_scatter_v", "", 1000, 4) == 11000
    assert predicted_dav("allgather_v", "", 1000, 4) == 10000


@pytest.mark.parametrize("kind,alg", [
    ("reduce_scatter", "ma"), ("allreduce", "ring"), ("reduce", "dpml"),
])
def test_predicted_matches_models_table(kind, alg):
    assert predicted_dav(kind, alg, 4096, 8) == \
        implementation_dav(kind, alg, 4096, 8)
