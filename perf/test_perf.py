"""Tests for the simulator-performance benchmark (``pytest perf/ -q``)."""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import run

sys.path.insert(0, str(run.SRC))
import units  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SWEEP_KEYS = ("NodeB/p48/65536/yhccl-bcast", "NodeB/p48/65536/rg2-allreduce")
CAPTURE_KEYS = SWEEP_KEYS + ("poly:NodeA/p8/524288/socket-ma-reduce_scatter",)
REPLAY_KEYS = ("NodeB/p48/65536/yhccl-bcast",
               "poly:NodeA/p8/491520/socket-ma-reduce_scatter",
               "ensemble:NodeA/p64/65536/rabenseifner-allreduce")
#: the captures the replay subset needs
REPLAY_SEEDS = ("NodeB/p48/65536/yhccl-bcast",
                "poly:NodeA/p8/524288/socket-ma-reduce_scatter",
                "NodeA/p64/65536/rabenseifner-allreduce")


def _subset(cls, keys, tmp_path, monkeypatch):
    if cls is units.CompiledReplay:
        seeds = [u for u in units.capture_units() if u.key in REPLAY_SEEDS]
        monkeypatch.setattr(units, "capture_units", lambda: seeds)
    wl = cls(tmp_path / cls.name)
    by_key = {u.key: u for u in wl.units}
    wl.units = [by_key[k] for k in keys]
    return wl


def test_metric_names_agree_with_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(layers.PER_LAYER)
    assert len(e2e) <= 16 and len(per_layer) <= 128
    names = [n for n, _ in e2e + per_layer]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for _, u in e2e + per_layer)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(units.WORKLOADS) == list(run.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == units.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    assert bench["paths"] == ["perf"]


def test_every_workload_has_enough_units_and_golden_digests(tmp_path):
    golden = run.load_golden()
    for cls in units.WORKLOADS.values():
        keys = [u.key for u in cls(tmp_path).units]
        assert len(keys) >= 34, cls.name
        assert len(set(keys)) == len(keys), cls.name
        assert set(keys) <= set(golden), cls.name


@pytest.mark.parametrize("cls,keys", [
    (units.SweepSmall, SWEEP_KEYS),
    (units.CompiledCapture, CAPTURE_KEYS),
    (units.CompiledReplay, REPLAY_KEYS),
], ids=["coroutine", "capture", "replay"])
def test_two_seeds_give_the_golden_digests(cls, keys, tmp_path,
                                           monkeypatch):
    golden = run.load_golden()
    wl = _subset(cls, keys, tmp_path, monkeypatch)
    wl.setup()
    for seed in (0, 1):
        order = list(wl.units)
        random.Random(seed).shuffle(order)
        digests = {}
        for unit in order:
            digests[unit.key] = units.digest(wl.prepare(unit)())
            wl.release()
        assert digests == {k: golden[k] for k in keys}


def test_self_time_is_duration_minus_children():
    ticks = iter([0, 0, 1, 2, 3, 4, 5, 7, 8, 9, 10])
    tr = layers.Tracer(clock=lambda: next(ticks))
    tr.begin("unit")          # 0
    tr.begin("bench")         # 1
    tr.begin("engine")        # 2
    tr.begin("memory")        # 3
    tr.end()                  # 4
    tr.begin("memory")        # 5
    tr.end()                  # 7
    tr.end()                  # 8  engine
    tr.end()                  # 9  bench
    tr.end()                  # 10 unit
    assert dict(tr.self_s) == {"memory": 3, "engine": 3, "bench": 2,
                               "unit": 2}
    assert tr.calls["memory"] == 2
    spans = {name: (sid, parent) for sid, name, _, _, parent, _ in tr.spans}
    assert "memory" not in spans  # per-access layers are aggregated only
    assert spans["engine"][1] == spans["bench"][0]
    assert spans["bench"][1] == spans["unit"][0]
    assert spans["unit"][1] == -1


def test_tampered_digest_and_raising_unit_count_as_failures(tmp_path,
                                                            monkeypatch):
    wl = _subset(units.SweepSmall, SWEEP_KEYS, tmp_path, monkeypatch)
    wl.units.append(units.Unit("bogus", dict(wl.units[0].payload,
                                             machine="NoSuchNode")))
    golden = dict(run.load_golden())
    golden[SWEEP_KEYS[1]] = "0" * 64
    tally = units.Tally()
    res = run.measure(wl, golden, tally, seed=0, seconds=0, trace=False,
                      import_s=0.0)
    passes = res["passes"]
    assert tally.attempted == run.SETUP_REPEATS + 3 * passes
    assert tally.failed == 2 * passes
    assert set(tally.reasons) == {SWEEP_KEYS[1], "bogus"}
    assert "golden" in tally.reasons[SWEEP_KEYS[1]]
    assert "KeyError" in tally.reasons["bogus"]
    assert res["metrics"]["wall_s"][0] > 0


def test_traced_pass_reports_every_layer_and_restores_hooks(tmp_path,
                                                            monkeypatch):
    from repro.bench import compiled, executor

    original = executor.exec_payload
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    wl = _subset(units.CompiledCapture, CAPTURE_KEYS, tmp_path, monkeypatch)
    tally = units.Tally()
    res = run.measure(wl, run.load_golden(), tally, seed=0, seconds=0,
                      trace=True, import_s=0.0)
    assert tally.failed == 0
    m = {k: v for k, (v, _) in res["metrics"].items()}
    assert set(m) == {n for n, _ in run.END_TO_END + layers.PER_LAYER}
    assert m["capture.calls"] >= len(CAPTURE_KEYS)
    assert m["certify.calls"] == 1 and m["certify.certified_ratio"] == 1.0
    assert m["engine.ops"] > 0 and m["trace.records"] > 0
    assert m["schedule_cache.hit_ratio"] == 0.0  # every unit starts cold
    assert m["harness.tracing_overhead"] > 0
    assert executor.exec_payload is original
    assert "get" not in vars(compiled.CompiledScheduleCache)
    doc = json.loads((tmp_path / "out" / "trace_compiled_capture.json")
                     .read_text())
    ids = {s[0] for s in doc["spans"]}
    assert all(s[4] == -1 or s[4] in ids for s in doc["spans"])
    assert {s[5] for s in doc["spans"]} == set(CAPTURE_KEYS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "sweep_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] \
        == "regression"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "ok"
    assert compare.verdict(parent, noisy, "lower", 0.1)["verdict"] \
        == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.1)["verdict"] \
        == "gain"
