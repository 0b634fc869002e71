"""Compiled-schedule cache: keying discipline, hit/miss flow through
``exec_compiled_cell``, corrupt-entry recovery, and the executor-level
equivalence of compiled sweeps."""

import json

import pytest

from repro.bench.cache import descriptor_key
from repro.bench.compiled import (
    CompiledScheduleCache,
    capture_schedule,
    clear_schedule_memo,
    exec_compiled_cell,
    schedule_descriptor,
)
from repro.bench.executor import cell_descriptor, run_sweep_table
from repro.bench.spec import reduce_spec


@pytest.fixture(autouse=True)
def _fresh_memo():
    """The in-process schedule memo survives across tests (by design:
    it survives across cells); cache-behavior tests need it empty."""
    clear_schedule_memo()
    yield
    clear_schedule_memo()


def _cell(**over):
    cell = {
        "machine": "NodeA",
        "p": 4,
        "nbytes": 65536,
        "runner": reduce_spec("socket-ma", "allreduce",
                              "adaptive").describe(),
    }
    cell.update(over)
    return cell


def _entry_path(results_dir, key):
    return results_dir / "compiled" / key[:2] / f"{key}.json"


def _truncate(path):
    path.write_text(path.read_text()[:100])


def _rewrite_result(fn):
    def corrupt(path):
        entry = json.loads(path.read_text())
        entry["result"] = fn(entry["result"])
        path.write_text(json.dumps(entry))
    return corrupt


#: corrupted on-disk cache entries every loader must treat as a miss
CORRUPTIONS = {
    "truncated": _truncate,
    "non-dict": _rewrite_result(lambda doc: ["not", "a", "document"]),
    "future-schema": _rewrite_result(
        lambda doc: dict(doc, schema=doc["schema"].split("/")[0] + "/99")),
}


def _payload(results_dir=None, **over):
    payload = dict(_cell(**over), type="cell", compiled=True)
    if results_dir is not None:
        payload["results_dir"] = str(results_dir)
    return payload


class TestScheduleDescriptor:
    def test_schema_tag(self):
        assert schedule_descriptor(_cell())["schema"] == "repro-compiled/1"

    @pytest.mark.parametrize("over", [
        {"p": 8},
        {"nbytes": 4096},
        {"machine": "NodeB"},
        {"runner": reduce_spec("ring", "allreduce").describe()},
    ])
    def test_geometry_changes_the_key(self, over):
        base = descriptor_key(schedule_descriptor(_cell()))
        assert descriptor_key(schedule_descriptor(_cell(**over))) != base

    def test_source_version_changes_the_key(self, monkeypatch):
        base = descriptor_key(schedule_descriptor(_cell()))
        monkeypatch.setattr("repro.bench.compiled.source_version",
                            lambda: "0" * 64)
        assert descriptor_key(schedule_descriptor(_cell())) != base

    def test_distinct_from_result_cache_key(self):
        # schedules and results must never collide in a shared store
        cell = _cell()
        assert descriptor_key(schedule_descriptor(cell)) != \
            descriptor_key(cell_descriptor(cell, compiled=True))

    def test_compiled_results_key_separately_from_coroutine(self):
        cell = _cell()
        assert descriptor_key(cell_descriptor(cell)) != \
            descriptor_key(cell_descriptor(cell, compiled=True))


class TestExecCompiledCell:
    def test_capture_once_then_replay_from_cache(self, tmp_path,
                                                 monkeypatch):
        captures = []
        real = capture_schedule

        def counting(*a, **kw):
            captures.append(a)
            return real(*a, **kw)

        monkeypatch.setattr("repro.bench.compiled.capture_schedule",
                            counting)
        first = exec_compiled_cell(_payload(tmp_path))
        assert len(captures) == 1
        assert first.pop("captured") is True  # transient run artifact
        second = exec_compiled_cell(_payload(tmp_path))
        assert len(captures) == 1, "second call must be pure replay"
        assert "captured" not in second
        assert second == first

    def test_perturb_stats_survive_a_source_edit(self, monkeypatch):
        """The ensemble seed comes from the simulated cell, not from the
        source version the schedule key embeds: editing any source file
        must not move p50/p99."""
        pb = {"n": 16, "model": "mixed", "seed": 7}
        before = exec_compiled_cell(_payload(perturb=pb))["perturb"]
        clear_schedule_memo()
        monkeypatch.setattr("repro.bench.compiled.source_version",
                            lambda: "0" * 64)
        after = exec_compiled_cell(_payload(perturb=pb))["perturb"]
        assert after == before

    def test_no_results_dir_still_works(self):
        out = exec_compiled_cell(_payload())
        assert out["time"] > 0 and out["counters"] is not None

    def test_corrupt_entry_recaptured(self, tmp_path):
        exec_compiled_cell(_payload(tmp_path))
        key = descriptor_key(schedule_descriptor(_cell()))
        path = tmp_path / "compiled" / key[:2] / f"{key}.json"
        assert path.exists()
        entry = json.loads(path.read_text())
        entry["result"]["schema"] = "repro-compiled/0"  # stale schema
        path.write_text(json.dumps(entry))
        # the memo would mask the corruption (that's its job); drop it
        # to force the disk read
        clear_schedule_memo()
        out = exec_compiled_cell(_payload(tmp_path))
        assert out["time"] > 0
        # the recapture repaired the entry on disk
        repaired = json.loads(path.read_text())
        assert repaired["result"]["schema"] == "repro-compiled/1"

    @pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
    def test_corrupt_schedule_entries_recaptured(self, tmp_path, corrupt,
                                                 monkeypatch):
        clean = exec_compiled_cell(_payload(tmp_path))
        clean.pop("captured")
        key = descriptor_key(schedule_descriptor(_cell()))
        CORRUPTIONS[corrupt](_entry_path(tmp_path, key))
        clear_schedule_memo()
        captures = []
        real = capture_schedule

        def counting(*a, **kw):
            captures.append(a)
            return real(*a, **kw)

        monkeypatch.setattr("repro.bench.compiled.capture_schedule",
                            counting)
        out = exec_compiled_cell(_payload(tmp_path))
        assert len(captures) == 1
        assert out.pop("captured") is True
        assert out == clean

    def test_matches_coroutine_cell(self, tmp_path):
        from repro.bench.executor import exec_payload

        ref = exec_payload(dict(_cell(), type="cell"))
        out = exec_compiled_cell(_payload(tmp_path))
        out.pop("captured", None)  # run artifact, not cell result
        assert out == ref


KB = 1024
MB = 1024 * 1024


def _poly_cell(nbytes, **over):
    """NodeA p=8 adaptive allreduce with imax=4MB: the NT threshold
    sits at (C - p*imax)/(2p) ≈ 14.25MB, so 8/12MB share a decision
    region and 16MB flips the ``nt`` guard."""
    return _cell(
        p=8, nbytes=nbytes,
        runner=reduce_spec("socket-ma", "allreduce", "adaptive",
                           imax=4 * MB).describe(),
        **over)


#: the lower end of the 8MB region's certified span (the p=8 NodeA
#: region modulus is 1 KiB; the certificate's anchors sit ±64 KiB out)
IN_SPAN = 8 * MB - 64 * KB


def _poly_run(nbytes, results_dir):
    return exec_compiled_cell(
        dict(_poly_cell(nbytes), type="cell", compiled=True, poly=True,
             results_dir=str(results_dir)))


class TestSizePolymorphic:
    def test_same_guards_share_the_schedule_key(self):
        from repro.bench.compiled import cell_guards

        a, b = _poly_cell(8 * MB), _poly_cell(12 * MB)
        assert cell_guards(a) == cell_guards(b)
        assert descriptor_key(schedule_descriptor(a, poly=True)) == \
            descriptor_key(schedule_descriptor(b, poly=True))
        # exact-mode keys still distinguish the sizes
        assert descriptor_key(schedule_descriptor(a)) != \
            descriptor_key(schedule_descriptor(b))

    def test_guard_flip_changes_the_key(self):
        from repro.bench.compiled import cell_guards

        a, c = _poly_cell(8 * MB), _poly_cell(16 * MB)
        ga, gc = cell_guards(a), cell_guards(c)
        assert ga["nt"] is False and gc["nt"] is True
        assert descriptor_key(schedule_descriptor(a, poly=True)) != \
            descriptor_key(schedule_descriptor(c, poly=True))

    def test_one_capture_serves_the_region(self, tmp_path, monkeypatch):
        captures = []
        real = capture_schedule

        def counting(*a, **kw):
            captures.append(a)
            return real(*a, **kw)

        monkeypatch.setattr("repro.bench.compiled.capture_schedule",
                            counting)
        first = _poly_run(8 * MB, tmp_path)
        second = _poly_run(IN_SPAN, tmp_path)
        third = _poly_run(16 * MB, tmp_path)
        assert len(captures) == 2  # 8MB region + 16MB (NT flip) region
        assert first["poly"]["retimed"] is False
        assert second["poly"]["retimed"] is True
        assert second["poly"]["certified"] is True
        assert third["poly"]["retimed"] is False
        assert first["poly"]["region"] == second["poly"]["region"]
        assert third["poly"]["region"] != first["poly"]["region"]

    def test_exact_at_captured_size_matches_coroutine(self, tmp_path):
        from repro.bench.executor import exec_payload

        cell = _poly_cell(8 * MB)
        ref = exec_payload(dict(cell, type="cell"))
        out = _poly_run(8 * MB, tmp_path)
        out.pop("captured", None)
        # the full content-addressed key, never a truncation (a
        # truncated key can collide across regions)
        assert out.pop("poly") == {
            "region": descriptor_key(schedule_descriptor(cell, poly=True)),
            "retimed": False,
            "certified": True,
            "cert": {"span": [8 * MB - 64 * KB, 8 * MB + 64 * KB],
                     "in_span": True,
                     "anchors": [8 * MB - 64 * KB, 8 * MB + 64 * KB],
                     "dav": "41*s"},
        }
        assert out == ref

    def test_retimed_result_scales_dav(self, tmp_path):
        from repro.bench.executor import exec_payload

        _poly_run(8 * MB, tmp_path)
        b = _poly_run(IN_SPAN, tmp_path)
        assert b["poly"]["retimed"] is True
        assert b["poly"]["certified"] is True
        # the certificate's affine DAV, not a size-ratio scaling
        assert b["dav"] == exec_payload(
            dict(_poly_cell(IN_SPAN), type="cell"))["dav"]
        assert b["time"] > 0

    def test_out_of_span_size_replays_exactly(self, tmp_path):
        # 12MB shares the 8MB decision region but lies outside its
        # certified span: it replays its own exact capture (the engine's
        # 2.22206 ms), never a size-scaled estimate (1.63524 ms)
        from repro.bench.executor import exec_payload

        ref = exec_payload(dict(_poly_cell(12 * MB), type="cell"))
        _poly_run(8 * MB, tmp_path)
        out = _poly_run(12 * MB, tmp_path)
        assert out["poly"]["retimed"] is False
        assert out["poly"]["certified"] is False
        assert any("outside the certified span" in e
                   for e in out["poly"]["cert_errors"])
        out.pop("poly")
        out.pop("captured")  # its own exact capture
        assert out == ref
        assert round(out["time"] * 1e3, 5) == 2.22206


#: certificate-entry corruptions: the schedule loader's, plus a
#: future-schema *negative* entry (``ok: false`` must not be trusted
#: under a schema this build does not speak)
CERT_CORRUPTIONS = dict(CORRUPTIONS, **{
    "future-negative": _rewrite_result(lambda doc: {
        "schema": "repro-symcert/99", "ok": False,
        "errors": ["SA-SYM-FUTURE"]}),
})


class TestCertifiedPoly:
    """``--compiled --poly``: region certificates make retimed cells
    engine-exact in DAV/footprints; anything they cannot certify
    replays exactly."""

    KB = 1024

    def _cert_cell(self, nbytes, **over):
        # small sizes: certification captures five engine runs
        return dict(_cell(p=2, nbytes=nbytes), type="cell",
                    compiled=True, poly=True, **over)

    def _coroutine(self, nbytes):
        from repro.bench.executor import exec_payload

        return exec_payload(dict(_cell(p=2, nbytes=nbytes), type="cell"))

    def test_retimed_cell_gets_engine_exact_dav(self, tmp_path):
        from repro.bench.executor import exec_payload

        base = self._cert_cell(8 * self.KB, results_dir=str(tmp_path))
        exec_compiled_cell(base)
        # 7936 = 8192 - 256 (the p=2 region modulus): same region
        # (8448 would cross the 8 KB DPML block boundary), different
        # size -> retimed, and certification makes the DAV exact
        # rather than round(8192-dav * 7936/8192)
        out = exec_compiled_cell(
            self._cert_cell(7936, results_dir=str(tmp_path)))
        assert out["poly"]["retimed"] is True
        assert out["poly"]["certified"] is True
        assert out["poly"]["cert"]["dav"].endswith("*s")
        ref = exec_payload(dict(_cell(p=2, nbytes=7936), type="cell"))
        assert out["dav"] == ref["dav"]

    def test_exact_replay_annotated_not_changed(self, tmp_path):
        from repro.bench.executor import exec_payload

        cell = self._cert_cell(8 * self.KB, results_dir=str(tmp_path))
        out = exec_compiled_cell(cell)
        assert out["poly"]["retimed"] is False
        assert out["poly"]["certified"] is True
        ref = exec_payload(dict(_cell(p=2, nbytes=8 * self.KB),
                                type="cell"))
        out.pop("captured", None)
        out.pop("poly")
        assert out == ref  # bitwise replay untouched by the cert

    def test_certificate_cached_and_memoized(self, tmp_path,
                                             monkeypatch):
        import repro.analysis.static.symbolic as symbolic

        calls = []
        real = symbolic.certify_region

        def counting(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(symbolic, "certify_region", counting)
        exec_compiled_cell(
            self._cert_cell(8 * self.KB, results_dir=str(tmp_path)))
        exec_compiled_cell(
            self._cert_cell(7936, results_dir=str(tmp_path)))
        assert len(calls) == 1, "one certification per region"
        # a fresh process (memo dropped) reads the cert from disk
        clear_schedule_memo()
        exec_compiled_cell(
            self._cert_cell(7936, results_dir=str(tmp_path)))
        assert len(calls) == 1

    def test_uncertifiable_region_reports_never_silent(self, tmp_path,
                                                       monkeypatch):
        import repro.analysis.static.symbolic as symbolic
        from repro.analysis.static.report import Finding, Report

        def failing(spec, machine, p, base, **kw):
            report = Report(case="forced failure")
            report.extend("sym-certify", [Finding(
                code="SA-SYM-SHAPE", severity="error",
                message="forced", pass_name="sym-certify",
                case="forced failure")])
            return None, report

        monkeypatch.setattr(symbolic, "certify_region", failing)
        anchor = exec_compiled_cell(
            self._cert_cell(8 * self.KB, results_dir=str(tmp_path)))
        out = exec_compiled_cell(
            self._cert_cell(7936, results_dir=str(tmp_path)))
        for cell in (anchor, out):
            assert cell["poly"]["certified"] is False
            assert cell["poly"]["retimed"] is False
            assert cell["poly"]["cert_errors"] == ["SA-SYM-SHAPE"]
        # the refused non-anchor size replays its own exact capture
        assert out.pop("captured") is True
        out.pop("poly")
        assert out == self._coroutine(7936)

    def test_outside_certified_span_refuses(self, tmp_path,
                                            monkeypatch):
        # affinity is only proven between the endpoint-checked anchors
        # (per-op shape can flip past them, e.g. at the non-temporal
        # threshold), so a size beyond the span replays exactly and
        # says why — never extrapolate
        import repro.bench.compiled as bc

        real = bc._load_certificate

        def narrowed(payload, cs):
            cert, codes = real(payload, cs)
            if cert is not None:
                cert.lo = cert.hi = 8 * self.KB  # shrink to the base
            return cert, codes

        monkeypatch.setattr(bc, "_load_certificate", narrowed)
        exec_compiled_cell(
            self._cert_cell(8 * self.KB, results_dir=str(tmp_path)))
        out = exec_compiled_cell(
            self._cert_cell(7936, results_dir=str(tmp_path)))
        assert out["poly"]["retimed"] is False
        assert out["poly"]["certified"] is False
        assert any("outside the certified span" in e
                   for e in out["poly"]["cert_errors"])
        out.pop("poly")
        out.pop("captured")
        assert out == self._coroutine(7936)

    @pytest.mark.parametrize("corrupt", sorted(CERT_CORRUPTIONS))
    def test_corrupt_certificate_entries_recertified(self, tmp_path,
                                                     corrupt, monkeypatch):
        import repro.analysis.static.symbolic as symbolic
        from repro.bench.compiled import cell_guards, certificate_descriptor

        exec_compiled_cell(
            self._cert_cell(8 * self.KB, results_dir=str(tmp_path)))
        cell = self._cert_cell(7936, results_dir=str(tmp_path))
        clean = exec_compiled_cell(cell)
        key = descriptor_key(certificate_descriptor(cell, cell_guards(cell)))
        CERT_CORRUPTIONS[corrupt](_entry_path(tmp_path, key))
        clear_schedule_memo()
        calls = []
        real = symbolic.certify_region

        def counting(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(symbolic, "certify_region", counting)
        assert exec_compiled_cell(cell) == clean
        assert len(calls) == 1, "a corrupt entry is a miss: re-certify"
        # the re-certification repaired the entry on disk
        clear_schedule_memo()
        assert exec_compiled_cell(cell) == clean
        assert len(calls) == 1


class TestScheduleMemo:
    def test_memo_serves_repeat_calls_without_results_dir(self,
                                                          monkeypatch):
        captures = []
        real = capture_schedule

        def counting(*a, **kw):
            captures.append(a)
            return real(*a, **kw)

        monkeypatch.setattr("repro.bench.compiled.capture_schedule",
                            counting)
        first = exec_compiled_cell(_payload())
        second = exec_compiled_cell(_payload())
        assert len(captures) == 1, \
            "memo must cover the cache-less (--no-cache) path"
        first.pop("captured", None)
        assert second == first

    def test_memo_capped(self):
        from repro.bench import compiled as mod

        clear_schedule_memo()
        for i in range(mod._MEMO_CAP + 5):
            mod._memo_put(("", f"k{i}"), object())
        assert len(mod._SCHEDULE_MEMO) == mod._MEMO_CAP
        assert ("", "k0") not in mod._SCHEDULE_MEMO  # oldest evicted


class TestAtomicPut:
    def test_no_shared_tmp_name_collision(self, tmp_path):
        # two caches writing the same key concurrently must never
        # interleave: each writer owns a unique temp file
        import threading

        from repro.bench.cache import ResultCache

        caches = [ResultCache(tmp_path) for _ in range(4)]
        key = "ab" + "0" * 62
        payload = {"v": list(range(500))}
        errors = []

        def writer(c):
            try:
                for _ in range(50):
                    c.put(key, {"d": 1}, payload)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(c,))
                   for c in caches]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert caches[0].get(key) == payload  # intact, complete JSON
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []


class TestCompiledSweep:
    def test_table_identical_to_coroutine(self, tmp_path, tiny_sweep):
        ref = run_sweep_table(tiny_sweep)
        out = run_sweep_table(tiny_sweep, compiled=True,
                              results_dir=tmp_path)
        assert out.to_json() == ref.to_json()

    def test_schedules_persist_without_result_cache(self, tmp_path,
                                                    tiny_sweep):
        # --no-cache disables the *result* cache only: schedules still
        # persist, which is what makes re-simulation pure replay
        run_sweep_table(tiny_sweep, cache=None, compiled=True,
                        results_dir=tmp_path)
        stored = list((tmp_path / "compiled").rglob("*.json"))
        assert len(stored) == 4  # one schedule per sweep cell

    def test_poly_table_on_distinct_regions_matches_coroutine(
            self, tmp_path, tiny_sweep):
        # the tiny sweep's sizes sit in different decision regions
        # (their 8KB-block counts differ), so every poly cell replays
        # exactly — the table must equal the coroutine one apart from
        # the poly provenance note
        ref = run_sweep_table(tiny_sweep)
        out = run_sweep_table(tiny_sweep, compiled=True, poly=True,
                              results_dir=tmp_path)
        assert any("0 model-retimed" in n for n in out.notes)
        out.notes = []
        assert out.to_json() == ref.to_json()

    def test_perturb_stats_attach_and_are_deterministic(
            self, tmp_path, tiny_sweep):
        pb = {"n": 16, "model": "mixed", "seed": 9}
        a = run_sweep_table(tiny_sweep, compiled=True, perturb=pb,
                            results_dir=tmp_path)
        clear_schedule_memo()
        b = run_sweep_table(tiny_sweep, compiled=True, perturb=pb,
                            results_dir=tmp_path)
        assert a.to_json() == b.to_json()
        for impl in a.impls():
            for s in a.sizes:
                stats = a.perturb[impl][s]
                assert stats["n"] == 16
                assert stats["base"] <= stats["p50"] <= stats["p999"]
        # distinct cells perturb distinct streams
        impl = a.impls()[0]
        s0, s1 = a.sizes[:2]
        assert a.perturb[impl][s0]["p99"] != a.perturb[impl][s1]["p99"]
        assert "perturb" in a.to_json()["impls"][impl]

    def test_perturb_requires_no_poly_and_composes_with_it(
            self, tmp_path, tiny_sweep):
        pb = {"n": 8, "model": "os-noise", "seed": 1}
        out = run_sweep_table(tiny_sweep, compiled=True, poly=True,
                              perturb=pb, results_dir=tmp_path)
        for impl in out.impls():
            assert set(out.perturb[impl]) == set(out.sizes)

    def test_poly_and_perturb_results_key_separately(self):
        cell = _cell()
        keys = {
            descriptor_key(cell_descriptor(cell, compiled=True)),
            descriptor_key(cell_descriptor(cell, compiled=True,
                                           poly=True)),
            descriptor_key(cell_descriptor(
                cell, compiled=True,
                perturb={"n": 4, "model": "mixed", "seed": 1})),
        }
        assert len(keys) == 3

    def test_schedule_cache_stats(self, tmp_path):
        cache = CompiledScheduleCache(tmp_path / "compiled")
        assert cache.stats() == "0/0 schedules from cache"
