"""Persistent result cache: keying, hit/miss accounting, invalidation."""

import json

import pytest

from repro.bench.cache import (
    ResultCache,
    descriptor_key,
    iter_source_files,
    package_root,
    reset_source_version,
    source_version,
)
from repro.bench.executor import run_sweep_table


class TestDescriptorKey:
    def test_deterministic(self):
        d = {"a": 1, "b": [1, 2], "c": {"x": None}}
        assert descriptor_key(d) == descriptor_key(dict(d))

    def test_key_order_irrelevant(self):
        assert descriptor_key({"a": 1, "b": 2}) == \
            descriptor_key({"b": 2, "a": 1})

    def test_distinct_descriptors_distinct_keys(self):
        base = {"source": "v1", "nbytes": 65536}
        assert descriptor_key(base) != descriptor_key({**base, "nbytes": 1})

    def test_source_version_changes_the_key(self):
        # the invalidation contract: any repro source edit changes the
        # embedded source hash, which changes every cell key
        base = {"source": "a" * 64, "nbytes": 65536}
        edited = {**base, "source": "b" * 64}
        assert descriptor_key(base) != descriptor_key(edited)


class TestSourceVersion:
    def test_hex_and_memoized(self):
        v = source_version()
        assert len(v) == 64 and int(v, 16) >= 0
        assert source_version() == v

    def test_source_files_exclude_pycache(self):
        files = iter_source_files()
        assert files, "repro package sources not found"
        assert all("__pycache__" not in p.parts for p in files)
        assert all(p.suffix == ".py" for p in files)

    def test_hash_anchored_at_package_root(self, tmp_path, monkeypatch):
        # regression: the hash once anchored relative paths at the
        # *parent of the first-sorting file* — adding a subpackage that
        # sorts before __init__.py shifted every relative path and
        # changed the hash of otherwise-untouched files.  Paths must be
        # relative to the package root, no matter what sorts first.
        import hashlib

        pkg = tmp_path / "repro"
        (pkg / "zzz").mkdir(parents=True)
        (pkg / "__init__.py").write_text("# init\n")
        (pkg / "zzz" / "mod.py").write_text("# leaf\n")
        monkeypatch.setattr("repro.bench.cache.package_root", lambda: pkg)
        reset_source_version()
        try:
            expected = hashlib.sha256()
            for rel in ["__init__.py", "zzz/mod.py"]:
                expected.update(rel.encode() + b"\0")
                expected.update((pkg / rel).read_bytes() + b"\0")
            assert source_version() == expected.hexdigest()
            # a subpackage sorting before __init__.py must not shift
            # the relative paths of existing files
            (pkg / "aaa").mkdir()
            (pkg / "aaa" / "early.py").write_text("# early\n")
            reset_source_version()
            changed = hashlib.sha256()
            for rel in ["__init__.py", "aaa/early.py", "zzz/mod.py"]:
                changed.update(rel.encode() + b"\0")
                changed.update((pkg / rel).read_bytes() + b"\0")
            assert source_version() == changed.hexdigest()
        finally:
            reset_source_version()

    def test_reset_drops_the_memo(self, monkeypatch):
        real = source_version()
        monkeypatch.setattr("repro.bench.cache._SOURCE_VERSION", "f" * 64)
        assert source_version() == "f" * 64
        reset_source_version()
        try:
            assert source_version() == real
        finally:
            reset_source_version()

    def test_package_root_is_the_repro_package(self):
        root = package_root()
        assert root.name == "repro"
        assert (root / "__init__.py").exists()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        desc = {"source": "v", "cell": 1}
        key = descriptor_key(desc)
        assert cache.get(key) is None
        cache.put(key, desc, {"time": 1.0})
        assert cache.get(key) == {"time": 1.0}
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats() == "1/2 cells from cache"

    def test_entry_is_inspectable_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        desc = {"source": "v", "cell": 2}
        key = descriptor_key(desc)
        cache.put(key, desc, {"time": 2.0})
        entry = json.loads((tmp_path / "cache" / key[:2]
                            / f"{key}.json").read_text())
        assert entry == {"key": key, "descriptor": desc,
                         "result": {"time": 2.0}}

    def test_disabled_cache_never_hits_or_writes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", enabled=False)
        desc = {"cell": 3}
        key = descriptor_key(desc)
        cache.put(key, desc, {"time": 3.0})
        assert cache.get(key) is None
        assert not (tmp_path / "cache").exists()
        assert cache.hits == 0 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        desc = {"cell": 4}
        key = descriptor_key(desc)
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get(key) is None
        # a put repairs it
        cache.put(key, desc, {"time": 4.0})
        assert cache.get(key) == {"time": 4.0}

    @pytest.mark.parametrize("entry", [[1, 2], {"key": "k"},
                                       {"result": [1, 2]},
                                       {"result": None}])
    def test_malformed_entry_is_a_miss(self, tmp_path, entry):
        cache = ResultCache(tmp_path / "cache")
        key = descriptor_key({"cell": 5})
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)


class TestSweepThroughCache:
    def test_second_run_fully_cached(self, tmp_path, tiny_sweep):
        cache = ResultCache(tmp_path / "cache")
        t1 = run_sweep_table(tiny_sweep, cache=cache)
        assert cache.hits == 0 and cache.misses == 4
        t2 = run_sweep_table(tiny_sweep, cache=cache)
        assert cache.hits == 4
        assert t2.to_json() == t1.to_json()

    def test_source_version_change_invalidates(self, tmp_path, tiny_sweep,
                                               monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        run_sweep_table(tiny_sweep, cache=cache)
        misses_before = cache.misses
        # simulate an edit to the repro sources: every cell must re-run
        monkeypatch.setattr("repro.bench.executor.source_version",
                            lambda: "0" * 64)
        run_sweep_table(tiny_sweep, cache=cache)
        assert cache.misses == misses_before + 4

    def test_results_survive_via_cache_without_simulation(self, tmp_path,
                                                          tiny_sweep,
                                                          monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        expected = run_sweep_table(tiny_sweep, cache=cache)
        # if every cell is served from cache, nothing executes
        monkeypatch.setattr(
            "repro.bench.executor.exec_payload",
            lambda payload: pytest.fail("cache bypassed"),
        )
        table = run_sweep_table(tiny_sweep, cache=cache)
        assert table.to_json() == expected.to_json()
