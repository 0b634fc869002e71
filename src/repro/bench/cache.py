"""Persistent on-disk result cache for benchmark cells.

Every cell — one ``(machine, implementation, size)`` point of a
declarative sweep, or one whole custom benchmark function — is keyed by
the SHA-256 of its canonical-JSON descriptor.  The descriptor embeds
the full machine spec, the runner spec (algorithm name, copy policy,
slice cap, ...), the message size and rank count, and the *source
version*: a content hash over every ``repro`` source file.  Any edit to
the simulator, the collectives or the models invalidates every cached
cell; re-runs after unrelated edits (docs, tests, benchmarks' shape
assertions) are served from cache.

Entries live under ``benchmarks/results/cache/<k[:2]>/<k>.json`` so the
cache is inspectable and individually deletable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

_SOURCE_VERSION: Optional[str] = None


def package_root() -> Path:
    """The ``repro`` package directory — the root all source hashes are
    relative to."""
    import repro

    return Path(repro.__file__).resolve().parent


def iter_source_files():
    """Every ``repro`` package source file, in stable order."""
    pkg = package_root()
    return sorted(
        p for p in pkg.rglob("*.py") if "__pycache__" not in p.parts
    )


def source_version() -> str:
    """Content hash of the ``repro`` package sources (memoized).

    Hash-relative paths are anchored at :func:`package_root`, not at the
    parent of whichever file happens to sort first (``repro/__init__.py``
    today, but any ``repro/aaa/`` subpackage would silently shift every
    relative path and change the hash).
    """
    global _SOURCE_VERSION
    if _SOURCE_VERSION is None:
        h = hashlib.sha256()
        pkg_root = package_root()
        for path in iter_source_files():
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _SOURCE_VERSION = h.hexdigest()
    return _SOURCE_VERSION


def reset_source_version() -> None:
    """Drop the memoized source hash so the next :func:`source_version`
    call re-reads the tree.  Called from the bench pool initializer (a
    forked worker must not trust a hash memoized before the fork) and
    from test fixtures that monkeypatch the source tree."""
    global _SOURCE_VERSION
    _SOURCE_VERSION = None


def descriptor_key(descriptor: dict) -> str:
    """SHA-256 over the canonical JSON form of a cell descriptor."""
    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Content-addressed store of cell results.

    ``enabled=False`` turns every lookup into a miss and every store
    into a no-op (the ``--no-cache`` path), while still counting stats.
    """

    def __init__(self, root: Path, *, enabled: bool = True):
        self.root = Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        if self.enabled:
            path = self._path(key)
            try:
                entry = json.loads(path.read_text())
                result = entry["result"]
            except (OSError, ValueError, KeyError, TypeError):
                pass  # absent or corrupt entry: recompute
            else:
                if isinstance(result, dict):  # else corrupt: recompute
                    self.hits += 1
                    return result
        self.misses += 1
        return None

    def put(self, key: str, descriptor: dict, result: dict) -> None:
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"key": key, "descriptor": descriptor, "result": result}
        # Unique temp file per writer + atomic rename: concurrent
        # workers (or whole concurrent suites) writing the same key can
        # never interleave partial content — last rename wins whole.
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{key[:8]}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, sort_keys=True, indent=1) + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def stats(self) -> str:
        return f"{self.hits}/{self.lookups} cells from cache"
