"""Canonical JSON serialization for benchmark results.

Schema ``repro-bench/1``.  Per-benchmark documents
(``BENCH_<name>.json``) and the consolidated ``BENCH_summary.json`` are
written with sorted keys and fixed indentation so that two runs with
identical results produce byte-identical files — the property the
parallel-vs-serial equality tests pin down.  Nothing time- or
host-dependent (wall clock, cache hit counts, worker counts) goes into
these files *as written by the suite*.

The one documented exception — provenance, not results, and excluded
from every determinism guarantee (:func:`summary_doc` output itself
stays byte-stable): the CLI front end appends an advisory
``wall_clock`` block to ``BENCH_summary.json`` after a run, recording
suite wall-clock per engine mode (coroutine vs compiled) and their
ratio — the before/after evidence for the compiled evaluator.  The
block is keyed to the source version and replaced wholesale when the
tree changes; it persists in the ``wall_clock.json`` sidecar between
runs.  Simulator wall-clock by layer lives in the ``perf/`` harness.

Perturbation tail statistics (``--perturb``) are *not* an exception:
ensembles are seeded per cell from the schedule identity, so the
p50/p99/p999 blocks embedded in sweep tables are deterministic bench
content like any other cell value.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Optional

SCHEMA = "repro-bench/1"


def sanitize(obj):
    """Coerce an arbitrary benchmark payload to JSON-safe values.

    Dataclasses become dicts, tuples become lists, non-string mapping
    keys are stringified (tuple keys joined with ``/``), and
    non-finite floats become ``None`` (JSON has no ``Infinity``).
    Unknown objects fall back to ``repr``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: sanitize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(k, tuple):
                k = "/".join(str(x) for x in k)
            elif not isinstance(k, str):
                k = str(k)
            out[k] = sanitize(v)
        return out
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else obj
        return [sanitize(v) for v in items]
    if hasattr(obj, "__dict__"):
        return {str(k): sanitize(v) for k, v in vars(obj).items()}
    return repr(obj)


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def benchmark_doc(name: str, *, source_version: str, quick: bool,
                  tables=None, custom_payload=None) -> dict:
    """The per-benchmark JSON document."""
    doc = {
        "schema": SCHEMA,
        "benchmark": name,
        "source_version": source_version,
        "quick": quick,
    }
    if tables is not None:
        doc["sweeps"] = [t.to_json() for t in tables]
    if custom_payload is not None:
        doc["custom"] = sanitize(custom_payload)
    return doc


def summary_doc(docs: "list[dict]", *, source_version: str,
                quick: bool) -> dict:
    """Consolidated trajectory document over one suite run.

    Per benchmark: the per-benchmark file name plus, for declarative
    sweeps, the geometric-mean time ratio of every implementation to
    the sweep baseline (> 1 means the baseline is faster) — the compact
    perf-trajectory signal.
    """
    benchmarks = {}
    for doc in docs:
        entry: dict = {"file": f"BENCH_{doc['benchmark']}.json"}
        if "sweeps" in doc:
            sweeps = {}
            for sweep in doc["sweeps"]:
                geo = {}
                for impl, rel in sweep["relative_to_baseline"].items():
                    vals = [v for v in rel.values() if v > 0]
                    if vals:
                        prod = 1.0
                        for v in vals:
                            prod *= v
                        geo[impl] = prod ** (1.0 / len(vals))
                sweeps[sweep["title"]] = {
                    "baseline": sweep["baseline"],
                    "sizes": len(sweep["sizes"]),
                    "geomean_time_vs_baseline": geo,
                }
            entry["sweeps"] = sweeps
        else:
            entry["custom"] = True
        benchmarks[doc["benchmark"]] = entry
    return {
        "schema": SCHEMA,
        "source_version": source_version,
        "quick": quick,
        "benchmarks": benchmarks,
    }


def write_json(doc: dict, path: Path) -> Optional[Path]:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_dumps(doc))
    return path
