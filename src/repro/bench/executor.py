"""Cell execution: serial or fanned out over a process pool, through
the persistent result cache.

The unit of work is a *cell*:

* declarative sweeps yield one cell per (implementation, x) point —
  these parallelize across CPU cores and cache individually;
* a custom benchmark (one module-level function) is a single cell —
  it still runs in a worker and caches as a whole.

Workers receive pure-data payloads (no closures cross the process
boundary): the machine preset name, the rank count, the message size
and the :class:`~repro.bench.spec.RunnerSpec` dict — or, for custom
cells, the benchmark module and function names to re-import.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.cache import ResultCache, descriptor_key, source_version
from repro.bench.jsonio import SCHEMA, benchmark_doc, sanitize, summary_doc
from repro.bench.runners import ITERATIONS
from repro.bench.spec import Benchmark, RunnerSpec, SweepSpec
from repro.bench.table import SweepTable


def _quick() -> bool:
    return bool(int(os.environ.get("REPRO_QUICK", "0")))


# ---------------------------------------------------------------------------
# Worker entry points (top-level: picklable by reference)
# ---------------------------------------------------------------------------


def _worker_init(bench_dir: str) -> None:
    """Make the benchmarks directory importable inside workers (needed
    for custom cells under spawn-based start methods; harmless under
    fork), and drop any source-version hash memoized before the fork —
    a worker must key cache entries off the tree it actually sees."""
    import sys

    from repro.bench.cache import reset_source_version

    reset_source_version()
    if bench_dir and bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)


def exec_payload(payload: dict) -> dict:
    """Execute one cell payload; returns a JSON-safe result dict."""
    if payload["type"] == "cell":
        if payload.get("compiled"):
            from repro.bench.compiled import exec_compiled_cell

            return exec_compiled_cell(payload)
        from repro.library.communicator import Communicator
        from repro.machine.spec import PRESETS

        spec = RunnerSpec.from_dict(payload["runner"])
        machine = PRESETS[payload["machine"]]
        comm = Communicator(payload["p"], machine=machine, functional=False)
        res = spec.resolve()(comm, payload["nbytes"])
        return {"time": res.time, "dav": res.dav,
                "algorithm": res.algorithm, "counters": res.counters}
    _worker_init(payload.get("bench_dir", ""))
    module = importlib.import_module(payload["module"])
    fn = getattr(module, payload["attr"])
    return {"payload": sanitize(fn())}


# ---------------------------------------------------------------------------
# Cache descriptors
# ---------------------------------------------------------------------------


def cell_descriptor(cell: dict, *, compiled: bool = False,
                    poly: bool = False,
                    perturb: Optional[dict] = None) -> dict:
    """The cache identity of a sweep cell: full machine spec, runner
    spec, geometry and the repro source version.

    Compiled-mode results key separately (``engine: "compiled"`` is
    added *only* then, so every pre-existing coroutine key is
    byte-stable): replayed results are bitwise-equal to coroutine ones
    by construction, but sharing entries would let a cached coroutine
    result mask a compiled-path regression.  Size-polymorphic replay
    keys as ``engine: "compiled-poly"`` — a certified retimed result
    carries model-derived times and must never be served where an
    exact one is expected.  A perturbation config changes the result
    content (tail statistics ride along), so it is part of the
    identity too.
    """
    from repro.machine.spec import PRESETS

    desc = {
        "schema": SCHEMA,
        "source": source_version(),
        "machine": dataclasses.asdict(PRESETS[cell["machine"]]),
        "p": cell["p"],
        "nbytes": cell["nbytes"],
        "iterations": ITERATIONS,
        "runner": cell["runner"],
    }
    if compiled:
        desc["engine"] = "compiled-poly" if poly else "compiled"
        if perturb:
            desc["perturb"] = dict(perturb)
    return desc


def custom_descriptor(module_path: Path, attr: str) -> dict:
    """Custom cells hash the defining module's bytes too: the function
    body *is* the sweep definition."""
    import hashlib

    return {
        "schema": SCHEMA,
        "source": source_version(),
        "custom": module_path.stem,
        "attr": attr,
        "module_sha": hashlib.sha256(module_path.read_bytes()).hexdigest(),
        "quick": _quick(),
    }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class BenchResult:
    """One benchmark's outcome: tables for declarative sweeps, the
    sanitized payload for custom ones, and its JSON document."""

    name: str
    tables: List[SweepTable] = field(default_factory=list)
    custom_payload: Optional[dict] = None
    #: compiled-path captures this run performed (cache/memo misses);
    #: run-dependent, so reported via progress — never serialized
    captures: int = 0

    def doc(self) -> dict:
        return benchmark_doc(
            self.name,
            source_version=source_version(),
            quick=_quick(),
            tables=self.tables if self.tables else None,
            custom_payload=self.custom_payload,
        )


class _Work:
    """One cell flowing through cache-check → execute → collect."""

    __slots__ = ("payload", "key", "descriptor", "result", "future")

    def __init__(self, payload: dict, descriptor: dict):
        self.payload = payload
        self.descriptor = descriptor
        self.key = descriptor_key(descriptor)
        self.result: Optional[dict] = None
        self.future = None


def _drain(work: "list[_Work]", cache: Optional[ResultCache],
           pool: Optional[ProcessPoolExecutor]) -> None:
    """Resolve every work item: cache hit, pool future or inline run."""
    from repro.bench.compiled import TRANSIENT_RESULT_KEYS

    for w in work:
        if cache is not None:
            w.result = cache.get(w.key)
        if w.result is None and pool is not None:
            w.future = pool.submit(exec_payload, w.payload)
    for w in work:
        if w.result is None:
            w.result = w.future.result() if w.future is not None \
                else exec_payload(w.payload)
            if cache is not None:
                # run artifacts (e.g. whether this run captured the
                # schedule) describe the run, not the result: strip
                cache.put(w.key, w.descriptor,
                          {k: v for k, v in w.result.items()
                           if k not in TRANSIENT_RESULT_KEYS})


def _sweep_work(spec: SweepSpec, *, compiled: bool = False,
                poly: bool = False,
                perturb: Optional[dict] = None,
                results_dir: Optional[Path] = None) -> "list[_Work]":
    out = []
    for cell in spec.cells():
        payload = {
            "type": "cell",
            "machine": cell["machine"],
            "p": cell["p"],
            "nbytes": cell["nbytes"],
            "runner": cell["runner"],
        }
        if compiled:
            payload["compiled"] = True
            if poly:
                payload["poly"] = True
            if perturb:
                payload["perturb"] = dict(perturb)
            if results_dir is not None:
                payload["results_dir"] = str(results_dir)
        out.append(_Work(payload, cell_descriptor(
            cell, compiled=compiled, poly=poly, perturb=perturb)))
    return out


def _sweep_table(spec: SweepSpec, work: "list[_Work]") -> SweepTable:
    table = SweepTable(title=spec.title, sizes=list(spec.sizes),
                       baseline=spec.baseline)
    regions = set()
    retimed = certified = refused = 0
    for cell, w in zip(spec.cells(), work):
        # .get: cache entries written before the counter schema lack
        # the key (source_version() normally invalidates them, but a
        # hand-copied cache directory must not crash the suite)
        table.add(cell["impl"], cell["x"], w.result["time"],
                  dav=w.result["dav"], algorithm=w.result["algorithm"],
                  counters=w.result.get("counters"),
                  perturb=w.result.get("perturb"))
        poly = w.result.get("poly")
        if poly:
            regions.add(poly["region"])
            retimed += bool(poly.get("retimed"))
            certified += bool(poly.get("certified"))
            refused += not poly.get("certified")
    if regions:
        note = (f"size-poly: {len(work)} cells from {len(regions)} "
                f"decision regions ({retimed} model-retimed); "
                f"{certified} certified")
        if refused:
            note += (f", {refused} replayed exactly (see "
                     "poly.cert_errors)")
        table.notes.append(note)
    return table


def run_sweep_table(spec: SweepSpec, *,
                    cache: Optional[ResultCache] = None,
                    pool: Optional[ProcessPoolExecutor] = None,
                    compiled: bool = False,
                    poly: bool = False,
                    perturb: Optional[dict] = None,
                    results_dir: Optional[Path] = None) -> SweepTable:
    """Execute one sweep (serial and uncached unless given otherwise).

    This is the pytest benchmark path: the per-figure modules call it
    from their ``run_figure`` helpers and keep their shape assertions.
    ``compiled=True`` replays lowered schedules instead of executing
    the coroutine engine (persisted under ``results_dir`` when given);
    ``poly=True`` shares schedules across sizes per certified decision
    region (sizes it cannot certify replay exactly), and ``perturb``
    (``{"n", "model", "seed"}``) attaches tail statistics from a
    seeded noise ensemble to every cell.
    """
    work = _sweep_work(spec, compiled=compiled, poly=poly,
                       perturb=perturb, results_dir=results_dir)
    _drain(work, cache, pool)
    return _sweep_table(spec, work)


def run_benchmark(bench: Benchmark, *,
                  bench_dir: Optional[Path] = None,
                  cache: Optional[ResultCache] = None,
                  pool: Optional[ProcessPoolExecutor] = None,
                  compiled: bool = False,
                  poly: bool = False,
                  perturb: Optional[dict] = None,
                  results_dir: Optional[Path] = None) -> BenchResult:
    """Execute one benchmark through the cache/pool machinery.

    ``compiled`` / ``poly`` / ``perturb`` apply to
    declarative sweep cells only: custom benchmark functions drive the
    engine themselves and always run the coroutine path.
    """
    result = BenchResult(name=bench.name)
    if bench.custom:
        from repro.bench.discover import benchmarks_dir

        bench_dir = bench_dir or benchmarks_dir()
        module_path = bench_dir / f"{bench.module}.py"
        payload = {
            "type": "custom",
            "module": bench.module,
            "attr": bench.custom,
            "bench_dir": str(bench_dir),
        }
        work = [_Work(payload, custom_descriptor(module_path, bench.custom))]
        _drain(work, cache, pool)
        result.custom_payload = work[0].result["payload"]
        return result
    all_work = [_sweep_work(s, compiled=compiled, poly=poly,
                            perturb=perturb, results_dir=results_dir)
                for s in bench.sweeps]
    flat = [w for ws in all_work for w in ws]
    _drain(flat, cache, pool)
    result.captures = sum(1 for w in flat if w.result.get("captured"))
    for spec, work in zip(bench.sweeps, all_work):
        result.tables.append(_sweep_table(spec, work))
    return result


def run_suite(benchmarks: "Dict[str, Benchmark]", *,
              bench_dir: Optional[Path] = None,
              results_dir: Optional[Path] = None,
              jobs: int = 1,
              use_cache: bool = True,
              write_json: bool = True,
              compiled: bool = False,
              poly: bool = False,
              perturb: Optional[dict] = None,
              progress=None):
    """Run a set of benchmarks; write per-benchmark JSON documents and
    the consolidated ``BENCH_summary.json``.

    Returns ``(summary, docs, cache)``.  ``jobs <= 0`` means one worker
    per CPU core; ``jobs == 1`` runs inline (no pool).  ``compiled``
    switches sweep cells to the compiled-schedule replay path; the
    lowered schedules persist under ``<results_dir>/compiled/`` even
    when the result cache is disabled.  ``poly`` keys schedules by
    decision region (one capture serves every size its certificate
    covers; any other size replays exactly); ``perturb`` attaches
    seeded tail statistics.
    """
    from repro.bench.discover import benchmarks_dir, default_results_dir
    from repro.bench.jsonio import write_json as _write

    bench_dir = bench_dir or benchmarks_dir()
    results_dir = results_dir or default_results_dir()
    cache = ResultCache(results_dir / "cache", enabled=use_cache)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    pool = None
    if jobs > 1:
        pool = ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init,
            initargs=(str(bench_dir),),
        )
    docs = []
    try:
        for name, bench in benchmarks.items():
            if progress is not None:
                progress(f"[bench] {name} ...")
            res = run_benchmark(bench, bench_dir=bench_dir, cache=cache,
                                pool=pool, compiled=compiled, poly=poly,
                                perturb=perturb, results_dir=results_dir)
            doc = res.doc()
            docs.append(doc)
            if write_json:
                _write(doc, results_dir / f"BENCH_{name}.json")
            if progress is not None:
                if compiled and res.captures:
                    progress(f"[bench] {name}: captured {res.captures} "
                             "schedule(s) this run")
                for table in res.tables:
                    progress(table.render())
    finally:
        if pool is not None:
            pool.shutdown()
    summary = summary_doc(docs, source_version=source_version(),
                          quick=_quick())
    if write_json:
        _write(summary, results_dir / "BENCH_summary.json")
    return summary, docs, cache
