"""Unified observability layer: counters, spans, Perfetto export.

Everything in this package *consumes* the existing trace and machine
instrumentation — it adds no new hooks to the engine hot loops:

* :class:`~repro.obs.counters.Counters` — the per-rank counter
  registry (copy / NT / reduce / touch bytes, sync-wait and
  barrier-stall time, memory-level traffic, DAV, utilization),
  snapshotted into every :class:`~repro.library.yhccl.CollectiveResult`
  (which the profiler records) and every ``repro-bench/1`` sweep cell;
* :func:`~repro.obs.perfetto.chrome_trace` /
  :func:`~repro.obs.perfetto.write_chrome_trace` — Chrome
  trace-event / Perfetto JSON export with per-rank tracks, phase
  spans, post→wait flow arrows and byte-counter tracks, behind
  ``python -m repro trace <collective> --out trace.json``;
* the span API lives on the engine itself
  (:meth:`repro.sim.engine.RankCtx.span`) so collectives can label
  phases without importing this package.

See ``docs/observability.md``.
"""

from repro.obs.counters import SCHEMA, Counters, RankCounters
from repro.obs.perfetto import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "SCHEMA",
    "Counters",
    "RankCounters",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
