"""Per-layer attribution for the traced pass.

The traced pass wraps public functions of each simulator layer *where
their callers look them up* (a module attribute or a class attribute),
so nothing inside ``src/`` changes and the untimed passes run the
unmodified code.  Each wrapped call is a span; a :class:`Tracer` keeps
a stack of open spans and computes every span's self time online as
its duration minus the time its direct children cover.

Per-access layers (memory, cache, copy, trace recording) fire hundreds
of thousands of times per workload, so their spans are aggregated
(calls, self time) instead of stored one by one; the coarse layers'
spans are kept with ``(id, name, start, end, parent id, unit)`` and
written to ``perf/out/trace_<workload>.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

#: layers whose spans are too frequent to keep individually
FINE = frozenset({"memory", "cache", "copyengine", "trace"})


class Tracer:
    """Span stack with online self-time accounting.

    ``begin``/``end`` must nest (the simulator is single-threaded and
    every wrapped function returns before its caller does).  A frame is
    ``[name, start, child_time, span_id]``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.stack: list = []
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.unit = ""
        self._ids = 0

    def begin(self, name: str) -> None:
        sid = -1
        if name not in FINE:
            sid = self._ids
            self._ids += 1
        self.stack.append([name, self.clock(), 0.0, sid])

    def end(self) -> None:
        name, start, child, sid = self.stack.pop()
        end = self.clock()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if sid >= 0:
            parent = next((f[3] for f in reversed(self.stack) if f[3] >= 0),
                          -1)
            self.spans.append((sid, name, start - self.t0, end - self.t0,
                               parent, self.unit))

    def top(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def doc(self) -> dict:
        """JSON form of the trace: kept spans plus per-layer totals."""
        return {
            "span_fields": ["id", "name", "start_s", "end_s", "parent",
                            "unit"],
            "spans": [list(s) for s in self.spans],
            "layers": {name: {"calls": self.calls[name],
                              "self_s": self.self_s[name]}
                       for name in sorted(self.calls)},
            "counts": dict(sorted(self.counts.items())),
        }


# ---------------------------------------------------------------------------
# Hooks: (module, attribute path, span name or None for count-only,
#         result hook)
# ---------------------------------------------------------------------------


def _ops(counter):
    def hook(tr, args, out):
        tr.counts[counter] += len(out)
    return hook


def _self_ops(counter):
    def hook(tr, args, out):
        tr.counts[counter] += len(args[0])
    return hook


def _batch_rows(tr, args, out):
    rows = len(out.times)
    tr.counts["evaluate_batch.rows"] += rows
    tr.counts["evaluate_batch.row_ops"] += rows * len(args[0])


def _cache_get(tr, args, out):
    tr.counts["schedule_cache.lookups"] += 1
    if out is not None:
        tr.counts["schedule_cache.hits"] += 1
        tr.counts["schedule_cache.bytes"] += \
            args[0]._path(args[1]).stat().st_size


def _cache_put(tr, args, out):
    tr.counts["schedule_cache.bytes"] += args[0]._path(args[1]).stat().st_size


def _certified(tr, args, out):
    tr.counts["certify.certified"] += out[0] is not None


def _count(counter):
    def hook(tr, args, out):
        tr.counts[counter] += 1
    return hook


HOOKS = (
    ("repro.bench.executor", "exec_payload", "bench", None),
    ("repro.sim.engine", "Engine.run", "engine", None),
    ("repro.sim.engine", "RankCtx.copy", "copyengine", _count("engine.ops")),
    ("repro.sim.engine", "RankCtx._reduce", None, _count("engine.ops")),
    ("repro.sim.engine", "RankCtx.compute", None, _count("engine.ops")),
    ("repro.sim.engine", "RankCtx.touch", None, _count("engine.ops")),
    ("repro.machine.memory", "MemorySystem.load", "memory", None),
    ("repro.machine.memory", "MemorySystem.store", "memory", None),
    ("repro.machine.cache", "RegionCache.load", "cache", None),
    ("repro.machine.cache", "RegionCache.store", "cache", None),
    ("repro.machine.cache", "RegionCache.store_nt", "cache",
     _count("cache.store_nt.calls")),
    ("repro.machine.cache", "RegionCache.invalidate", "cache", None),
    ("repro.obs.counters", "Counters.from_run", "obs", None),
    ("repro.obs.counters", "Counters.from_machine", "obs", None),
    ("repro.obs.counters", "Counters.from_trace", "obs", None),
    ("repro.obs.counters", "Counters.snapshot", "obs", None),
    ("repro.sim.trace", "Trace.add", "trace", _count("trace.records")),
    ("repro.sim.trace", "Trace.add_event", "trace", _count("trace.events")),
    ("repro.sim.trace", "Trace.add_span", "trace", None),
    ("repro.sim.trace", "Trace.slice_last_run", "trace", None),
    ("repro.analysis.static.extract", "ir_from_trace", "ir", _ops("ir.ops")),
    ("repro.bench.compiled", "lower", "lower", _ops("lower.ops")),
    ("repro.sim.compiled", "CompiledSchedule.evaluate", "evaluate",
     _self_ops("evaluate.ops")),
    ("repro.sim.compiled", "CompiledSchedule.evaluate_batch",
     "evaluate_batch", _batch_rows),
    ("repro.sim.perturb", "run_ensemble", "perturb", None),
    ("repro.bench.compiled", "capture_schedule", "capture", None),
    ("repro.bench.compiled", "CompiledScheduleCache.get",
     "schedule_cache.load", _cache_get),
    ("repro.bench.compiled", "schedule_from_doc", "schedule_cache.load", None),
    ("repro.bench.compiled", "CompiledScheduleCache.put",
     "schedule_cache.store", _cache_put),
    ("repro.bench.compiled", "schedule_to_doc", "schedule_cache.store", None),
    ("repro.analysis.static.symbolic", "certify_region", "certify",
     _certified),
    ("repro.library.hierarchy", "Hierarchy.run", "hierarchy", None),
)

#: a call made from inside a span of one of these layers is part of
#: that span, not a new one (``evaluate`` is a batch of one)
NESTED = {"evaluate_batch": ("evaluate", "evaluate_batch")}


def _wrap(tr: Tracer, fn, name, hook):
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kw):
            out = fn(*args, **kw)
            hook(tr, args, out)
            return out
        return counted
    skip = NESTED.get(name, ())

    @functools.wraps(fn)
    def spanned(*args, **kw):
        if skip and tr.top() in skip:
            return fn(*args, **kw)
        tr.begin(name)
        try:
            out = fn(*args, **kw)
            if hook is not None:
                hook(tr, args, out)
        finally:
            tr.end()
        return out
    return spanned


class Installed:
    """Context manager that installs every hook and restores the
    original attributes on exit."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self._saved: list = []

    def __enter__(self) -> Tracer:
        try:
            for module, path, name, hook in HOOKS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(_wrap(self.tr, raw.__func__, name, hook))
                else:
                    new = _wrap(self.tr, raw, name, hook)
                # an inherited method is shadowed, then deleted again
                own = attr in vars(owner)
                self._saved.append((owner, attr, raw if own else None))
                setattr(owner, attr, new)
        except BaseException:
            self._restore()
            raise
        return self.tr

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("engine.runs", "count"),
    ("engine.ops", "count"),
    ("engine.self_s", "s"),
    ("engine.us_per_op", "us"),
    ("memory.calls", "count"),
    ("memory.self_s", "s"),
    ("memory.calls_per_op", "ratio"),
    ("cache.calls", "count"),
    ("cache.store_nt.calls", "count"),
    ("cache.self_s", "s"),
    ("copyengine.calls", "count"),
    ("copyengine.self_s", "s"),
    ("obs.calls", "count"),
    ("obs.self_s", "s"),
    ("trace.records", "count"),
    ("trace.events", "count"),
    ("trace.self_s", "s"),
    ("ir.calls", "count"),
    ("ir.self_s", "s"),
    ("ir.us_per_op", "us"),
    ("lower.calls", "count"),
    ("lower.self_s", "s"),
    ("lower.us_per_op", "us"),
    ("evaluate.calls", "count"),
    ("evaluate.self_s", "s"),
    ("evaluate.ops_per_s", "1/s"),
    ("evaluate_batch.rows", "count"),
    ("evaluate_batch.self_s", "s"),
    ("evaluate_batch.row_ops_per_s", "1/s"),
    ("perturb.self_s", "s"),
    ("capture.calls", "count"),
    ("capture.self_s", "s"),
    ("schedule_cache.lookups", "count"),
    ("schedule_cache.hit_ratio", "ratio"),
    ("schedule_cache.load_s", "s"),
    ("schedule_cache.store_s", "s"),
    ("schedule_cache.mb", "MB"),
    ("certify.calls", "count"),
    ("certify.self_s", "s"),
    ("certify.certified_ratio", "ratio"),
    ("hierarchy.calls", "count"),
    ("hierarchy.self_s", "s"),
    ("bench.self_s", "s"),
    ("harness.tracing_overhead", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, tracing_overhead: float) -> dict:
    """Every :data:`PER_LAYER` metric from one traced pass."""
    c, s, n = tr.calls, tr.self_s, tr.counts
    values = {
        "engine.runs": c["engine"],
        "engine.ops": n["engine.ops"],
        "engine.self_s": s["engine"],
        "engine.us_per_op": 1e6 * _ratio(s["engine"], n["engine.ops"]),
        "memory.calls": c["memory"],
        "memory.self_s": s["memory"],
        "memory.calls_per_op": _ratio(c["memory"], n["engine.ops"]),
        "cache.calls": c["cache"],
        "cache.store_nt.calls": n["cache.store_nt.calls"],
        "cache.self_s": s["cache"],
        "copyengine.calls": c["copyengine"],
        "copyengine.self_s": s["copyengine"],
        "obs.calls": c["obs"],
        "obs.self_s": s["obs"],
        "trace.records": n["trace.records"],
        "trace.events": n["trace.events"],
        "trace.self_s": s["trace"],
        "ir.calls": c["ir"],
        "ir.self_s": s["ir"],
        "ir.us_per_op": 1e6 * _ratio(s["ir"], n["ir.ops"]),
        "lower.calls": c["lower"],
        "lower.self_s": s["lower"],
        "lower.us_per_op": 1e6 * _ratio(s["lower"], n["lower.ops"]),
        "evaluate.calls": c["evaluate"],
        "evaluate.self_s": s["evaluate"],
        "evaluate.ops_per_s": _ratio(n["evaluate.ops"], s["evaluate"]),
        "evaluate_batch.rows": n["evaluate_batch.rows"],
        "evaluate_batch.self_s": s["evaluate_batch"],
        "evaluate_batch.row_ops_per_s": _ratio(n["evaluate_batch.row_ops"],
                                               s["evaluate_batch"]),
        "perturb.self_s": s["perturb"],
        "capture.calls": c["capture"],
        "capture.self_s": s["capture"],
        "schedule_cache.lookups": n["schedule_cache.lookups"],
        "schedule_cache.hit_ratio": _ratio(n["schedule_cache.hits"],
                                           n["schedule_cache.lookups"]),
        "schedule_cache.load_s": s["schedule_cache.load"],
        "schedule_cache.store_s": s["schedule_cache.store"],
        "schedule_cache.mb": n["schedule_cache.bytes"] / 1e6,
        "certify.calls": c["certify"],
        "certify.self_s": s["certify"],
        "certify.certified_ratio": _ratio(n["certify.certified"],
                                          c["certify"]),
        "hierarchy.calls": c["hierarchy"],
        "hierarchy.self_s": s["hierarchy"],
        "bench.self_s": s["bench"],
        "harness.tracing_overhead": tracing_overhead,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}
