"""The compiled bench cell path: capture → lower → cache → replay.

A sweep cell normally executes the coroutine engine twice (warm-up +
measured iteration).  The compiled path instead:

1. runs the cell **once** with light tracing on (only on schedule-cache
   miss; AccessEvent emission off — the lowering consumes op records
   and sync structure only), lifts the measured iteration into the
   ``repro-ir/1`` DAG and lowers it (:func:`repro.sim.compiled.lower`);
2. stores the lowered schedule in a content-addressed
   :class:`CompiledScheduleCache` under
   ``benchmarks/results/compiled/``, keyed with the same
   ``(machine spec, runner spec, geometry, source_version)`` discipline
   as the result cache — any source edit invalidates every schedule;
3. replays cached schedules with the vectorized evaluator — no
   coroutine execution at all on the re-simulation path.

Replayed results are bitwise-identical to the coroutine cell (same
completion times, same ``repro-obs/1`` counter snapshot), which the
equivalence tests pin across the full collective × p matrix.  Because
cache outcomes in the memory system are access-order and size
dependent, exact schedules are captured per ``(collective, p, size)``
cell — cross-size reuse would silently break exactness.

**Size-polymorphic mode** (``poly=True`` payloads) relaxes that
deliberately: schedules key per *decision region*
(:func:`repro.models.nt_model.decision_guards` — every size-dependent
adaptive decision, evaluated as data).  A cell whose guards match a
cached capture replays it — exactly when the sizes coincide, via
model-level re-timing (:meth:`CompiledSchedule.model_durations` with
scaled footprints) otherwise.  A guard flip keys a different entry,
which *is* the automatic recapture.  One capture serves every size in
its region.

An in-process memo front-ends the on-disk schedule cache so that
perturbation ensembles and ``--no-cache`` re-simulations never
deserialize (or recapture) the same schedule twice in one process.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple

from repro.bench.cache import ResultCache, descriptor_key, source_version
from repro.bench.runners import ITERATIONS
from repro.bench.spec import RunnerSpec
from repro.obs.counters import _TRAFFIC_FIELDS
from repro.sim.compiled import (
    COMPILED_SCHEMA,
    CompiledSchedule,
    ScheduleSchemaError,
    lower,
    schedule_from_doc,
    schedule_to_doc,
)

#: result-dict keys that are run artifacts (cache-state dependent), not
#: part of the deterministic cell result; the executor strips them
#: before persisting to the result cache.
TRANSIENT_RESULT_KEYS = ("captured",)


class CompiledScheduleCache(ResultCache):
    """Content-addressed store of lowered schedules.

    Same entry layout and stats as the result cache (``key`` /
    ``descriptor`` / ``result``, atomic writes), different payload:
    ``result`` holds the ``repro-compiled/1`` schedule document.
    Entries live under ``benchmarks/results/compiled/<k[:2]>/``.
    """

    def stats(self) -> str:
        return f"{self.hits}/{self.lookups} schedules from cache"


# ---------------------------------------------------------------------------
# In-process schedule memo
# ---------------------------------------------------------------------------

#: (results_dir or "", schedule key) -> CompiledSchedule, LRU-capped.
_SCHEDULE_MEMO: "OrderedDict[Tuple[str, str], CompiledSchedule]" = \
    OrderedDict()
#: (results_dir or "", certificate key) -> (certificate or None, error
#: codes); a ``None`` certificate with codes is a *negative* entry — a
#: region that failed certification is not re-attempted per cell.
_CERT_MEMO: "OrderedDict[Tuple[str, str], tuple]" = OrderedDict()
_MEMO_CAP = 64


def clear_schedule_memo() -> None:
    """Drop the in-process schedule and certificate memos (test
    isolation hook)."""
    _SCHEDULE_MEMO.clear()
    _CERT_MEMO.clear()


def _memo_get(memo_key: Tuple[str, str]) -> Optional[CompiledSchedule]:
    cs = _SCHEDULE_MEMO.get(memo_key)
    if cs is not None:
        _SCHEDULE_MEMO.move_to_end(memo_key)
    return cs


def _memo_put(memo_key: Tuple[str, str], cs: CompiledSchedule) -> None:
    _SCHEDULE_MEMO[memo_key] = cs
    _SCHEDULE_MEMO.move_to_end(memo_key)
    while len(_SCHEDULE_MEMO) > _MEMO_CAP:
        _SCHEDULE_MEMO.popitem(last=False)


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


def _cell_policy(runner: dict) -> str:
    """The copy policy a cell's guards are evaluated under: the library
    stack always runs the adaptive switch; algorithm cells pin it."""
    if runner.get("family") == "yhccl":
        return "adaptive"
    return runner.get("policy", "memmove")


def cell_guards(cell: dict) -> dict:
    """Decision guards of one cell payload (see
    :func:`repro.models.nt_model.decision_guards`)."""
    from repro.bench.runners import resolve_imax
    from repro.machine.spec import PRESETS
    from repro.models.nt_model import decision_guards

    machine = PRESETS[cell["machine"]]
    runner = cell["runner"]
    imax = resolve_imax(runner.get("imax"), machine)
    return decision_guards(runner["kind"], cell["nbytes"], cell["p"],
                           machine, imax=imax,
                           policy=_cell_policy(runner))


def schedule_descriptor(cell: dict, *, poly: bool = False,
                        guards: Optional[dict] = None) -> dict:
    """The cache identity of a compiled schedule: full machine spec,
    runner spec, geometry and the repro source version — the result
    cache's key discipline under the compiled schema tag.

    ``poly=True`` swaps the exact-size identity for the *decision
    region* identity: ``nbytes`` is dropped and the cell's evaluated
    guard dict keys the entry instead, so every size whose guards agree
    maps to one schedule.
    """
    from repro.machine.spec import PRESETS

    desc = {
        "schema": COMPILED_SCHEMA,
        "source": source_version(),
        "machine": dataclasses.asdict(PRESETS[cell["machine"]]),
        "p": cell["p"],
        "nbytes": cell["nbytes"],
        "iterations": ITERATIONS,
        "runner": cell["runner"],
    }
    if poly:
        del desc["nbytes"]
        desc["poly"] = True
        desc["guards"] = guards if guards is not None else cell_guards(cell)
    return desc


# ---------------------------------------------------------------------------
# Capture / replay / re-time
# ---------------------------------------------------------------------------


def capture_schedule(spec: RunnerSpec, machine, p: int,
                     nbytes: int) -> CompiledSchedule:
    """Run one cell through the coroutine engine with tracing on and
    lower its measured iteration.

    The traced run's clocks and traffic are identical to the untraced
    bench cell's (tracing only observes), so the captured reference
    times, DAV and per-rank traffic are exactly what the coroutine
    path would report.  Light tracing (``trace_accesses=False``) skips
    the per-range AccessEvent stream — the lowering consumes op
    records and sync structure only — which removes most of the
    capture's tracing overhead.
    """
    from repro.analysis.static.extract import ir_from_trace, machine_meta
    from repro.bench.runners import resolve_imax
    from repro.library.communicator import Communicator
    from repro.models.nt_model import decision_guards

    comm = Communicator(p, machine=machine, functional=False, trace=True,
                        trace_accesses=False)
    cell = spec.resolve()(comm, nbytes)
    res = comm.engine.last_result
    if res is None or res.trace is None:
        raise RuntimeError("cell runner did not execute the engine")
    run_trace = res.trace.slice_last_run(res.first_record, res.first_span)
    ir = ir_from_trace(run_trace, buffers=comm.engine.buffers, meta={
        "label": f"{spec.family}/{spec.kind} p={p} s={nbytes}",
        "collective": spec.kind,
        "nranks": p,
        "s": nbytes,
        "machine": machine_meta(machine),
        "sim_time": res.time,
    })
    cs = lower(ir)
    cs.meta["algorithm"] = cell.algorithm
    cs.meta["dav"] = int(res.traffic.dav) if res.traffic is not None else 0
    cs.meta["times"] = [float(t) for t in res.times]
    cs.meta["traffic"] = [
        {name: int(getattr(tc, name)) for name in _TRAFFIC_FIELDS}
        for tc in (res.per_rank_traffic or ())
    ]
    cs.meta["guards"] = decision_guards(
        spec.kind, nbytes, p, machine,
        imax=resolve_imax(spec.imax, machine),
        policy=_cell_policy(spec.describe()))
    return cs


def replay_cell(cs: CompiledSchedule) -> dict:
    """Evaluate a compiled schedule into the bench cell result form
    (the JSON-safe dict ``exec_payload`` returns): completion time,
    DAV, algorithm and the ``repro-obs/1`` counter snapshot."""
    from repro.obs.counters import Counters

    times = cs.evaluate().rank_times
    counters = Counters.from_machine(times, cs.meta.get("traffic") or None)
    return {
        "time": max(times),
        "dav": int(cs.meta.get("dav", 0)),
        "algorithm": cs.meta.get("algorithm", ""),
        "counters": counters.snapshot(),
    }


def retime_durations(cs: CompiledSchedule, machine,
                     nbytes: int) -> "Tuple[object, float]":
    """Model-level per-op durations for replaying ``cs`` at a
    different size in its decision region.  Returns ``(dur, factor)``
    where ``factor = nbytes / captured_size`` scales every
    byte-proportional quantity."""
    import numpy as np

    captured = int(cs.meta.get("s", 0))
    if captured <= 0:
        raise ValueError("schedule carries no captured size; cannot retime")
    factor = nbytes / captured
    scaled = np.rint(cs.nbytes * factor).astype(np.int64)
    return cs.model_durations(machine, nbytes=scaled), factor


def retime_cell(cs: CompiledSchedule, machine, nbytes: int) -> dict:
    """Model-level re-timing of a captured schedule at a different
    message size in the same decision region.

    Per-op byte footprints are scaled by ``nbytes / captured_size``
    (the guards guarantee the op *structure* is size-invariant inside
    a region; only the bytes each op moves scale), durations come from
    :meth:`CompiledSchedule.model_durations`, and the byte-proportional
    aggregates (DAV, per-level traffic) scale by the same factor.
    This is a model estimate, not the engine-exact stateful charge —
    the result carries ``poly.retimed = True`` to say so.
    """
    from repro.obs.counters import Counters

    dur, factor = retime_durations(cs, machine, nbytes)
    times = [float(t) for t in cs.evaluate(dur=dur).rank_times]
    traffic = [
        {name: int(round(tc[name] * factor)) for name in _TRAFFIC_FIELDS}
        for tc in (cs.meta.get("traffic") or ())
    ]
    counters = Counters.from_machine(times, traffic or None)
    return {
        "time": max(times),
        "dav": int(round(int(cs.meta.get("dav", 0)) * factor)),
        "algorithm": cs.meta.get("algorithm", ""),
        "counters": counters.snapshot(),
    }


# ---------------------------------------------------------------------------
# Region certificates (bench --compiled --poly --certified)
# ---------------------------------------------------------------------------


def certificate_descriptor(payload: dict,
                           guards: Optional[dict] = None) -> dict:
    """Cache identity of a region *certificate*: the poly schedule
    descriptor under the ``repro-symcert/1`` schema tag, so the
    certificate rides the same content-addressed schedule cache as the
    schedules it certifies (distinct key, same invalidation
    discipline)."""
    from repro.analysis.static.symbolic import SYMCERT_SCHEMA

    desc = schedule_descriptor(payload, poly=True, guards=guards)
    desc["schema"] = SYMCERT_SCHEMA
    return desc


def _load_certificate(payload: dict, cs: CompiledSchedule) -> tuple:
    """Memo → disk cache → fresh certification of the cell's decision
    region.  Returns ``(certificate or None, error codes)``; failed
    certifications are cached *negatively* (with their ``SA-SYM-*``
    codes) so a broken region costs one certification attempt per
    source version, not one per swept size."""
    from repro.analysis.static.symbolic import (
        SYMCERT_SCHEMA,
        SymbolicError,
        SymbolicSchedule,
        certify_region,
    )
    from repro.machine.spec import PRESETS

    desc = certificate_descriptor(payload, payload.get("guards"))
    ckey = descriptor_key(desc)
    memo_key = (payload.get("results_dir") or "", ckey)
    hit = _CERT_MEMO.get(memo_key)
    if hit is not None:
        _CERT_MEMO.move_to_end(memo_key)
        return hit
    cache: Optional[CompiledScheduleCache] = None
    results_dir = payload.get("results_dir")
    if results_dir:
        cache = CompiledScheduleCache(Path(results_dir) / "compiled")
        doc = cache.get(ckey)
        if doc is not None:
            entry = None
            if doc.get("ok") is False:
                entry = (None, list(doc.get("errors", ())))
            else:
                try:
                    entry = (SymbolicSchedule.from_doc(doc), [])
                except (SymbolicError, ValueError, KeyError, TypeError):
                    entry = None  # corrupt/stale entry: re-certify
            if entry is not None:
                _memo_put_cert(memo_key, entry)
                return entry
    spec = RunnerSpec.from_dict(payload["runner"])
    base = int(cs.meta.get("s") or payload["nbytes"])
    sym, report = certify_region(spec, PRESETS[payload["machine"]],
                                 payload["p"], base)
    codes = sorted({f.code for f in report.errors})
    entry = (sym, codes)
    if cache is not None:
        doc = sym.to_doc() if sym is not None else {
            "schema": SYMCERT_SCHEMA, "ok": False, "errors": codes,
            "case": report.case,
        }
        cache.put(ckey, desc, doc)
    _memo_put_cert(memo_key, entry)
    return entry


def _memo_put_cert(memo_key: Tuple[str, str], entry: tuple) -> None:
    _CERT_MEMO[memo_key] = entry
    _CERT_MEMO.move_to_end(memo_key)
    while len(_CERT_MEMO) > _MEMO_CAP:
        _CERT_MEMO.popitem(last=False)


def certified_cell(cs: CompiledSchedule, machine, cert,
                   nbytes: int) -> tuple:
    """Engine-exact certified replay of ``cs`` at ``nbytes``.

    The certificate supplies the *exact* per-op byte footprints and the
    exact DAV at the replay size (affine evaluation, not
    ``s_new / s_captured`` scaling).  Durations are still the static
    timing model's (:func:`repro.sim.compiled.symbolic_durations`) —
    certification proves the schedule *shape* and byte accounting, not
    the stateful cache charge.  Cross-checks the certificate against
    the schedule before trusting it: the certificate evaluated at the
    captured size must reproduce the schedule's own footprints and
    engine DAV bitwise.  Raises ``ValueError`` on any mismatch — the
    caller falls back to plain retiming and reports the failure.

    Returns ``(result dict, per-op durations)``.
    """
    import numpy as np

    from repro.obs.counters import Counters

    s0 = int(cs.meta.get("s", 0))
    if s0 <= 0:
        raise ValueError("schedule carries no captured size")
    if not cert.covers(nbytes):
        raise ValueError(
            f"certificate does not cover s={nbytes} (requires s ≡ "
            f"{cert.residue} mod {cert.modulus})")
    if not cert.lo <= nbytes <= cert.hi:
        # affinity is only *proven* between the endpoint-checked
        # anchors — per-op shape can change past them within one guard
        # region (e.g. a copy crossing the hardware non-temporal
        # threshold), so extrapolating would be an estimate again
        raise ValueError(
            f"size {nbytes} is outside the certified span "
            f"[{cert.lo}, {cert.hi}]")
    if cert.compiled_nbytes(s0) != [int(x) for x in cs.nbytes]:
        raise ValueError(
            "certificate footprints at the captured size do not match "
            "the cached schedule")
    dav0 = cert.dav().at(s0)
    if int(cs.meta.get("dav", 0)) not in (0, dav0):
        raise ValueError(
            f"certificate DAV at the captured size ({dav0}) does not "
            f"match the engine capture ({cs.meta.get('dav')})")
    exact = np.asarray(cert.compiled_nbytes(nbytes), dtype=np.int64)
    from repro.sim.compiled import symbolic_durations

    dur = symbolic_durations(cs, machine, exact)
    times = [float(t) for t in cs.evaluate(dur=dur).rank_times]
    factor = nbytes / s0
    traffic = [
        {name: int(round(tc[name] * factor)) for name in _TRAFFIC_FIELDS}
        for tc in (cs.meta.get("traffic") or ())
    ]
    counters = Counters.from_machine(times, traffic or None)
    return {
        "time": max(times),
        "dav": cert.dav().at(nbytes),
        "algorithm": cs.meta.get("algorithm", ""),
        "counters": counters.snapshot(),
    }, dur


def _cert_summary(cert, nbytes: int) -> dict:
    """JSON block describing an applied certificate."""
    return {
        "span": [cert.lo, cert.hi],
        "in_span": bool(cert.lo <= nbytes <= cert.hi),
        "anchors": list(cert.anchors),
        "dav": cert.dav().describe(),
    }


# ---------------------------------------------------------------------------
# Worker entry
# ---------------------------------------------------------------------------


def _load_schedule(payload: dict, key: str) -> Tuple[CompiledSchedule, bool]:
    """Memo → disk cache → capture.  Returns ``(schedule, captured)``
    where ``captured`` says a fresh coroutine capture ran."""
    from repro.machine.spec import PRESETS

    memo_key = (payload.get("results_dir") or "", key)
    cs = _memo_get(memo_key)
    if cs is not None:
        return cs, False
    cache: Optional[CompiledScheduleCache] = None
    results_dir = payload.get("results_dir")
    if results_dir:
        cache = CompiledScheduleCache(Path(results_dir) / "compiled")
        doc = cache.get(key)
        if doc is not None:
            try:
                cs = schedule_from_doc(doc)
            except (ScheduleSchemaError, ValueError, KeyError, TypeError):
                cs = None  # corrupt/stale entry: recapture
            if cs is not None:
                _memo_put(memo_key, cs)
                return cs, False
    spec = RunnerSpec.from_dict(payload["runner"])
    cs = capture_schedule(spec, PRESETS[payload["machine"]],
                          payload["p"], payload["nbytes"])
    if cache is not None:
        cache.put(key, schedule_descriptor(
            payload, poly=bool(payload.get("poly")),
            guards=payload.get("guards")), schedule_to_doc(cs))
    _memo_put(memo_key, cs)
    return cs, True


def exec_compiled_cell(payload: dict) -> dict:
    """Worker entry for a ``compiled: True`` cell payload.

    Looks the lowered schedule up in the in-process memo, then the
    persistent cache (when the payload names a results directory),
    capturing and storing it on miss, then replays it.  The schedule
    cache stays enabled even under ``--no-cache`` — disabling the
    *result* cache is how a ≥10× faster full re-simulation is
    produced, which only works if schedules persist; the memo covers
    the cache-less case within one process.

    ``poly: True`` payloads key the schedule by decision region and
    re-time on size mismatch; ``certified: True`` (with poly) loads or
    builds the region's symbolic certificate
    (:func:`repro.analysis.static.symbolic.certify_region`) and, when
    it verifies against the cached schedule, swaps the scaled DAV and
    footprints for the certificate's *exact* affine evaluations —
    uncertifiable regions fall back to plain retiming with their
    ``SA-SYM-*`` codes in ``poly.cert_errors``, never silently.  A
    ``perturb`` block (``{"n", "model", "seed"}``) replays a seeded
    noise ensemble through the batched evaluator and attaches tail
    statistics.

    ``poly.region`` carries the full content-addressed schedule key —
    table rendering truncates for display, the JSON never does (a
    truncated key can collide across regions).

    Hierarchy-family cells dispatch to
    :func:`repro.bench.hierarchy.exec_hierarchy_compiled` — their
    leaves replay through this module's schedule cache individually,
    and the poly/certified/perturb flags do not apply to them.
    """
    from repro.machine.spec import PRESETS

    if payload["runner"].get("family") == "hierarchy":
        from repro.bench.hierarchy import exec_hierarchy_compiled

        return exec_hierarchy_compiled(payload)

    poly = bool(payload.get("poly"))
    certified = poly and bool(payload.get("certified"))
    guards = cell_guards(payload) if poly else None
    if poly:
        payload = dict(payload, guards=guards)
    key = descriptor_key(
        schedule_descriptor(payload, poly=poly, guards=guards))
    cs, captured = _load_schedule(payload, key)
    machine = PRESETS[payload["machine"]]
    retimed = poly and int(cs.meta.get("s", -1)) != payload["nbytes"]
    dur = None  # base durations the cell replays (None = captured)
    if retimed:
        dur, _ = retime_durations(cs, machine, payload["nbytes"])
        result = retime_cell(cs, machine, payload["nbytes"])
        result["poly"] = {"region": key, "retimed": True}
    else:
        result = replay_cell(cs)
        if poly:
            result["poly"] = {"region": key, "retimed": False}
    if certified:
        cert, codes = _load_certificate(payload, cs)
        if cert is None:
            result["poly"]["certified"] = False
            result["poly"]["cert_errors"] = codes
        else:
            try:
                cres, cdur = certified_cell(cs, machine, cert,
                                            payload["nbytes"])
            except ValueError as exc:
                result["poly"]["certified"] = False
                result["poly"]["cert_errors"] = [str(exc)]
            else:
                if retimed:
                    # swap the scaled estimate for the exact evaluation
                    cres["poly"] = dict(result["poly"])
                    result, dur = cres, cdur
                result["poly"]["certified"] = True
                result["poly"]["cert"] = _cert_summary(
                    cert, payload["nbytes"])
    pb = payload.get("perturb")
    if pb:
        import hashlib

        from repro.sim.perturb import run_ensemble

        # Derive the cell's ensemble seed from the schedule identity
        # *and* the replayed size so every cell in a sweep perturbs a
        # distinct but reproducible stream (two sizes sharing one
        # poly region must not share a stream); the stats are then
        # deterministic bench content.  The source version is left
        # out so the tails move only when the simulated cell does.
        identity = schedule_descriptor(payload, poly=poly, guards=guards)
        del identity["source"]
        cell_id = f"{descriptor_key(identity)}:{payload['nbytes']}".encode()
        seed = (int(pb.get("seed", 0))
                ^ int(hashlib.sha256(cell_id).hexdigest()[:16], 16)) \
            & 0x7FFFFFFFFFFFFFFF
        stats = run_ensemble(cs, int(pb["n"]), seed=seed,
                             model=pb.get("model", "mixed"), dur=dur)
        result["perturb"] = stats.to_dict()
    if captured:
        result["captured"] = True  # transient: stripped before caching
    return result


# ---------------------------------------------------------------------------
# Capture-cost microbenchmark
# ---------------------------------------------------------------------------

MICROBENCH_SCHEMA = "repro-compiled-bench/1"


def run_capture_microbench(results_dir: Optional[Path] = None, *,
                           batch: int = 256, p: int = 8,
                           nbytes: int = 1024 * 1024,
                           progress=None) -> dict:
    """Measure capture overhead and batched-replay throughput on one
    representative cell (socket-MA adaptive allreduce).

    Wall-clock numbers, so the document is **not** deterministic; it is
    written to ``BENCH_compiled.json`` — a sidecar like
    ``wall_clock.json``, exempt from the byte-stability rule — and
    mirrored into ``BENCH_summary.json``'s ``wall_clock`` block by the
    CLI.  ``bitwise_equal`` (batched replay ≡ a loop of single replays)
    and ``ops`` are deterministic and double as a smoke check.
    """
    import json
    from time import perf_counter

    import numpy as np

    from repro.bench.spec import reduce_spec
    from repro.library.communicator import Communicator
    from repro.machine.spec import NODE_A
    from repro.sim.perturb import sample_ensemble

    spec = reduce_spec("socket-ma", "allreduce", "adaptive")
    machine = NODE_A

    def _say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    _say(f"[microbench] coroutine run p={p} s={nbytes} ...")
    t0 = perf_counter()
    comm = Communicator(p, machine=machine, functional=False)
    spec.resolve()(comm, nbytes)
    coroutine_s = perf_counter() - t0

    _say("[microbench] capture + lower ...")
    t0 = perf_counter()
    cs = capture_schedule(spec, machine, p, nbytes)
    capture_s = perf_counter() - t0

    base = cs.evaluate()  # build the level plan outside the timed loop
    reps = 50
    t0 = perf_counter()
    for _ in range(reps):
        cs.evaluate()
    replay_s = (perf_counter() - t0) / reps

    _say(f"[microbench] batched replay B={batch} ...")
    ens = sample_ensemble(cs, batch, seed=2023, model="mixed")
    t0 = perf_counter()
    loop = [cs.evaluate(dur=ens.dur[i]) for i in range(batch)]
    loop_s = perf_counter() - t0
    t0 = perf_counter()
    batched = cs.evaluate_batch(dur=ens.dur)
    batch_s = perf_counter() - t0
    bitwise = all(
        np.array_equal(batched.completion[i], loop[i].completion)
        and list(batched.rank_times[i]) == list(loop[i].rank_times)
        for i in range(batch)
    )

    doc = {
        "schema": MICROBENCH_SCHEMA,
        "cell": {"runner": spec.describe(), "machine": machine.name,
                 "p": p, "nbytes": nbytes},
        "ops": len(cs),
        "time": base.time,
        "coroutine_s": coroutine_s,
        "capture_s": capture_s,
        "capture_overhead": capture_s / coroutine_s if coroutine_s else 0.0,
        "replay_s": replay_s,
        "replays_per_s": 1.0 / replay_s if replay_s else 0.0,
        "batch": {
            "n": batch,
            "wall_s": batch_s,
            "loop_wall_s": loop_s,
            "speedup_vs_loop": loop_s / batch_s if batch_s else 0.0,
        },
        "bitwise_equal": bool(bitwise),
    }
    if results_dir is not None:
        out = Path(results_dir) / "BENCH_compiled.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        _say(f"[microbench] wrote {out}")
    return doc
