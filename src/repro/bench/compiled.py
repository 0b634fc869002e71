"""The compiled bench cell path: capture → lower → cache → replay.

A sweep cell normally executes the coroutine engine twice (warm-up +
measured iteration).  The compiled path instead:

1. runs the cell **once** with light tracing on (only on schedule-cache
   miss; no per-record byte ranges — the lowering consumes op records
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

**Size-polymorphic mode** (``poly=True`` payloads) shares one capture
per *decision region* (:func:`repro.models.nt_model.decision_guards` —
every size-dependent adaptive decision, evaluated as data) and is
exact or refuses, never estimated.  The region's symbolic certificate
proves its schedule shape over a span of sizes; a size inside that
span replays with the certificate's exact footprints and DAV.  Every
other size — a refused region, or one outside the certified span —
replays its own exact capture.  A guard flip keys a different entry,
which *is* the automatic recapture.

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


def cell_guards(cell: dict) -> dict:
    """Decision guards of one cell payload (see
    :func:`repro.models.nt_model.decision_guards`)."""
    from repro.bench.runners import resolve_imax
    from repro.machine.spec import PRESETS
    from repro.models.nt_model import decision_guards

    machine = PRESETS[cell["machine"]]
    spec = RunnerSpec.from_dict(cell["runner"])
    return decision_guards(spec.kind, cell["nbytes"], cell["p"], machine,
                           imax=resolve_imax(spec.imax, machine),
                           policy=spec.guard_policy)


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
# Capture / replay
# ---------------------------------------------------------------------------


def capture_schedule(spec: RunnerSpec, machine, p: int,
                     nbytes: int) -> CompiledSchedule:
    """Run one cell through the coroutine engine with tracing on and
    lower its measured iteration.

    The traced run's clocks and traffic are identical to the untraced
    bench cell's (tracing only observes), so the captured reference
    times, DAV and per-rank traffic are exactly what the coroutine
    path would report.  Light tracing (``trace_accesses=False``) skips
    each record's byte ranges — the lowering consumes op records and
    sync structure only — which removes most of the capture's tracing
    overhead.
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
        policy=spec.guard_policy)
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


# ---------------------------------------------------------------------------
# Region certificates (bench --compiled --poly)
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
        # an entry under any other schema (future or stale) is a miss,
        # whether positive or negative
        if doc is not None and doc.get("schema") == SYMCERT_SCHEMA:
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
    """Certified replay of ``cs`` at ``nbytes`` in its region.

    The certificate supplies the *exact* per-op byte footprints and the
    exact DAV at the replay size (affine evaluation).  The rest is
    model-derived: durations come from the static timing model
    (:func:`repro.sim.compiled.symbolic_durations`) — certification
    proves the schedule *shape* and byte accounting, not the stateful
    cache charge — and the traffic counters scale by
    ``nbytes / captured size``.  Cross-checks the certificate against
    the schedule before trusting it: the certificate evaluated at the
    captured size must reproduce the schedule's own footprints and
    engine DAV bitwise.  Raises ``ValueError`` on any mismatch or on a
    size outside the certified span — the caller then replays the
    cell's exact capture and reports the reason.

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
    are exact or refused, never estimated.  The region's symbolic
    certificate (:func:`repro.analysis.static.symbolic.certify_region`)
    loads or builds and is cross-checked against the cached schedule.
    A size inside its certified span replays with the certificate's
    *exact* affine footprints and DAV (``poly.certified``, and
    ``poly.retimed`` away from the anchor size).  Every other cell — a
    refused region or a size outside the span — replays an exact
    schedule: the anchor's own, or its size's plain ``--compiled``
    capture, with the ``SA-SYM-*`` codes or the refusal reason in
    ``poly.cert_errors``.  A ``perturb`` block (``{"n", "model",
    "seed"}``) replays a seeded noise ensemble through the batched
    evaluator and attaches tail statistics.

    ``poly.region`` carries the full content-addressed schedule key —
    table rendering truncates for display, the JSON never does (a
    truncated key can collide across regions).

    Hierarchy-family cells dispatch to
    :func:`repro.bench.hierarchy.exec_hierarchy_compiled` — their
    leaves replay through this module's schedule cache individually,
    and the poly/perturb flags do not apply to them.
    """
    from repro.machine.spec import PRESETS

    if payload["runner"].get("family") == "hierarchy":
        from repro.bench.hierarchy import exec_hierarchy_compiled

        return exec_hierarchy_compiled(payload)

    poly = bool(payload.get("poly"))
    guards = cell_guards(payload) if poly else None
    if poly:
        payload = dict(payload, guards=guards)
    key = descriptor_key(
        schedule_descriptor(payload, poly=poly, guards=guards))
    cs, captured = _load_schedule(payload, key)
    result: Optional[dict] = None
    dur = None  # base durations the cell replays (None = captured)
    if poly:
        nbytes = payload["nbytes"]
        anchor = int(cs.meta.get("s", -1)) == nbytes
        cert, codes = _load_certificate(payload, cs)
        if cert is not None:
            try:
                cres, cdur = certified_cell(
                    cs, PRESETS[payload["machine"]], cert, nbytes)
            except ValueError as exc:
                cert, codes = None, [str(exc)]
        if cert is not None:
            block = {"region": key, "retimed": not anchor,
                     "certified": True, "cert": _cert_summary(cert, nbytes)}
            if not anchor:
                result, dur = cres, cdur
        else:
            block = {"region": key, "retimed": False, "certified": False,
                     "cert_errors": codes}
            if not anchor:
                # refused: replay this size's own exact capture, the
                # one plain --compiled runs share
                exact = dict(payload, poly=False)
                cs, recaptured = _load_schedule(
                    exact, descriptor_key(schedule_descriptor(exact)))
                captured = captured or recaptured
    if result is None:
        result = replay_cell(cs)
    if poly:
        result["poly"] = block
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
