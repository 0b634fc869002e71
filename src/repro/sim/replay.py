"""Trace serialization and schedule comparison.

Traces are the ground truth of what a collective did; persisting them
enables postmortem analysis, cross-version regression diffs, and the
golden-schedule tests (the Figure 6 step table is pinned as a golden
trace).

* :func:`trace_to_json` / :func:`trace_from_json` — lossless round-trip
  of a :class:`~repro.sim.trace.Trace`.
* :func:`schedule_signature` — the order-insensitive *schedule* of a
  trace: per rank, the sequence of (kind, bytes, nt) operations.  Two
  runs of the same algorithm must have equal signatures even if timing
  constants change; a schedule regression (reordered, missing or
  resized operation) changes it.
* :func:`diff_schedules` — human-readable first divergence between two
  signatures.
* :class:`ScheduleCertificate` with
  :func:`certificate_to_json` / :func:`certificate_from_json` — a
  replayable witness schedule produced by the model checker
  (:mod:`repro.analysis.mc`): the minimized forced-choice prefix that
  drives the engine into a failing state, plus what failed there.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.sim.trace import OpRecord, SpanRecord, Trace

#: schema tag for schedule certificates
CERT_SCHEMA = "repro-schedule/1"

#: every certificate schema version :func:`certificate_from_json` loads
SUPPORTED_CERT_SCHEMAS = (CERT_SCHEMA,)

#: fields earlier ``repro-schedule/1`` writers emitted that no longer
#: exist; :func:`certificate_from_json` accepts and drops them.
#: ``sanitize`` switched on a shadow-memory mode whose checks ``verify``
#: now runs on every schedule.
RETIRED_CERT_FIELDS = ("sanitize",)

#: every trace payload version :func:`trace_from_json` loads
SUPPORTED_TRACE_VERSIONS = (1,)

_FIELDS = ("rank", "kind", "nbytes", "src", "dst", "nt", "policy",
           "t_start", "t_end", "tag", "count", "group")

#: fields whose values are (possibly nested) tuples — JSON turns them
#: into lists, so loading re-tuples them to keep round trips lossless
_TUPLE_FIELDS = ("tag", "group")


def retuple(value):
    """Turn (nested) JSON lists back into tuples — the one loader-side
    inverse of JSON's tuple-to-list conversion, shared by the trace,
    IR and symbolic-schedule documents."""
    if isinstance(value, list):
        return tuple(retuple(v) for v in value)
    return value


def trace_to_json(trace: Trace, *, indent: Optional[int] = None) -> str:
    """Serialize a trace to JSON (schema: list of record objects).

    Phase spans (``trace.spans``) ride along under a ``spans`` key when
    present, keeping the round trip lossless for span-labelled traces
    while older trace files (no key) still load.
    """
    payload: dict = {
        "version": 1,
        "records": [
            {f: getattr(r, f) for f in _FIELDS} for r in trace
        ],
    }
    if trace.spans:
        payload["spans"] = [asdict(s) for s in trace.spans]
    return json.dumps(payload, indent=indent)


def trace_from_json(text: str) -> Trace:
    """Parse a trace serialized by :func:`trace_to_json`."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(
            "trace payload must be a JSON object with a 'version' key"
        )
    if payload.get("version") not in SUPPORTED_TRACE_VERSIONS:
        raise ValueError(
            f"unsupported trace schema version "
            f"{payload.get('version')!r}; supported versions: "
            f"{', '.join(str(v) for v in SUPPORTED_TRACE_VERSIONS)}"
        )
    trace = Trace()
    for rec in payload["records"]:
        unknown = set(rec) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown trace fields {sorted(unknown)}")
        for f in _TUPLE_FIELDS:
            if f in rec:
                rec[f] = retuple(rec[f])
        trace.add(OpRecord(**rec))
    for span in payload.get("spans", ()):
        trace.add_span(SpanRecord(**span))
    return trace


def schedule_signature(trace: Trace) -> dict:
    """Per-rank operation sequence, stripped of timing.

    ``{rank: [(kind, nbytes, nt), ...]}`` — equal across runs whose
    *schedules* agree, regardless of machine constants.  ``compute``
    and ``touch`` records are excluded (their presence depends on app
    models, not the collective schedule), as are the synchronization
    records (``post``/``wait``/``barrier``) — the signature tracks data
    movement only.
    """
    sig: dict[int, list] = {}
    for r in trace:
        if r.kind in ("compute", "touch") or r.is_sync:
            continue
        sig.setdefault(r.rank, []).append((r.kind, r.nbytes, bool(r.nt)))
    return sig


@dataclass(frozen=True)
class ScheduleCertificate:
    """A replayable witness: the schedule under which a check failed.

    ``choices`` is a forced-choice prefix for
    :class:`repro.sim.scheduler.ControlledScheduler` — rank to advance
    at each step; past the prefix the replay continues deterministically
    (smallest enabled rank), so the prefix is usually the *minimized*
    part of the schedule and the certificate stays short.  ``failure``
    names the failed check (``divergence`` / ``race`` / ``uninit`` /
    ``deadlock`` / ``dav`` / ``error``) and ``detail`` carries its
    human-readable message.

    The engine parameters (``nranks``/``s``/``seed``) pin the exact
    program the schedule applies to; ``case`` is the analysis matrix
    label (e.g. ``"ma/reduce"``).
    """

    case: str
    collective: str
    kind: str
    nranks: int
    s: int
    choices: List[int] = field(default_factory=list)
    failure: str = ""
    detail: str = ""
    seed: int = 0

    def describe(self) -> str:
        return (f"[{self.failure}] {self.case} p={self.nranks} s={self.s}: "
                f"{self.detail}\n  witness schedule "
                f"({len(self.choices)} forced step(s)): {self.choices}")


def certificate_to_json(cert: ScheduleCertificate,
                        *, indent: Optional[int] = 2) -> str:
    """Serialize a schedule certificate (schema ``repro-schedule/1``)."""
    payload = {"schema": CERT_SCHEMA, **asdict(cert)}
    return json.dumps(payload, indent=indent)


def certificate_from_json(text: str) -> ScheduleCertificate:
    """Parse a certificate serialized by :func:`certificate_to_json`.

    Unknown fields raise, except the :data:`RETIRED_CERT_FIELDS`, which
    are dropped."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(
            "certificate payload must be a JSON object with a "
            "'schema' key"
        )
    schema = payload.pop("schema", None)
    if schema not in SUPPORTED_CERT_SCHEMAS:
        raise ValueError(
            f"unsupported certificate schema {schema!r}; supported "
            f"versions: {', '.join(SUPPORTED_CERT_SCHEMAS)}"
        )
    for retired in RETIRED_CERT_FIELDS:
        payload.pop(retired, None)
    known = {f for f in ScheduleCertificate.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown certificate fields {sorted(unknown)}")
    payload["choices"] = [int(c) for c in payload.get("choices", [])]
    return ScheduleCertificate(**payload)


def diff_schedules(a: dict, b: dict) -> Optional[str]:
    """First divergence between two signatures, or ``None`` if equal."""
    ranks = sorted(set(a) | set(b))
    for rank in ranks:
        sa, sb = a.get(rank, []), b.get(rank, [])
        if sa == sb:
            continue
        for i, (xa, xb) in enumerate(zip(sa, sb)):
            if xa != xb:
                return (f"rank {rank} op {i}: {xa} != {xb}")
        return (f"rank {rank}: lengths differ ({len(sa)} vs {len(sb)})")
    return None
