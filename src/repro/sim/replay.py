"""Replayable schedules and the JSON loader helper they share.

* :class:`ScheduleCertificate` with
  :func:`certificate_to_json` / :func:`certificate_from_json` — a
  replayable witness schedule produced by the model checker
  (:mod:`repro.analysis.mc`): the minimized forced-choice prefix that
  drives the engine into a failing state, plus what failed there.
* :func:`retuple` — the inverse of JSON's tuple-to-list conversion,
  shared by the IR and symbolic-schedule loaders.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional

#: schema tag for schedule certificates
CERT_SCHEMA = "repro-schedule/1"

#: every certificate schema version :func:`certificate_from_json` loads
SUPPORTED_CERT_SCHEMAS = (CERT_SCHEMA,)

#: fields earlier ``repro-schedule/1`` writers emitted that no longer
#: exist; :func:`certificate_from_json` accepts and drops them.
#: ``sanitize`` switched on a shadow-memory mode whose checks ``verify``
#: now runs on every schedule.
RETIRED_CERT_FIELDS = ("sanitize",)


def retuple(value):
    """Turn (nested) JSON lists back into tuples — the one loader-side
    inverse of JSON's tuple-to-list conversion, shared by the IR and
    symbolic-schedule documents."""
    if isinstance(value, list):
        return tuple(retuple(v) for v in value)
    return value


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
