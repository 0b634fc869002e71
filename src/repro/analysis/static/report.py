"""Findings, reports and their serialization.

The static analyzer's output unit is a :class:`Finding`: one verdict
of one pass, with a stable machine-readable ``code`` (``SA-DL-UNSAT``,
``SA-DAV-EXCESS``, ...), a severity, and the IR nodes it anchors to.
A :class:`Report` collects the findings of every pass over one IR.

Severities order the response, not just the message: ``error`` means
the schedule is wrong (the lint CLI — and the ``lint-schedules`` CI
job — exit non-zero), ``warning`` means the schedule works but leaves
something on the table (NUMA misplacement, false sharing), ``info``
carries the quantitative verdicts (DAV byte counts, the critical-path
bound) that make a clean report auditable rather than silent.

The serialization here is shared by ``python -m repro lint --json``
and ``python -m repro lint --certify-regions --json`` (schema
``repro-lint/1``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: severity levels, most severe first
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One verdict of one analysis pass.

    ``code`` is stable across releases (tests and CI match on it);
    ``nodes`` anchors the finding to IR node ids (empty for
    whole-schedule verdicts); ``data`` carries the finding's numbers
    (byte counts, ratios) as a JSON-safe dict.
    """

    code: str
    severity: str
    message: str
    pass_name: str = ""
    case: str = ""
    nodes: Tuple[int, ...] = ()
    data: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; choose from "
                f"{SEVERITIES}"
            )

    def describe(self) -> str:
        where = f" (nodes {list(self.nodes)})" if self.nodes else ""
        return f"[{self.severity}] {self.code}: {self.message}{where}"

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "pass": self.pass_name,
            "case": self.case,
            "nodes": list(self.nodes),
        }
        if self.data is not None:
            out["data"] = self.data
        return out


@dataclass
class Report:
    """Every pass's findings over one schedule IR."""

    case: str = ""
    findings: List[Finding] = field(default_factory=list)
    #: passes that ran, in order (a pass with no findings still counts)
    passes: List[str] = field(default_factory=list)
    #: IR shape summary (ScheduleIR.signature()) for context
    signature: Optional[dict] = None

    def extend(self, pass_name: str, findings: List[Finding]) -> None:
        self.passes.append(pass_name)
        self.findings.extend(findings)

    def by_severity(self, severity: str) -> List[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity("error")

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity("warning")

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings and infos allowed)."""
        return not self.errors

    def counts(self) -> dict:
        out = {s: 0 for s in SEVERITIES}
        for f in self.findings:
            out[f.severity] += 1
        return out

    def describe(self) -> str:
        lines = []
        shown = [f for f in self.findings if f.severity != "info"]
        infos = [f for f in self.findings if f.severity == "info"]
        for f in shown + infos:
            lines.append(f.describe())
        if not self.findings:
            lines.append("clean: no findings from "
                         f"{len(self.passes)} pass(es)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "passes": list(self.passes),
            "counts": self.counts(),
            "ok": self.ok,
            "signature": self.signature,
            "findings": [f.to_dict() for f in self.findings],
        }


def findings_to_json(payload: dict, *, indent: Optional[int] = None) -> str:
    """Canonical JSON for finding-bearing documents."""
    return json.dumps(payload, indent=indent, sort_keys=True)
