"""Lint driver: extract every registered case and run the passes.

The lint driver judges what every execution of a schedule *could do*
from a single extraction run per case.  Each registered algorithm
variant is lifted to a schedule IR once (at the requested
``nranks``/``s`` on the requested machine) and the full pass pipeline
runs over the DAG — no further execution happens.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.runner import Case, cases, collectives
from repro.analysis.static.extract import (
    DEFAULT_NRANKS,
    DEFAULT_S,
    MachineArg,
    extract_case,
)
from repro.analysis.static.ir import ScheduleIR, ir_to_json
from repro.analysis.static.passes import Pass, run_passes
from repro.analysis.static.report import Report


def lint_case(case: Case, *, nranks: int = DEFAULT_NRANKS,
              s: int = DEFAULT_S, machine: MachineArg = "NodeA",
              seed: int = 12345,
              passes: Optional[Sequence[Pass]] = None) -> Report:
    """Extract one case and run the pass pipeline over its IR."""
    ir = extract_case(case, nranks=nranks, s=s, machine=machine,
                      seed=seed)
    return run_passes(ir, passes)


def lint_ir(ir: ScheduleIR,
            passes: Optional[Sequence[Pass]] = None) -> Report:
    """Run the pass pipeline over an already-extracted IR."""
    return run_passes(ir, passes)


def lint_collective(name: str, *, nranks: int = DEFAULT_NRANKS,
                    s: int = DEFAULT_S,
                    machine: MachineArg = "NodeA",
                    seed: int = 12345,
                    ir_sink: Optional[Dict[str, ScheduleIR]] = None,
                    ) -> List[Report]:
    """Lint every registered algorithm variant of one collective.

    ``ir_sink`` (label -> IR) collects the extracted IRs for callers
    that want to persist them (``--ir-out``)."""
    reports = []
    for case in cases(name):
        ir = extract_case(case, nranks=nranks, s=s, machine=machine,
                          seed=seed)
        if ir_sink is not None:
            ir_sink[case.label] = ir
        reports.append(run_passes(ir))
    return reports


def lint_all(*, nranks: int = DEFAULT_NRANKS, s: int = DEFAULT_S,
             machine: MachineArg = "NodeA", seed: int = 12345,
             ir_sink: Optional[Dict[str, ScheduleIR]] = None,
             ) -> List[Report]:
    """Lint every case of every registered collective."""
    reports = []
    for name in collectives():
        reports.extend(lint_collective(
            name, nranks=nranks, s=s, machine=machine, seed=seed,
            ir_sink=ir_sink,
        ))
    return reports


def render_reports(reports: Sequence[Report]) -> str:
    """Human-readable multi-case summary."""
    lines = []
    for report in reports:
        counts = report.counts()
        verdict = "ok" if report.ok else "FINDINGS"
        lines.append(
            f"{report.case:<40} {verdict:>8}  "
            f"errors={counts['error']} warnings={counts['warning']}"
        )
        for f in report.findings:
            if f.severity != "info":
                lines.append(f"    {f.describe()}")
    clean = sum(1 for r in reports if r.ok)
    lines.append(f"{clean}/{len(reports)} schedules lint clean")
    return "\n".join(lines)


def reports_to_payload(reports: Sequence[Report]) -> dict:
    """JSON document for ``python -m repro lint --json``."""
    counts = {"error": 0, "warning": 0, "info": 0}
    for r in reports:
        for sev, n in r.counts().items():
            counts[sev] += n
    return {
        "schema": "repro-lint/1",
        "cases": [r.to_dict() for r in reports],
        "counts": counts,
        "ok": all(r.ok for r in reports),
    }


def dump_irs(ir_sink: Dict[str, ScheduleIR], out_dir: str) -> List[str]:
    """Persist extracted IRs as ``<label>.ir.json`` under ``out_dir``."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for label, ir in sorted(ir_sink.items()):
        safe = label.replace("/", "-")
        path = os.path.join(out_dir, f"{safe}.ir.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ir_to_json(ir, indent=2))
            fh.write("\n")
        written.append(path)
    return written
