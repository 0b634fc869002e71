"""Static schedule analysis: a pass pipeline over the op-dependency IR.

:mod:`repro.analysis.mc` (exhaustive schedule exploration) judges
*executions*.  This package judges the *schedule*: one traced run
lifts a collective into a static DAG
(:class:`~repro.analysis.static.ir.ScheduleIR`), and every verdict
after that — deadlock freedom, Theorem 3.1 byte accounting, buffer
races and uninitialized reads, NUMA placement, the critical-path time
bound — is computed from graph structure alone.  It is the only
analyzer: ``verify`` lifts each explored schedule's terminal trace
into the same IR and judges it with the whole buffer scan and the DAV
tally.

CLI: ``python -m repro lint <collective>|all [--json] [--ir-out DIR]``;
library: :meth:`repro.library.yhccl.YHCCL.lint`.
"""

from repro.analysis.static.extract import (
    extract_case,
    extract_collective,
    extract_from_certificate,
    extract_program,
    ir_from_trace,
)
from repro.analysis.static.ir import (
    IR_SCHEMA,
    SUPPORTED_IR_SCHEMAS,
    BufferInfo,
    Edge,
    Footprint,
    IRSchemaError,
    IRValidationError,
    OpNode,
    ScheduleIR,
    ir_from_json,
    ir_to_json,
)
from repro.analysis.static.lint import (
    lint_all,
    lint_case,
    lint_collective,
    lint_ir,
    render_reports,
    reports_to_payload,
)
from repro.analysis.static.passes import (
    DEFAULT_PASSES,
    BufferPass,
    CriticalPathPass,
    DeadlockPass,
    ExtractionPass,
    LocalityPass,
    Pass,
    StaticDavPass,
    run_passes,
)
from repro.analysis.static.report import (
    SEVERITIES,
    Finding,
    Report,
    findings_to_json,
)
from repro.analysis.static.symbolic import (
    SYMCERT_SCHEMA,
    Affine,
    SymbolicBoundsPass,
    SymbolicDavPass,
    SymbolicError,
    SymbolicExactnessPass,
    SymbolicSchedule,
    capture_region_ir,
    certify_matrix,
    certify_region,
    check_guard_partition,
    probe_partners,
    unify,
)

__all__ = [
    "IR_SCHEMA",
    "SUPPORTED_IR_SCHEMAS",
    "SYMCERT_SCHEMA",
    "SEVERITIES",
    "DEFAULT_PASSES",
    "Affine",
    "BufferInfo",
    "BufferPass",
    "CriticalPathPass",
    "DeadlockPass",
    "Edge",
    "ExtractionPass",
    "Finding",
    "Footprint",
    "IRSchemaError",
    "IRValidationError",
    "LocalityPass",
    "OpNode",
    "Pass",
    "Report",
    "ScheduleIR",
    "StaticDavPass",
    "SymbolicBoundsPass",
    "SymbolicDavPass",
    "SymbolicError",
    "SymbolicExactnessPass",
    "SymbolicSchedule",
    "capture_region_ir",
    "certify_matrix",
    "certify_region",
    "check_guard_partition",
    "extract_case",
    "extract_collective",
    "extract_from_certificate",
    "extract_program",
    "findings_to_json",
    "ir_from_json",
    "ir_from_trace",
    "ir_to_json",
    "lint_all",
    "lint_case",
    "lint_collective",
    "lint_ir",
    "probe_partners",
    "render_reports",
    "reports_to_payload",
    "run_passes",
    "unify",
]
