"""``python -m repro trace`` — export a collective run for Perfetto.

Runs one traced functional collective from the analysis matrix
(:func:`repro.analysis.runner.cases`), writes the Chrome trace-event
JSON (load it at https://ui.perfetto.dev), and prints the per-rank
counter summary plus the Theorem 3.1 DAV verdict of the static DAV
pass over the lifted run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, List

from repro.analysis.runner import Case, cases
from repro.machine.spec import PRESETS
from repro.obs.counters import Counters
from repro.obs.perfetto import write_chrome_trace
from repro.sim.engine import DeadlockError, Engine
from repro.sim.timeline import render_timeline

if TYPE_CHECKING:
    from repro.analysis.static.report import Finding


def resolve_case(name: str) -> Case:
    """Map a CLI collective name onto one analysis-matrix case.

    Accepted spellings, most to least specific:

    * ``"ma/reduce_scatter"`` — exact matrix label;
    * ``"ma_reduce_scatter"`` — underscore form of the same;
    * a collective name (``"ma"``) — its first kind;
    * a kind (``"allreduce"``) — preferring the ``ma`` family, which
      is the paper's headline algorithm.
    """
    matrix = cases("all")
    for case in matrix:
        if name in (case.label, f"{case.collective}_{case.kind}"):
            return case
    by_collective = [c for c in matrix if c.collective == name]
    if by_collective:
        return by_collective[0]
    by_kind = [c for c in matrix if c.kind == name]
    if by_kind:
        preferred = [c for c in by_kind if c.collective == "ma"]
        return (preferred or by_kind)[0]
    labels = ", ".join(sorted(c.label for c in matrix))
    raise ValueError(f"unknown collective {name!r}; choose from: {labels}")


def trace_case(case: Case, *, nranks: int = 8, s: int = 4096,
               machine=None) -> tuple:
    """Run ``case`` traced; return ``(engine, counters)``."""
    eng = Engine(nranks, machine=machine, functional=True, trace=True)
    try:
        case.run(eng, s)
    except DeadlockError as exc:
        raise RuntimeError(f"{case.label} deadlocked: {exc}") from exc
    counters = Counters.from_trace(
        eng.trace, nranks=nranks,
        per_rank_traffic=eng.memsys.per_rank if eng.memsys else None,
    )
    return eng, counters


def _counter_lines(counters: Counters) -> List[str]:
    lines = ["rank  copy B     nt B       reduce B   wait us  "
             "stall us  util"]
    for rc in counters:
        lines.append(
            f"{rc.rank:>4}  {rc.copy_bytes:<9}  {rc.nt_copy_bytes:<9}  "
            f"{rc.reduce_bytes:<9}  {rc.sync_wait_time * 1e6:7.1f}  "
            f"{rc.barrier_stall_time * 1e6:8.1f}  "
            f"{100 * rc.utilization:4.0f}%"
        )
    lines.append(
        f"total copy {int(counters.total('copy_bytes'))} B, "
        f"reduce {int(counters.total('reduce_bytes'))} B, "
        f"DAV {counters.trace_dav:.0f} B"
    )
    return lines


def add_trace_parser(sub) -> None:
    """Register the ``trace`` subcommand on a subparsers object."""
    p = sub.add_parser(
        "trace",
        help="export one traced run as Perfetto/Chrome trace JSON",
    )
    p.add_argument("collective",
                   help="matrix case ('ma/reduce_scatter', "
                        "'ma_reduce_scatter'), a collective ('ma') or "
                        "a kind ('allreduce')")
    p.add_argument("--out", required=True,
                   help="output trace JSON path")
    p.add_argument("-n", "--nranks", type=int, default=8)
    p.add_argument("-s", "--size", type=int, default=4096,
                   help="message size in bytes (default 4096)")
    p.add_argument("--machine", default="none",
                   choices=["none"] + sorted(PRESETS),
                   help="machine preset for timing (default none)")
    p.add_argument("--timeline", action="store_true",
                   help="also print the ASCII timeline")


def run_trace_command(args) -> int:
    """Execute ``python -m repro trace`` with parsed ``args``."""
    try:
        case = resolve_case(args.collective)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    machine = None if args.machine == "none" else PRESETS[args.machine]
    try:
        eng, counters = trace_case(case, nranks=args.nranks, s=args.size,
                                   machine=machine)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = write_chrome_trace(eng.trace, Path(args.out),
                              counters=counters.snapshot(),
                              label=case.label)
    print(f"{case.label}: p={args.nranks} s={args.size} -> {path}")
    print(f"  open in https://ui.perfetto.dev ({len(eng.trace.records)} "
          f"ops, {len(eng.trace.spans)} spans)")
    for line in _counter_lines(counters):
        print(f"  {line}")
    findings = _dav_check(case, eng, counters, args)
    for finding in findings:
        print(f"  {finding.describe()}")
    if args.timeline:
        print(render_timeline(eng.trace))
    return 1 if any(f.severity == "error" for f in findings) else 0


def _dav_check(case: Case, eng: Engine, counters: Counters,
               args) -> List[Finding]:
    """Lift the traced run and pin its DAV against the Theorem 3.1 row
    (and against ``counters``) with the static DAV pass."""
    from repro.analysis.static.extract import case_meta, ir_from_trace
    from repro.analysis.static.passes import StaticDavPass

    meta = case_meta(case, s=args.size, machine=eng.machine)
    meta.update(nranks=args.nranks, counters=counters.snapshot())
    ir = ir_from_trace(eng.trace, buffers=eng.buffers, meta=meta)
    return StaticDavPass().run(ir)
