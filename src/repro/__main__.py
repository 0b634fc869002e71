"""Command-line front end: ``python -m repro <command>``.

Commands
--------

``osu <collective>``
    OSU-micro-benchmark-style latency sweep on a simulated node
    (the artifact's Appendix C.3 workflow).

``compare <collective>``
    The artifact's S3 step: YHCCL priority=100 vs priority=0 (vendor
    fallback), side by side.

``report``
    Collect the benchmark suite's result tables — legacy ``*.txt``
    tables and ``repro-bench/1`` ``BENCH_*.json`` sweeps — into one
    markdown report (run ``python -m repro bench all`` first).

``trace <collective>``
    Export one traced run as Chrome trace-event / Perfetto JSON
    (per-rank tracks, phase spans, sync flow arrows, byte counters)
    plus the per-rank counter registry and its Theorem 3.1 DAV
    cross-check (see ``docs/observability.md``).

``info``
    Print the machine presets and registered algorithms.

``verify <collective>``
    Exhaustive schedule verification: DPOR model checking of every
    Mazurkiewicz-distinct interleaving at small rank counts, judging
    each terminal state's output, races, uninitialized reads and DAV.
    Failures are minimized to replayable schedule certificates
    (``--cert-out``); ``--replay`` re-runs a saved certificate.

``bench <name>|all``
    The benchmark suite: fans sweep cells out over worker processes
    (``--jobs N``), memoizes results in ``benchmarks/results/cache/``
    and serializes every sweep to ``BENCH_*.json`` plus a consolidated
    ``BENCH_summary.json`` (see ``docs/benchmarks.md``).
    ``--compiled`` replays cells through compiled schedules —
    vectorized, bitwise-identical re-simulation (see
    ``docs/compiled.md``).

``lint <collective>|all``
    Schedule analysis: extract each registered schedule into an
    op-dependency IR (one traced run) and run the pass pipeline —
    races, deadlock freedom and sync hygiene, Theorem 3.1 DAV,
    uninitialized reads, NUMA / false-sharing placement, critical-path
    bound (see ``docs/analysis.md`` and ``docs/static_analysis.md``).
    ``lint all`` sweeps the whole matrix; exits non-zero on
    error-severity findings; ``--json`` emits ``repro-lint/1``.
"""

from __future__ import annotations

import argparse
import sys

from repro.library.mpi import ALGORITHMS, implementations
from repro.library.osu import COLLECTIVES, DEFAULT_RANGE, OSUBenchmark, \
    compare_priorities
from repro.machine.spec import PRESETS


def _parse_range(text: str) -> tuple:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi or lo))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("collective", choices=COLLECTIVES)
    p.add_argument("-n", "--nranks", type=int, default=64)
    p.add_argument("--machine", default="NodeA", choices=sorted(PRESETS))
    p.add_argument("-m", "--msg-range", type=_parse_range,
                   default=DEFAULT_RANGE, metavar="LO:HI")
    p.add_argument("--vendor", default="Open MPI",
                   choices=implementations())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="YHCCL reproduction: simulated collective benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    osu = sub.add_parser("osu", help="OSU-style latency sweep")
    _add_common(osu)
    osu.add_argument("-c", "--validate", action="store_true",
                     help="functional validation (slower; real payloads)")
    osu.add_argument("--no-yhccl", action="store_true",
                     help="disable YHCCL (vendor fallback, priority=0)")

    cmp_p = sub.add_parser("compare", help="YHCCL on vs off, side by side")
    _add_common(cmp_p)

    sub.add_parser("info", help="presets and algorithm registry")

    ver = sub.add_parser(
        "verify", help="DPOR exhaustive interleaving verification"
    )
    ver.add_argument("collective", nargs="?", default="all",
                     help="matrix name (see 'info') or 'all'")
    ver.add_argument("-n", "--ranks", type=int, default=3,
                     help="rank count to explore at (default 3; keep <= 4)")
    ver.add_argument("-s", "--size", type=int, default=1024,
                     help="message size in bytes (default 1024)")
    ver.add_argument("--max-schedules", type=int, default=None,
                     help="exploration budget per case (default 1000)")
    ver.add_argument("--cert-out", default="",
                     help="write failing schedule certificates (JSON) "
                          "into this directory")
    ver.add_argument("--replay", default="",
                     help="replay a saved certificate file instead of "
                          "exploring")

    rep = sub.add_parser("report", help="assemble benchmark result report")
    rep.add_argument("--results", default="benchmarks/results")
    rep.add_argument("--out", default="")

    from repro.obs.cli import add_trace_parser

    add_trace_parser(sub)

    from repro.bench.cli import add_bench_parser

    add_bench_parser(sub)

    from repro.analysis.static.cli import add_lint_parser

    add_lint_parser(sub)

    args = parser.parse_args(argv)

    if args.command == "info":
        print("machine presets:")
        for name, m in PRESETS.items():
            print(f"  {name}: {m.sockets}x{m.socket.cores} cores, "
                  f"L3 {m.socket.l3.size >> 20}MB"
                  f"{'' if m.socket.l3.inclusive else ' (non-inclusive)'}")
        print("\nvendor models:", ", ".join(implementations()))
        print("algorithms:", ", ".join(sorted(ALGORITHMS)))
        return 0

    if args.command == "osu":
        bench = OSUBenchmark(
            args.collective, nranks=args.nranks, machine=args.machine,
            msg_range=args.msg_range, validate=args.validate,
            use_yhccl=not args.no_yhccl, vendor=args.vendor,
        )
        print(bench.render(bench.run()))
        return 0

    if args.command == "report":
        from pathlib import Path

        from repro.reporting import build_report, write_report

        results = Path(args.results)
        try:
            if args.out:
                path = write_report(results, Path(args.out))
                print(f"wrote {path}")
            else:
                print(build_report(results))
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "verify":
        from pathlib import Path

        from repro.analysis.mc import (
            DEFAULT_BUDGET,
            render_verification,
            replay_certificate,
            verify_collective,
        )
        from repro.sim.replay import certificate_from_json, certificate_to_json

        if args.replay:
            try:
                cert = certificate_from_json(Path(args.replay).read_text())
                outcome = replay_certificate(cert)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(cert.describe())
            print(outcome.describe())
            return 0 if outcome.reproduced else 1
        budget = (args.max_schedules if args.max_schedules is not None
                  else DEFAULT_BUDGET)
        try:
            results = verify_collective(
                args.collective, nranks=args.ranks, s=args.size,
                max_schedules=budget,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_verification(results))
        if args.cert_out:
            out = Path(args.cert_out)
            out.mkdir(parents=True, exist_ok=True)
            for res in results:
                if res.certificate is None:
                    continue
                path = out / f"{res.label.replace('/', '_')}.cert.json"
                path.write_text(certificate_to_json(res.certificate))
                print(f"wrote {path}")
        return 1 if any(not r.ok for r in results) else 0

    if args.command == "bench":
        from repro.bench.cli import run_bench_command

        return run_bench_command(args)

    if args.command == "trace":
        from repro.obs.cli import run_trace_command

        return run_trace_command(args)

    if args.command == "lint":
        from repro.analysis.static.cli import run_lint_command

        return run_lint_command(args)

    if args.command == "compare":
        print(compare_priorities(
            args.collective, nranks=args.nranks, machine=args.machine,
            msg_range=args.msg_range, vendor=args.vendor,
        ))
        return 0

    return 2  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":
    sys.exit(main())
