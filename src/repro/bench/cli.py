"""``python -m repro bench`` — the benchmark suite front end.

Examples::

    python -m repro bench all --jobs 8        # full suite, 8 workers
    python -m repro bench fig11_allreduce     # one benchmark, cached
    python -m repro bench all --no-cache      # force re-simulation
    python -m repro bench list                # what's available
    REPRO_QUICK=1 python -m repro bench all --jobs 2 --json   # CI smoke
"""

from __future__ import annotations

import sys
import time


def add_bench_parser(sub) -> None:
    bench = sub.add_parser(
        "bench",
        help="parallel benchmark suite with persistent result cache",
    )
    bench.add_argument(
        "name",
        help="benchmark name, comma-separated names, 'all', or 'list'",
    )
    bench.add_argument(
        "-j", "--jobs", type=int, default=0, metavar="N",
        help="worker processes (0 = one per CPU core, 1 = serial)",
    )
    bench.add_argument(
        "--no-cache", action="store_true",
        help="ignore and don't update the on-disk result cache",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="print the consolidated summary JSON to stdout instead of "
             "the text tables",
    )
    bench.add_argument(
        "--compiled", action="store_true",
        help="replay compiled schedules (vectorized evaluator) instead "
             "of executing the coroutine engine per cell; schedules "
             "are captured once and persist under results/compiled/",
    )
    bench.add_argument(
        "--poly", action="store_true",
        help="size-polymorphic compiled replay: each decision region is "
             "certified with the symbolic-size analyzer and one captured "
             "schedule serves every size its certificate covers; "
             "refused regions and out-of-span sizes replay exactly; "
             "requires --compiled",
    )
    bench.add_argument(
        "--perturb", type=int, default=0, metavar="N",
        help="replay an N-sample noise ensemble per cell through the "
             "batched evaluator and report p50/p99/p999 tail latency; "
             "requires --compiled",
    )
    bench.add_argument(
        "--perturb-model", default="mixed", metavar="MODEL",
        help="perturbation model: os-noise, straggler, freq-skew, "
             "arrival or mixed (default)",
    )
    bench.add_argument(
        "--perturb-seed", type=int, default=2023, metavar="SEED",
        help="base seed for perturbation ensembles (default 2023)",
    )


def run_bench_command(args) -> int:
    from repro.bench.discover import (
        benchmarks_dir,
        default_results_dir,
        load_benchmarks,
    )
    from repro.bench.executor import run_suite
    from repro.bench.jsonio import canonical_dumps

    if (args.poly or args.perturb) and not args.compiled:
        which = "--poly" if args.poly else "--perturb"
        print(f"error: {which} requires --compiled (it operates on "
              "captured schedules)", file=sys.stderr)
        return 2
    if args.perturb < 0:
        print("error: --perturb must be >= 0", file=sys.stderr)
        return 2

    bench_dir = benchmarks_dir()
    available = load_benchmarks(bench_dir)

    if args.name == "list":
        for name, bench in available.items():
            shape = (f"{len(bench.sweeps)} sweep(s)" if bench.sweeps
                     else f"custom ({bench.custom})")
            print(f"{name:<28} {shape}  [{bench.module}]")
        return 0

    if args.name == "all":
        selected = available
    else:
        selected = {}
        for name in args.name.split(","):
            name = name.strip()
            if name not in available:
                print(f"error: unknown benchmark {name!r}; "
                      f"try 'python -m repro bench list'", file=sys.stderr)
                return 2
            selected[name] = available[name]

    perturb = None
    if args.perturb:
        perturb = {"n": args.perturb, "model": args.perturb_model,
                   "seed": args.perturb_seed}
    progress = None if args.json else lambda msg: print(msg)
    t0 = time.time()
    summary, docs, cache = run_suite(
        selected,
        bench_dir=bench_dir,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        compiled=args.compiled,
        poly=args.poly,
        perturb=perturb,
        progress=progress,
    )
    elapsed = time.time() - t0
    if args.json:
        print(canonical_dumps(summary), end="")
    results_dir = default_results_dir()
    mode = "compiled" if args.compiled else "coroutine"
    if args.name == "all":
        block = _record_wall_clock(results_dir, mode, elapsed,
                                   summary.get("source_version", ""))
        if "speedup" in block:
            print(
                f"[bench] wall clock: coroutine {block['coroutine']}s, "
                f"compiled {block['compiled']}s — "
                f"{block['speedup']}x speedup",
                file=sys.stderr,
            )
    print(
        f"[bench] {len(selected)} benchmark(s) ({mode}) in {elapsed:.1f}s; "
        f"{cache.stats()}; JSON under {results_dir}/BENCH_*.json",
        file=sys.stderr,
    )
    return 0


def _record_wall_clock(results_dir, mode: str, elapsed: float,
                       source: str) -> dict:
    """Append the advisory ``wall_clock`` block to the summary on disk.

    Entries for both engine modes accumulate across runs of one source
    version (the before/after record for the compiled evaluator); a
    source change discards stale timings.  Because ``run_suite``
    rewrites ``BENCH_summary.json`` from scratch on every run, the
    block persists in a ``wall_clock.json`` sidecar and is merged back
    into the summary here.  This block is the documented exception to
    the summary's determinism guarantee — see :mod:`repro.bench.jsonio`.
    """
    import json

    from repro.bench.jsonio import canonical_dumps

    sidecar = results_dir / "wall_clock.json"
    try:
        block = json.loads(sidecar.read_text())
    except (OSError, ValueError):
        block = {}
    if not isinstance(block, dict) or block.get("source") != source:
        block = {"source": source}
    block[mode] = round(elapsed, 3)
    if block.get("coroutine") and block.get("compiled"):
        block["speedup"] = round(block["coroutine"] / block["compiled"], 2)
    sidecar.write_text(canonical_dumps(block))
    path = results_dir / "BENCH_summary.json"
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return block
    doc["wall_clock"] = block
    path.write_text(canonical_dumps(doc))
    return block
