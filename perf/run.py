#!/usr/bin/env python3
"""Simulator-performance benchmark: the simulator's own wall clock on
four fixed workloads, with every simulated output checked against
``golden.json``.

Usage (from the repository root)::

    python3 perf/run.py                          # all four workloads
    python3 perf/run.py --workload sweep_small --seed 3 --seconds 20 \\
        --trace 0
    python3 perf/run.py --write-golden           # regenerate golden.json

Each workload runs in a fresh child process, inline (no pool, no
threads): set-up (imports, a warm-up unit and, for ``compiled_replay``,
every capture) is repeated and its median reported as ``setup_s``;
then timed passes over the unit list, each in a seed-shuffled order,
run until ``--seconds`` is spent; with ``--trace 1`` one further pass
runs with every layer boundary wrapped (see ``layers.py``).

Every metric is printed as ``workload metric value unit``; the last
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` whose metrics are the end-to-end ones with ``--trace 0``
and the per-layer ones with ``--trace 1``.  The exit status is 0 only
when every unit reproduced its golden digest.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"
GOLDEN = PERF / "golden.json"

WORKLOADS = ("sweep_small", "sweep_large", "compiled_capture",
             "compiled_replay")
#: (name, unit) of every end-to-end metric
END_TO_END = (
    ("wall_s", "s"),
    ("unit_p50_ms", "ms"),
    ("unit_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3
MIN_PASSES = 3
#: a child must finish well inside the 180 s a run may take
CHILD_TIMEOUT = 170


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (1..99), linearly interpolated; 0 when no
    unit produced a sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())["digests"]


def run_unit(wl, unit, golden, tally, tracer=None):
    """Run one unit; returns its wall time, or ``None`` if it raised or
    its output did not match the golden digest."""
    call = wl.prepare(unit)
    result, error = None, ""
    if tracer is not None:
        tracer.unit = unit.key
        tracer.begin("unit")
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception:
        error = traceback.format_exc(limit=-3)
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        wl.release()
    return dt if tally.check(unit, result, golden, error) else None


def measure(wl, golden, tally, *, seed: int, seconds: float,
            trace: bool, import_s: float) -> dict:
    """Set up, run the timed passes and (optionally) the traced pass;
    returns ``{metric: (value, unit)}`` plus ``units``/``passes``."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        run_unit(wl, wl.units[0], golden, tally)  # warm-up
        setups.append(time.perf_counter() - t0)

    rng = random.Random(seed)
    samples = {u.key: [] for u in wl.units}
    passes = []
    t_measure = time.perf_counter()
    while True:
        order = list(wl.units)
        rng.shuffle(order)
        gc.collect()
        t0 = time.perf_counter()
        for unit in order:
            dt = run_unit(wl, unit, golden, tally)
            if dt is not None:
                samples[unit.key].append(dt)
        passes.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_measure
        if (len(passes) >= MIN_PASSES
                and elapsed + statistics.mean(passes) > seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each unit at the host's best speed: its fastest pass
    best = [min(s) for s in samples.values() if s]
    metrics = {
        "wall_s": (sum(best), "s"),
        "unit_p50_ms": (1e3 * percentile(best, 50), "ms"),
        "unit_p90_ms": (1e3 * percentile(best, 90), "ms"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"units": len(best), "passes": len(passes)}
    if trace:
        tracer = layers.Tracer()
        order = list(wl.units)
        rng.shuffle(order)
        gc.collect()
        with layers.Installed(tracer):
            t0 = time.perf_counter()
            for unit in order:
                run_unit(wl, unit, golden, tally, tracer)
            traced_s = time.perf_counter() - t0
        metrics.update(layers.layer_metrics(tracer, traced_s / min(passes)))
        OUT.mkdir(parents=True, exist_ok=True)
        doc = dict(tracer.doc(), workload=wl.name, seed=seed)
        (OUT / f"trace_{wl.name}.json").write_text(json.dumps(doc) + "\n")
    return {"metrics": metrics, **info}


def child(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import units

    import_s = time.perf_counter() - t0
    work =OUT / f"work-{args.workload}-{os.getpid()}"
    wl = units.WORKLOADS[args.workload](work)
    tally = units.Tally()
    try:
        res = measure(wl, load_golden(), tally, seed=args.seed,
                      seconds=args.seconds, trace=bool(args.trace),
                      import_s=import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, reason in sorted(tally.reasons.items()):
        print(f"[perf] FAILED {key}: {reason}", file=sys.stderr)
    name = wl.name
    for metric, (value, unit) in res["metrics"].items():
        print(f"{name} {metric} {value!r} {unit}")
    print(f"{name} units {res['units']} count")
    print(f"{name} passes {res['passes']} count")
    print(f"{name} failed_frac {tally.failed / tally.attempted!r} ratio")
    wanted = [m for m, _ in (layers.PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": res["metrics"][m][0],
                        "unit": res["metrics"][m][1]} for m in wanted},
    }))
    return 0 if tally.failed == 0 else 1


def write_golden() -> int:
    """Run every unit of every workload once and record its digest;
    units of different workloads that share a key must agree."""
    sys.path.insert(0, str(SRC))
    import units

    digests: dict = {}
    clash = 0
    for name in WORKLOADS:
        wl = units.WORKLOADS[name](OUT / f"golden-{name}-{os.getpid()}")
        try:
            wl.setup()
            for unit in wl.units:
                result = wl.prepare(unit)()
                wl.release()
                d = units.digest(result)
                if digests.setdefault(unit.key, d) != d:
                    print(f"[perf] {name}: {unit.key} disagrees with an "
                          "earlier workload", file=sys.stderr)
                    clash += 1
        finally:
            shutil.rmtree(wl.work, ignore_errors=True)
        print(f"[perf] {name}: {len(wl.units)} units", file=sys.stderr)
    if clash:
        return 1
    GOLDEN.write_text(json.dumps(
        {"schema": "perf-golden/1", "digests": dict(sorted(digests.items()))},
        indent=1) + "\n")
    print(f"[perf] wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four in turn)")
    ap.add_argument("--seed", type=int, default=0,
                    help="shuffles the unit order of every pass")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="time the timed passes may take (at least "
                         f"{MIN_PASSES} passes run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="1: run the traced pass and report per-layer "
                         "metrics in the JSON line")
    ap.add_argument("--write-golden", action="store_true",
                    help="regenerate golden.json from the current source")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no simulator sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    if args.write_golden:
        return write_golden()

    docs, status = [], 0
    for name in [args.workload] if args.workload else WORKLOADS:
        cmd = [sys.executable, str(PERF / "run.py"), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"perf: {name} exceeded {CHILD_TIMEOUT} s", file=sys.stderr)
            return 3
        lines = proc.stdout.splitlines()
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perf: {name} exited {proc.returncode} without a result",
                  file=sys.stderr)
            return proc.returncode or 3
        print("\n".join(lines[:-1]), flush=True)
        docs.append((name, doc))
        status = status or proc.returncode
    if len(docs) == 1:
        final = docs[0][1]
    else:
        final = {
            "correct": all(d["correct"] for _, d in docs),
            "attempted": sum(d["attempted"] for _, d in docs),
            "failed": sum(d["failed"] for _, d in docs),
            "metrics": {f"{n}.{m}": v for n, d in docs
                        for m, v in d["metrics"].items()},
        }
    print(json.dumps(final))
    return status


if __name__ == "__main__":
    sys.exit(main())
