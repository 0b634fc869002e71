#!/usr/bin/env python3
"""Paired parent-vs-change comparison of the benchmark.

Usage::

    python3 perf/compare.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        [--pairs 10] [--workload W ...] [--seconds 20]

Runs ``perf/run.py --trace 0`` in both checkouts, alternating which
side runs first, with pair ``i`` using seed ``i`` on both sides, and
prints every run.  Then, for each end-to-end metric of each workload
(direction and bound from ``BENCHMARK.json``):

* ``gain`` — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile spread;
* ``unresolved`` — either side's interquartile spread, as a share of
  its median, exceeds the bound, and not every change run beats every
  parent run;
* ``regression`` — the change's median is worse than the parent's by
  more than the bound;
* ``ok`` — otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
MIN_PAIRS = 10


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better: str, bound: float) -> dict:
    """Judge one metric from per-pair values (``parent[i]`` and
    ``change[i]`` ran as pair ``i``)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long runs of at least 2 pairs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    p_iqr, c_iqr = _spread(parent), _spread(change)
    worse = sign * (cm - pm) / pm
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if (wins >= 0.9 * len(parent) and sign * (cm - pm) < 0
            and abs(cm - pm) > p_iqr):
        label = "gain"
    elif max(p_iqr / pm, c_iqr / cm) > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    else:
        label = "ok"
    return {"verdict": label, "wins": wins, "pairs": len(parent),
            "parent_median": pm, "change_median": cm,
            "parent_iqr": p_iqr, "change_iqr": c_iqr, "worse_by": worse}


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} printed no result")
    doc = json.loads(lines[-1])
    if not doc["correct"]:
        raise RuntimeError(f"{checkout}: {workload} failed its golden check")
    return {m: v["value"] for m, v in doc["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"the paired rule needs at least {MIN_PAIRS} pairs")
    bench = json.loads((PERF.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    status = 0
    for wl in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in sides:
                metrics = _run(getattr(args, side), wl, i, seconds)
                runs[side].append(metrics)
                print(f"run {wl} pair={i} {side} " + " ".join(
                    f"{m}={v!r}" for m, v in sorted(metrics.items())),
                    flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            v = verdict([r[name] for r in runs["parent"]],
                        [r[name] for r in runs["change"]],
                        metric["better"], metric["bound"])
            status |= v["verdict"] == "regression"
            print(f"{wl:17s} {name:12s} {v['verdict']:10s} "
                  f"parent {v['parent_median']:.6g} (IQR {v['parent_iqr']:.3g}) "
                  f"change {v['change_median']:.6g} (IQR {v['change_iqr']:.3g}) "
                  f"worse_by {v['worse_by']:+.2%} (bound {metric['bound']:.0%}) "
                  f"wins {v['wins']}/{v['pairs']}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
