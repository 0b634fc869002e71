"""Ablation: the MA slice-size cap (Imax).

Section 5.1 tunes ``Imax`` per platform (256 KB NodeA / 128 KB NodeB) so
the ``p * I`` shared window stays cache-resident while per-slice
overheads stay amortized.  Sweeping Imax exposes both failure modes:
tiny slices drown in sync/op overhead, huge slices blow the window out
of cache (and at the extreme degenerate to a single non-pipelined
round).
"""

import pytest

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE
from repro.machine.spec import KB, MB, NODE_A
from repro.sim.engine import Engine

from repro.bench import Benchmark

from harness import QUICK, RESULTS_DIR, fmt_size

BENCH = Benchmark(name="ablation_slice", custom="run_ablation")

#: ``REPRO_QUICK`` starts the sweep at 16 KB: the 4 KB cell (~1024
#: pipeline rounds of 64 ranks) costs most of the full run, and 16 KB
#: still drowns in per-slice overhead.  S stays 256 MB either way: at
#: 64 MB, s/p = 1 MB caps the 4 MB cell to the 1 MB one.
IMAXES = ([16 * KB, 256 * KB, 1 * MB, 4 * MB] if QUICK
          else [4 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB])
S = 256 * MB


def run_ablation():
    out = {}
    for imax in IMAXES:
        eng = Engine(64, machine=NODE_A, functional=False)
        out[imax] = run_collective(
            MA_ALLREDUCE, eng, S, copy_policy="adaptive", imax=imax,
            iterations=2,
        ).time
    return out


def test_ablation_slice(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    best = min(rows.values())
    lines = [
        f"Ablation: MA slice cap Imax (NodeA, p=64, s={S >> 20}MB allreduce)",
        "=" * 64,
        "",
        f"{'Imax':>8}{'time (us)':>14}{'vs best':>10}",
    ]
    for imax in IMAXES:
        lines.append(
            f"{fmt_size(imax):>8}{rows[imax] * 1e6:>14.1f}"
            f"{rows[imax] / best:>10.2f}"
        )
    lines.append("")
    lines.append("paper tuning: Imax = 256KB on NodeA")
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_slice.txt").write_text(text + "\n")
    print("\n" + text)
    # the paper's choice must be near-optimal, and both extremes worse
    assert rows[256 * KB] <= best * 1.05
    assert rows[IMAXES[0]] > rows[256 * KB]
    assert rows[4 * MB] > rows[256 * KB] * 1.1
