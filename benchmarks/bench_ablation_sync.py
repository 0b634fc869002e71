"""Ablation: synchronization-cost sensitivity — why YHCCL switches to
the two-level parallel reduction on small messages (Section 5.1).

The MA pipeline pays a chain of ``p - 1`` flag synchronizations per
round; the DPML-style two-level reduction pays a constant few barriers.
Sweeping the flag latency shows the switching rationale directly: MA
wins when flags are cheap, the two-level design overtakes as they get
expensive — the crossover is the reason the library routes small
messages (sync-bound) to DPML2 and large ones (bandwidth-bound) to MA.
"""

import pytest

from repro.collectives.common import run_collective
from repro.collectives.dpml import DPML2_ALLREDUCE
from repro.collectives.ma import MA_ALLREDUCE
from repro.machine.spec import KB, NODE_A, US
from repro.sim.engine import Engine

from repro.bench import Benchmark

from harness import RESULTS_DIR

BENCH = Benchmark(name="ablation_sync", custom="run_ablation")

LATENCIES_US = [0.2, 0.6, 1.5, 4.0]
S = 64 * KB  # sync-bound message size


def run_ablation():
    out = {}
    for lat in LATENCIES_US:
        machine = NODE_A.with_(
            sync_latency_intra=lat * US, sync_latency_inter=2.5 * lat * US
        )
        row = {}
        for name, alg in (("MA", MA_ALLREDUCE),
                          ("two-level DPML", DPML2_ALLREDUCE)):
            eng = Engine(64, machine=machine, functional=False)
            row[name] = run_collective(
                alg, eng, S, copy_policy="adaptive", imax=256 * KB,
                iterations=2,
            ).time
        out[lat] = row
    return out


def test_ablation_sync(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    lines = [
        "Ablation: sync-cost sensitivity (NodeA, p=64, s=64KB allreduce)",
        "=" * 63,
        "",
        f"{'flag latency':>14}{'MA (us)':>12}{'2-level DPML (us)':>19}"
        f"{'MA/DPML2':>10}",
    ]
    for lat in LATENCIES_US:
        ma = rows[lat]["MA"] * 1e6
        d2 = rows[lat]["two-level DPML"] * 1e6
        lines.append(f"{lat:>12.1f}us{ma:>12.1f}{d2:>19.1f}{ma / d2:>10.2f}")
    lines += [
        "",
        "the MA chain degrades faster than the barrier-based design as",
        "flags get costlier — the Section 5.1 small-message switch",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_sync.txt").write_text(text + "\n")
    print("\n" + text)
    ratios = [
        rows[lat]["MA"] / rows[lat]["two-level DPML"] for lat in LATENCIES_US
    ]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))  # monotone
    assert ratios[0] < 1.0 < ratios[-1]  # a genuine crossover
