"""Ablation: process-core binding (the artifact's step S8).

The artifact instructs "check lscpu, and make sure the process-core
binding is in the right order" — compact binding keeps MA's neighbour
chain intra-socket.  This bench quantifies the damage of scatter
(round-robin) binding: the plain MA chain crosses the socket boundary
at every step; the socket-aware design regroups by *actual* socket and
is largely immune.
"""

import pytest

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE
from repro.collectives.socket_aware import SOCKET_MA_ALLREDUCE
from repro.machine.spec import KB, MB, NODE_A
from repro.sim.engine import Engine

from repro.bench import Benchmark

from harness import RESULTS_DIR, fmt_size

BENCH = Benchmark(name="ablation_binding", custom="run_ablation")

SIZES = [64 * KB, 1 * MB, 16 * MB]
BINDINGS = ["compact", "scatter"]


def run_ablation():
    out = {}
    for binding in BINDINGS:
        machine = NODE_A.with_(binding=binding)
        out[binding] = {}
        for s in SIZES:
            row = {}
            for name, alg in (("MA", MA_ALLREDUCE),
                              ("socket-MA", SOCKET_MA_ALLREDUCE)):
                eng = Engine(64, machine=machine, functional=False)
                row[name] = run_collective(
                    alg, eng, s, copy_policy="adaptive", imax=256 * KB,
                    iterations=2,
                ).time
            out[binding][s] = row
    return out


def test_ablation_binding(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    lines = [
        "Ablation: process-core binding (NodeA, p=64 allreduce)",
        "=" * 54,
        "",
        f"{'size':>8}{'MA compact':>13}{'MA scatter':>13}"
        f"{'sMA compact':>13}{'sMA scatter':>13}",
    ]
    for s in SIZES:
        lines.append(
            f"{fmt_size(s):>8}"
            f"{rows['compact'][s]['MA'] * 1e6:>11.1f}us"
            f"{rows['scatter'][s]['MA'] * 1e6:>11.1f}us"
            f"{rows['compact'][s]['socket-MA'] * 1e6:>11.1f}us"
            f"{rows['scatter'][s]['socket-MA'] * 1e6:>11.1f}us"
        )
    lines += [
        "",
        "scatter binding turns MA's neighbour flags into cross-socket",
        "synchronizations; the socket-aware design regroups by the real",
        "socket map and stays close to its compact-binding time",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_binding.txt").write_text(text + "\n")
    print("\n" + text)
    # MA must degrade under scatter at the sync-bound size ...
    small = SIZES[0]
    assert rows["scatter"][small]["MA"] > 1.15 * rows["compact"][small]["MA"]
    # ... while socket-aware stays within a modest factor
    assert (rows["scatter"][small]["socket-MA"]
            < 1.5 * rows["compact"][small]["socket-MA"])
