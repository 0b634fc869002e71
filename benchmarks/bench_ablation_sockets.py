"""Ablation: socket count (m) in the socket-aware design.

DAV grows as ``s(5p + 2m - 3)`` while the level-1 sync chains shrink to
``p/m - 1`` — the paper's "future architectures with more cores"
discussion (Section 3.3).  Sweeping the same 64 ranks as 2 sockets
(NodeA) vs 4 sockets (NodeD) shows the trade directly, against the
plain MA pipeline on each machine.
"""

import pytest

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE
from repro.collectives.socket_aware import SOCKET_MA_ALLREDUCE
from repro.machine.spec import KB, MB, NODE_A, NODE_D
from repro.sim.engine import Engine

from repro.bench import Benchmark

from harness import RESULTS_DIR, fmt_size

BENCH = Benchmark(name="ablation_sockets", custom="run_ablation")

SIZES = [64 * KB, 1 * MB, 16 * MB]
MACHINES = [("NodeA (m=2)", NODE_A), ("NodeD (m=4)", NODE_D)]


def run_ablation():
    out = {}
    for label, machine in MACHINES:
        out[label] = {}
        for s in SIZES:
            row = {}
            for name, alg in (("socket-MA", SOCKET_MA_ALLREDUCE),
                              ("MA", MA_ALLREDUCE)):
                eng = Engine(64, machine=machine, functional=False)
                res = run_collective(
                    alg, eng, s, copy_policy="adaptive", imax=256 * KB,
                    iterations=2,
                )
                row[name] = (res.time, res.dav)
            out[label][s] = row
    return out


def test_ablation_sockets(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    lines = [
        "Ablation: socket count in the socket-aware all-reduce (p=64)",
        "=" * 60,
        "",
        f"{'machine':<14}{'size':>8}{'socket-MA':>12}{'MA':>12}"
        f"{'sMA DAV/s':>11}{'MA DAV/s':>10}",
    ]
    for label, _ in MACHINES:
        for s in SIZES:
            sa_t, sa_d = rows[label][s]["socket-MA"]
            ma_t, ma_d = rows[label][s]["MA"]
            lines.append(
                f"{label:<14}{fmt_size(s):>8}{sa_t * 1e6:>10.1f}us"
                f"{ma_t * 1e6:>10.1f}us{sa_d / s:>11.1f}{ma_d / s:>10.1f}"
            )
    lines += [
        "",
        "DAV: socket-MA = s(5p+2m-3) -> 321s at m=2, 325s at m=4;",
        "MA = s(5p-1) = 319s on both — the m-dependent overhead is tiny,",
        "while level-1 chains shrink from 31 to 15 syncs per rank.",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_sockets.txt").write_text(text + "\n")
    print("\n" + text)
    for (label, machine) in MACHINES:
        m = machine.sockets
        for s in SIZES:
            assert rows[label][s]["socket-MA"][1] == s * (5 * 64 + 2 * m - 3)
            assert rows[label][s]["MA"][1] == s * (5 * 64 - 1)
