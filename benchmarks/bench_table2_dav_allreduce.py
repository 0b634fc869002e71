"""Table 2: data access volume of all-reduce algorithms.

Paper closed forms vs simulator-measured byte counts (p=64).
"""

from repro.collectives.dpml import DPML_ALLREDUCE
from repro.collectives.ma import MA_ALLREDUCE
from repro.collectives.rabenseifner import RABENSEIFNER_ALLREDUCE
from repro.collectives.rg import RGAllreduce
from repro.collectives.ring import RING_ALLREDUCE
from repro.collectives.socket_aware import SOCKET_MA_ALLREDUCE
from repro.collectives.common import run_collective
from repro.library.communicator import Communicator
from repro.machine.spec import KB, MB, NODE_A
from repro.models.dav import dav_allreduce

from repro.bench import Benchmark

from harness import RESULTS_DIR

BENCH = Benchmark(name="table2_dav_allreduce", custom="run_table")

S = 1 * MB
P = 64
K = 2
ROWS = [
    ("Ring [45]", "ring", RING_ALLREDUCE, "7*s*(p-1)", {}),
    ("Rabenseifner [50]", "rabenseifner", RABENSEIFNER_ALLREDUCE,
     "7*s*p*(1/2+...+1/p)", {}),
    ("DPML [13]", "dpml", DPML_ALLREDUCE, "s*(7p-1)", {}),
    ("RG [34] (k=2)", "rg", RGAllreduce(branch=K, slice_size=128 * KB),
     "s*p*(5k/(k+1)+...+2)", {}),
    ("YHCCL MA", "ma", MA_ALLREDUCE, "s*(5p-1)", {}),
    ("YHCCL socket-aware MA", "socket-ma", SOCKET_MA_ALLREDUCE,
     "s*(5p+2m-3)", {}),
]


def run_table():
    out = []
    for label, key, alg, formula, kw in ROWS:
        comm = Communicator(P, machine=NODE_A, functional=False)
        res = run_collective(alg, comm.engine, S, imax=256 * KB, **kw)
        paper = dav_allreduce(key, S, P, m=2, k=K, paper=True)
        impl = dav_allreduce(key, S, P, m=2, k=K, paper=False)
        out.append((label, formula, paper, impl, res.dav))
    return out


def test_table2(benchmark):
    rows = benchmark.pedantic(run_table, rounds=1, iterations=1)
    lines = [
        f"Table 2: DAV of all-reduce algorithms (p={P}, s={S >> 20} MB)",
        "=" * 60,
        "",
        f"{'algorithm':<24}{'paper formula':<22}{'paper/s':>9}"
        f"{'impl/s':>9}{'simulated/s':>13}",
    ]
    for label, formula, paper, impl, sim in rows:
        lines.append(
            f"{label:<24}{formula:<22}{paper / S:>9.2f}{impl / S:>9.2f}"
            f"{sim / S:>13.2f}"
        )
    lines.append("")
    lines.append("note: YHCCL MA has the smallest DAV for p >= 4 (Sec. 3.4)")
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "table2_dav_allreduce.txt").write_text(text + "\n")
    print("\n" + text)
    for label, formula, paper, impl, sim in rows:
        assert sim == impl, label
        assert abs(paper - impl) <= 4 * S, label
    ma = next(r for r in rows if r[0] == "YHCCL MA")
    for label, formula, paper, impl, sim in rows:
        if "YHCCL" not in label:
            assert ma[4] < sim, f"MA must have smallest DAV (vs {label})"
