"""Table 3: data access volume of rooted reduce algorithms.

Paper closed forms vs simulator-measured byte counts (p=64).
"""

from repro.collectives.dpml import DPML_REDUCE
from repro.collectives.ma import MA_REDUCE
from repro.collectives.rg import RGReduce
from repro.collectives.socket_aware import SOCKET_MA_REDUCE
from repro.collectives.common import run_collective
from repro.library.communicator import Communicator
from repro.machine.spec import KB, MB, NODE_A
from repro.models.dav import dav_reduce

from repro.bench import Benchmark

from harness import RESULTS_DIR

BENCH = Benchmark(name="table3_dav_reduce", custom="run_table")

S = 1 * MB
P = 64
K = 2
ROWS = [
    ("DPML [13]", "dpml", DPML_REDUCE, "s*(5p+1)"),
    ("RG [34] (k=2)", "rg", RGReduce(branch=K, slice_size=128 * KB),
     "s*p*(5k/(k+1)+...)"),
    ("YHCCL MA", "ma", MA_REDUCE, "s*(3p+1)"),
    ("YHCCL socket-aware MA", "socket-ma", SOCKET_MA_REDUCE,
     "s*(3p+2m-1)"),
]


def run_table():
    out = []
    for label, key, alg, formula in ROWS:
        comm = Communicator(P, machine=NODE_A, functional=False)
        res = run_collective(alg, comm.engine, S, imax=256 * KB)
        paper = dav_reduce(key, S, P, m=2, k=K, paper=True)
        impl = dav_reduce(key, S, P, m=2, k=K, paper=False)
        out.append((label, formula, paper, impl, res.dav))
    return out


def test_table3(benchmark):
    rows = benchmark.pedantic(run_table, rounds=1, iterations=1)
    lines = [
        f"Table 3: DAV of reduce algorithms (p={P}, s={S >> 20} MB)",
        "=" * 56,
        "",
        f"{'algorithm':<24}{'paper formula':<22}{'paper/s':>9}"
        f"{'impl/s':>9}{'simulated/s':>13}",
    ]
    for label, formula, paper, impl, sim in rows:
        lines.append(
            f"{label:<24}{formula:<22}{paper / S:>9.2f}{impl / S:>9.2f}"
            f"{sim / S:>13.2f}"
        )
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "table3_dav_reduce.txt").write_text(text + "\n")
    print("\n" + text)
    for label, formula, paper, impl, sim in rows:
        assert sim == impl, label
        assert abs(paper - impl) <= 4 * S, label
    # YHCCL MA smallest when m << p and p >= 4
    ma = next(r for r in rows if r[0] == "YHCCL MA")[4]
    assert all(ma <= r[4] for r in rows)
