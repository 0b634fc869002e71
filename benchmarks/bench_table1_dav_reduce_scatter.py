"""Table 1: data access volume of reduce-scatter algorithms.

Prints the paper's closed forms next to the byte counts measured by the
event simulator for every implemented algorithm, at NodeA scale
(p=64, s=1 MB — DAV formulas are exact in s, so one size suffices;
the unit tests additionally verify exactness at other sizes).
"""

from repro.collectives.dpml import DPML_REDUCE_SCATTER
from repro.collectives.ma import MA_REDUCE_SCATTER
from repro.collectives.rabenseifner import RABENSEIFNER_REDUCE_SCATTER
from repro.collectives.ring import RING_REDUCE_SCATTER
from repro.collectives.socket_aware import SOCKET_MA_REDUCE_SCATTER
from repro.collectives.common import run_collective
from repro.library.communicator import Communicator
from repro.machine.spec import MB, NODE_A
from repro.models.dav import dav_reduce_scatter

from repro.bench import Benchmark

from harness import RESULTS_DIR

BENCH = Benchmark(name="table1_dav_reduce_scatter", custom="run_table")

S = 1 * MB
P = 64
ROWS = [
    ("Ring [45]", "ring", RING_REDUCE_SCATTER, "5*s*(p-1)"),
    ("Rabenseifner [50]", "rabenseifner", RABENSEIFNER_REDUCE_SCATTER,
     "5*s*p*(1/2+...+1/p)"),
    ("DPML [13]", "dpml", DPML_REDUCE_SCATTER, "s*(5p-1)"),
    ("YHCCL MA (proposed)", "ma", MA_REDUCE_SCATTER, "s*(3p-1)"),
    ("YHCCL socket-aware MA", "socket-ma", SOCKET_MA_REDUCE_SCATTER,
     "s*(3p+2m-3)"),
]


def run_table():
    out = []
    for label, key, alg, formula in ROWS:
        comm = Communicator(P, machine=NODE_A, functional=False)
        res = run_collective(alg, comm.engine, S, imax=256 * 1024)
        paper = dav_reduce_scatter(key, S, P, m=2, paper=True)
        impl = dav_reduce_scatter(key, S, P, m=2, paper=False)
        out.append((label, formula, paper, impl, res.dav))
    return out


def test_table1(benchmark):
    rows = benchmark.pedantic(run_table, rounds=1, iterations=1)
    lines = [
        f"Table 1: DAV of reduce-scatter algorithms (p={P}, s={S >> 20} MB)",
        "=" * 62,
        "",
        f"{'algorithm':<24}{'paper formula':<22}{'paper/s':>9}"
        f"{'impl/s':>9}{'simulated/s':>13}",
    ]
    for label, formula, paper, impl, sim in rows:
        lines.append(
            f"{label:<24}{formula:<22}{paper / S:>9.2f}{impl / S:>9.2f}"
            f"{sim / S:>13.2f}"
        )
    lines += [
        "",
        "note: 'impl' re-derives the paper's Section 3 accounting for "
        "what the implementation moves; simulated counts match it "
        "byte-exactly (documented O(s) gaps vs printed table rows in "
        "models/dav.py).",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "table1_dav_reduce_scatter.txt").write_text(text + "\n")
    print("\n" + text)
    for label, formula, paper, impl, sim in rows:
        assert sim == impl, label
        assert abs(paper - impl) <= 4 * S, label
