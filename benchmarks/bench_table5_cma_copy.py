"""Table 5: CMA (DMA) copy vs adaptive-copy, 32 MB per message.

Two patterns on NodeA (64 ranks):
* one-to-all — every rank copies from rank 0's buffer (CMA serializes
  on the source page locks);
* ring — rank i copies from rank (i+1) % p (no contention).

Paper values (seconds): one-to-all 0.061 vs 0.014 (4.35x); ring
0.027 vs 0.017 (1.58x) — CMA loses because ``process_vm_readv`` copies
page-by-page with temporal stores only.
"""

from repro.copyengine.primitives import copy
from repro.machine.spec import MB, NODE_A, available_cache_capacity
from repro.sim.engine import Engine

from repro.bench import Benchmark

from harness import RESULTS_DIR

BENCH = Benchmark(name="table5_cma_copy", custom="run_table")

S = 32 * MB
P = 64
PAPER = {
    ("one-to-all", "DMA copy"): 0.061,
    ("one-to-all", "adaptive-copy"): 0.014,
    ("ring", "DMA copy"): 0.027,
    ("ring", "adaptive-copy"): 0.017,
}


def _run(pattern: str, method: str) -> float:
    eng = Engine(P, machine=NODE_A, functional=False)
    # sending buffers in shared memory (MPI_Win_allocate_shared),
    # receiving buffers private — the paper's setup
    srcs = [eng.alloc_shared(S, name=f"winsrc[{r}]") for r in range(P)]
    dsts = [eng.alloc(r, S, name=f"dst[{r}]") for r in range(P)]
    capacity = available_cache_capacity(NODE_A, P)

    def program(ctx):
        r = ctx.rank
        src = srcs[0] if pattern == "one-to-all" else srcs[(r + 1) % P]
        chunk = 2 * MB
        for off in range(0, S, chunk):
            dst = dsts[r].view(off, chunk)
            sv = src.view(off, chunk)
            if method == "DMA copy":
                copy(ctx, dst, sv, "kernel",
                     contention=P - 1 if pattern == "one-to-all" else 2)
            else:
                copy(ctx, dst, sv, "adaptive", t_flag=True,
                     work_set=2 * S * P, cache_capacity=capacity)

    res = eng.run(program)
    return res.time


def run_table():
    return {
        (pattern, method): _run(pattern, method)
        for pattern in ("one-to-all", "ring")
        for method in ("DMA copy", "adaptive-copy")
    }


def test_table5(benchmark):
    rows = benchmark.pedantic(run_table, rounds=1, iterations=1)
    lines = [
        "Table 5: CMA copy vs adaptive-copy, 32 MB (seconds)",
        "===================================================",
        "",
        f"{'pattern':<14}{'DMA copy (sim/paper)':>24}"
        f"{'adaptive (sim/paper)':>24}{'speedup (sim/paper)':>22}",
    ]
    for pattern in ("one-to-all", "ring"):
        dma = rows[(pattern, "DMA copy")]
        ada = rows[(pattern, "adaptive-copy")]
        pd = PAPER[(pattern, "DMA copy")]
        pa = PAPER[(pattern, "adaptive-copy")]
        lines.append(
            f"{pattern:<14}{dma:>12.3f} /{pd:>9.3f}"
            f"{ada:>13.3f} /{pa:>9.3f}"
            f"{dma / ada:>11.2f} /{pd / pa:>8.2f}"
        )
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "table5_cma_copy.txt").write_text(text + "\n")
    print("\n" + text)
    # shape: adaptive wins both patterns; one-to-all contention makes
    # the DMA gap much larger there
    one = rows[("one-to-all", "DMA copy")] / rows[("one-to-all", "adaptive-copy")]
    ring = rows[("ring", "DMA copy")] / rows[("ring", "adaptive-copy")]
    assert one > 2.0
    assert 1.15 < ring < 3.0
    assert one > ring
