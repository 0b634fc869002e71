"""Figure 12: adaptive NT stores in the socket-aware MA all-reduce.

YHCCL (adaptive-copy) vs forced t-copy, forced nt-copy, and memmove,
on the socket-aware MA all-reduce.  Paper shape:

* t-copy wins (or ties) below the cache-overflow point;
* nt-copy wins above it;
* YHCCL tracks the winner on both sides — the switch engages at the
  Section 5.4 prediction (2176 KB NodeA, 1152 KB NodeB);
* memmove lags on large messages (it thresholds on slice size only and
  the MA slices are 256/128 KB — never NT).
"""

import pytest

from repro.bench import Benchmark, SweepSpec, reduce_spec
from repro.bench.executor import run_sweep_table
from repro.collectives.switching import platform_imax
from repro.machine.spec import KB, MB
from repro.models.nt_model import nt_switch_message_size

from harness import NODE_CONFIGS, SIZES_LARGE


def _sweep(node: str) -> SweepSpec:
    machine, p = NODE_CONFIGS[node]
    imax = platform_imax(machine)
    return SweepSpec(
        name=f"fig12_adaptive_allreduce_{node}",
        title=f"Figure 12{'a' if node == 'NodeA' else 'b'}: adaptive "
              f"all-reduce ({node}, p={p}, Imax={imax // KB}KB)",
        machine=node,
        p=p,
        sizes=tuple(SIZES_LARGE),
        impls=tuple(
            (label, reduce_spec("socket-ma", "allreduce", policy, imax=imax))
            for label, policy in (
                ("YHCCL", "adaptive"), ("t-copy", "t"),
                ("nt-copy", "nt"), ("Memmove", "memmove"),
            )
        ),
        baseline="YHCCL",
    )


BENCH = Benchmark(
    name="fig12_adaptive_allreduce",
    sweeps=tuple(_sweep(node) for node in NODE_CONFIGS),
)


def run_figure(node: str):
    return run_sweep_table(BENCH.sweep(f"fig12_adaptive_allreduce_{node}"))


@pytest.mark.parametrize("node", ["NodeA", "NodeB"])
def test_fig12(benchmark, node):
    machine, p = NODE_CONFIGS[node]
    imax = platform_imax(machine)
    switch = nt_switch_message_size("allreduce", machine, p, imax=imax)
    table = benchmark.pedantic(run_figure, args=(node,), rounds=1,
                               iterations=1)
    table.note(f"predicted NT switch point: {switch / KB:.0f} KB "
               f"(paper: {'2176' if node == 'NodeA' else '1152'} KB)")
    # Section 5.4's DAB discussion: DAV/time at 256 MB, memmove vs YHCCL
    if 256 * MB in SIZES_LARGE:
        dav = (5 * p + 2 * machine.sockets - 3) * 256 * MB
        dab_mm = dav / table.time("Memmove", 256 * MB) / 1e9
        dab_y = dav / table.time("YHCCL", 256 * MB) / 1e9
        paper_mm, paper_y = (314.7, 416.2) if node == "NodeA" else (281.8, 374.7)
        table.note(
            f"DAB at 256MB: memmove {dab_mm:.1f} GB/s vs YHCCL "
            f"{dab_y:.1f} GB/s (paper: {paper_mm} vs {paper_y})"
        )
    table.emit(f"fig12_adaptive_allreduce_{node}.txt")
    small = [s for s in SIZES_LARGE if s < switch]
    large = [s for s in SIZES_LARGE if s > 2 * switch]
    # below the switch YHCCL == t-copy exactly (same decisions made)
    for s in small:
        assert table.time("YHCCL", s) == pytest.approx(
            table.time("t-copy", s), rel=1e-6
        )
    # above the switch YHCCL beats t-copy/memmove: NT copy-outs avoid
    # the RFO while the copy-ins stay temporal; pure nt-copy trails by
    # losing the copy-in reuse (within a small tolerance near the switch)
    table.assert_wins("YHCCL", "t-copy", at_least=large)
    table.assert_wins("YHCCL", "Memmove", at_least=large)
    for s in large:
        assert table.time("YHCCL", s) <= table.time("nt-copy", s) * 1.02
