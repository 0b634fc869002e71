"""Benchmark harness: shared plumbing for the per-figure/per-table
benchmark modules.

The heavy lifting — sweep tables, size grids, declarative sweep specs,
parallel execution and the persistent result cache — lives in
:mod:`repro.bench`; this module re-exports the pieces the benchmark
modules use and keeps the repo-local bits (the results directory and
the per-node rank counts).

Every benchmark regenerates one table or figure of the paper as a text
table, printed and saved under ``benchmarks/results/``; ``python -m
repro bench`` additionally serializes each sweep to ``BENCH_*.json``.

Environment:

* ``REPRO_QUICK=1`` — trim the size sweeps (for smoke runs); the first
  and last size of each sweep are always retained so quick runs still
  cross the working-set-vs-cache threshold.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.sizes import (  # noqa: F401  (re-exported surface)
    QUICK,
    SIZES_ALLGATHER,
    SIZES_LARGE,
    SIZES_WIDE,
    quick_subsample,
)
from repro.bench.table import fmt_size  # noqa: F401
from repro.library.communicator import Communicator
from repro.machine.spec import NODE_A, NODE_B

RESULTS_DIR = Path(__file__).parent / "results"


def fresh_comm(machine, p: int) -> Communicator:
    return Communicator(p, machine=machine, functional=False)


NODE_CONFIGS = {
    "NodeA": (NODE_A, 64),
    "NodeB": (NODE_B, 48),
}
