#!/usr/bin/env python
"""Visualize collective schedules as per-rank ASCII timelines.

Traces three algorithms on an 8-rank two-socket node and renders their
Gantt charts, making the structural differences visible at a glance:

* **MA reduce-scatter** — the diagonal copy wavefront and the dense
  reduce chain (one copy per slice group: Theorem 3.1's minimum);
* **DPML** — the copy-everything phase, the barrier wall, the parallel
  partition reduction;
* **pipelined broadcast** — the root's copy-ins overlapping every other
  rank's copy-outs.

Run:  python examples/schedule_timeline.py
"""

from repro.collectives.bcast import PIPELINED_BCAST
from repro.collectives.common import run_collective
from repro.collectives.dpml import DPML_REDUCE_SCATTER
from repro.collectives.ma import MA_REDUCE_SCATTER
from repro.machine.spec import NODE_A
from repro.sim import render_timeline, critical_rank
from repro.sim.engine import Engine
from repro.sim.timeline import phase_summary

KB = 1024


def show(title, run):
    eng = Engine(8, machine=NODE_A, functional=False, trace=True)
    run(eng)
    print(f"== {title}")
    print(render_timeline(eng.trace, width=68))
    print(f"critical rank: {critical_rank(eng.trace)}")
    quartiles = phase_summary(eng.trace, buckets=4)
    moved = ["%dKB" % ((c + r) >> 10) for _, _, c, r in quartiles]
    print(f"bytes touched per time quartile: {', '.join(moved)}\n")


def main() -> None:
    s = 64 * KB
    show(
        "MA reduce-scatter (one copy per group, then the reduce chain)",
        lambda eng: run_collective(MA_REDUCE_SCATTER, eng, s, imax=2 * KB),
    )
    show(
        "DPML reduce-scatter (copy-all phase, barrier, parallel reduce)",
        lambda eng: run_collective(DPML_REDUCE_SCATTER, eng, s),
    )
    show(
        "pipelined broadcast (root copy-in vs reader copy-out overlap)",
        lambda eng: run_collective(PIPELINED_BCAST, eng, s, imax=4 * KB),
    )


if __name__ == "__main__":
    main()
