#!/usr/bin/env python
"""Explore the adaptive non-temporal store heuristic (Section 4).

Three views of the same mechanism:

1. the sliced STREAM copy (Table 4): why nt-copy beats t-copy by ~1.5x
   on streaming data, in memory-traffic terms;
2. the Algorithm 1 decision surface: for each collective, the message
   size where ``W > C`` flips the copy-outs to NT stores — including
   the paper's published 2176 KB (NodeA) / 1152 KB (NodeB) all-reduce
   switch points;
3. the payoff: socket-aware MA all-reduce under each fixed policy vs
   the adaptive copy, bracketing the switch.

Run:  python examples/adaptive_copy_explorer.py
"""

from repro import Communicator, NODE_A, NODE_B
from repro.collectives.common import run_collective
from repro.collectives.socket_aware import SOCKET_MA_ALLREDUCE
from repro.copyengine.stream import SlicedCopyBenchmark
from repro.models.nt_model import nt_switch_message_size

KB, MB, GB = 1024, 1 << 20, 1 << 30


def stream_view() -> None:
    print("1. Sliced STREAM copy on NodeA (16 GB array, 64 ranks)")
    bench = SlicedCopyBenchmark(NODE_A, nranks=64, total_bytes=16 * GB)
    print(f"   {'slice':>8}{'memmove':>12}{'t-copy':>12}{'nt-copy':>12}")
    for s in (512 * KB, 1 * MB, 2 * MB):
        row = [
            bench.run_policy(kind, s).bandwidth / 1e9
            for kind in ("memmove", "t", "nt")
        ]
        print(f"   {s >> 10:>6}KB" + "".join(f"{b:>10.0f}GB" for b in row))
    print("   -> nt-copy moves 2 bytes per byte copied; t-copy moves 3"
          " (RFO + write-back)\n")


def switch_points() -> None:
    print("2. Algorithm 1 switch points (message size where W > C)")
    for machine, p, imax in ((NODE_A, 64, 256 * KB), (NODE_B, 48, 128 * KB)):
        print(f"   {machine.name} (p={p}, Imax={imax >> 10}KB):")
        for kind in ("allreduce", "reduce_scatter", "bcast", "allgather"):
            s = nt_switch_message_size(kind, machine, p, imax=imax)
            print(f"     {kind:<15} NT from {s / KB:>10.0f} KB")
    print("   (paper, all-reduce: 2176 KB on NodeA, 1152 KB on NodeB)\n")


def payoff() -> None:
    print("3. Socket-aware MA all-reduce on NodeA around the switch")
    print(f"   {'size':>8}{'t-copy':>12}{'nt-copy':>12}{'adaptive':>12}")
    for s in (1 * MB, 2 * MB, 4 * MB, 16 * MB):
        row = []
        for policy in ("t", "nt", "adaptive"):
            comm = Communicator(64, machine=NODE_A)
            res = run_collective(
                SOCKET_MA_ALLREDUCE, comm.engine, s, copy_policy=policy,
                imax=256 * KB, iterations=2,
            )
            row.append(res.time * 1e6)
        best = min(row)
        marks = ["*" if t == best else " " for t in row]
        print(f"   {s >> 20:>6}MB" + "".join(
            f"{t:>11.0f}{m}" for t, m in zip(row, marks)
        ))
    print("   -> the adaptive copy tracks the winner on both sides of"
          " the switch")


if __name__ == "__main__":
    stream_view()
    switch_points()
    payoff()
