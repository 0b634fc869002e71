"""Sliced STREAM-COPY microbenchmark (Table 4 and Figure 3).

The paper redesigns STREAM COPY to copy a huge array *slice by slice*,
mimicking the data-copy granularity of pipelined collectives, and
compares ``memmove``, ``t-copy`` and ``nt-copy`` (Section 4.1).  We run
the same experiment on the simulated memory system: every rank streams
its share of a large source array into a destination array at a given
slice size, and we report the STREAM-convention bandwidth
``2 * bytes_copied / time``.

Figure 3's copy-out experiment is the variant where the *source* is a
single shared-memory buffer and each rank copies all of it to a private
buffer with ``memmove`` — the overhead collapses once the slice size
crosses the library's NT threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.spec import MachineSpec
from repro.sim.engine import Engine
from repro.copyengine.primitives import copy


@dataclass
class SlicedCopyResult:
    """Outcome of one sliced-copy run."""

    policy: str
    slice_size: int
    bytes_copied: int
    time: float
    traffic_bytes: int

    @property
    def bandwidth(self) -> float:
        """STREAM-convention bandwidth (read + write bytes / time)."""
        return 2.0 * self.bytes_copied / self.time

    @property
    def time_us(self) -> float:
        return self.time * 1e6


class SlicedCopyBenchmark:
    """Sliced copies on a simulated node.

    Parameters
    ----------
    machine:
        Node model.
    nranks:
        Concurrent copying processes (one per core in the paper).
    total_bytes:
        Aggregate array size split evenly across ranks (Table 4 uses
        16 GB).
    """

    def __init__(self, machine: MachineSpec, nranks: int, total_bytes: int):
        machine.validate_nranks(nranks)
        if total_bytes % nranks:
            raise ValueError("total_bytes must divide evenly across ranks")
        self.machine = machine
        self.nranks = nranks
        self.total_bytes = total_bytes

    def _run(self, policy: str, slice_size: int, src_shared_bytes: int = 0,
             warm_src: bool = False) -> SlicedCopyResult:
        if slice_size <= 0:
            raise ValueError("slice size must be positive")
        eng = Engine(self.nranks, machine=self.machine, functional=False)
        per_rank = (
            src_shared_bytes if src_shared_bytes else self.total_bytes // self.nranks
        )
        if per_rank % slice_size:
            raise ValueError(
                f"per-rank bytes {per_rank} not a multiple of slice {slice_size}"
            )
        if src_shared_bytes:
            shared = eng.alloc_shared(src_shared_bytes, name="shm_src")
            srcs = {r: shared for r in range(self.nranks)}
        else:
            srcs = {
                r: eng.alloc(r, per_rank, name=f"src{r}") for r in range(self.nranks)
            }
        dsts = {r: eng.alloc(r, per_rank, name=f"dst{r}") for r in range(self.nranks)}

        if warm_src:
            # Untimed pass loading the source into cache: models the
            # copy-out of data a preceding reduction phase produced.
            def warm(ctx):
                src = srcs[ctx.rank]
                for off in range(0, per_rank, slice_size):
                    ctx.touch(src.view(off, slice_size))

            eng.run(warm)

        def program(ctx):
            src = srcs[ctx.rank]
            dst = dsts[ctx.rank]
            for off in range(0, per_rank, slice_size):
                copy(ctx, dst.view(off, slice_size), src.view(off, slice_size),
                     policy)

        res = eng.run(program)
        return SlicedCopyResult(
            policy=policy,
            slice_size=slice_size,
            bytes_copied=per_rank * self.nranks,
            time=res.time,
            traffic_bytes=res.traffic.memory_traffic,
        )

    # ---- Table 4 -----------------------------------------------------------

    def run_policy(self, kind: str, slice_size: int) -> SlicedCopyResult:
        """Bandwidth of one policy at one slice size (Table 4 cell)."""
        return self._run(kind, slice_size)

    def table4(self, slice_sizes, policies=("memmove", "t", "nt")) -> dict:
        """The full Table 4 grid: policy x slice size -> bandwidth."""
        return {
            kind: {s: self.run_policy(kind, s) for s in slice_sizes}
            for kind in policies
        }

    # ---- Figure 3 ----------------------------------------------------------

    def copy_out_overhead(self, shared_bytes: int, slice_size: int,
                          nt_threshold: int | None = None) -> SlicedCopyResult:
        """Figure 3: every rank memmoves a shared buffer to private memory.

        ``nt_threshold`` overrides the machine's memmove threshold to
        model different C libraries (the paper shows icpc and gcc; both
        exhibit the same cliff, at slightly different constants).
        """
        machine = self.machine
        if nt_threshold is not None:
            machine = machine.with_(memmove_nt_threshold=nt_threshold)
        bench = SlicedCopyBenchmark(machine, self.nranks, self.total_bytes)
        return bench._run(
            "memmove", slice_size, src_shared_bytes=shared_bytes,
            warm_src=True,
        )
