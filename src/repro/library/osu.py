"""OSU-micro-benchmark-style harness (artifact workflow, Appendix C.3).

The paper's evaluation drives the OSU MPI benchmark suite:

    mpiexec -n 64 ./osu_allreduce -c -m 65536:268435456

This module reproduces that workflow against the simulated node: a size
sweep with warm-up and measured iterations, optional result validation
(OSU's ``-c``), and the familiar two-column output.  The YHCCL on/off
switch mirrors ``OMPI_MCA_coll_yhccl_priority``.

Command line (see ``python -m repro --help``)::

    python -m repro osu allreduce -n 64 --machine NodeA -m 65536:268435456
    python -m repro osu bcast -n 48 --machine NodeB --no-yhccl -c
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.library.communicator import Communicator
from repro.library.mpi import MPILibrary
from repro.library.yhccl import YHCCL
from repro.machine.spec import PRESETS

COLLECTIVES = ("allreduce", "reduce", "reduce_scatter", "bcast", "allgather")
DEFAULT_RANGE = (65536, 268435456)


@dataclass
class OSUResult:
    """One row of OSU output."""

    size: int
    avg_latency_us: float
    validated: bool


@dataclass
class OSUBenchmark:
    """A configured OSU-style run.

    Parameters mirror the OSU suite: ``msg_range`` is the ``-m lo:hi``
    sweep (sizes double from lo to hi), ``validate`` is ``-c``,
    ``iterations``/``warmups`` control the measurement loop (the
    simulator is deterministic, so small counts suffice — warm-ups
    still matter because they set the steady-state cache contents).
    """

    collective: str
    nranks: int = 64
    machine: str = "NodeA"
    use_yhccl: bool = True
    vendor: str = "Open MPI"
    msg_range: tuple = DEFAULT_RANGE
    validate: bool = False
    warmups: int = 1
    iterations: int = 1

    def __post_init__(self) -> None:
        if self.collective not in COLLECTIVES:
            raise ValueError(
                f"unknown collective {self.collective!r}; "
                f"choose from {COLLECTIVES}"
            )
        if self.machine not in PRESETS:
            raise ValueError(
                f"unknown machine {self.machine!r}; choose from "
                f"{sorted(PRESETS)}"
            )
        lo, hi = self.msg_range
        if not (0 < lo <= hi):
            raise ValueError(f"bad message range {self.msg_range}")

    # ---- the sweep ----------------------------------------------------------

    def sizes(self) -> list:
        out = []
        s = self.msg_range[0]
        while s <= self.msg_range[1]:
            out.append(s)
            s *= 2
        return out

    def _library(self, comm: Communicator):
        if self.use_yhccl:
            return YHCCL(comm)
        return MPILibrary(comm, self.vendor)

    def run(self) -> list:
        """Run the sweep; returns a list of :class:`OSUResult`."""
        machine = PRESETS[self.machine]
        rows = []
        for size in self.sizes():
            comm = Communicator(
                self.nranks, machine=machine, functional=self.validate
            )
            lib = self._library(comm)
            call = getattr(lib, self.collective)
            total = self.warmups + self.iterations
            res = call(size, iterations=total)
            validated = self.validate  # run_collective checks results
            rows.append(
                OSUResult(size=size, avg_latency_us=res.time * 1e6,
                          validated=validated)
            )
        return rows

    # ---- output -------------------------------------------------------------

    def header(self) -> str:
        name = {
            "allreduce": "OSU MPI Allreduce Latency Test",
            "reduce": "OSU MPI Reduce Latency Test",
            "reduce_scatter": "OSU MPI Reduce_scatter Latency Test",
            "bcast": "OSU MPI Broadcast Latency Test",
            "allgather": "OSU MPI Allgather Latency Test",
        }[self.collective]
        impl = "YHCCL (priority=100)" if self.use_yhccl else self.vendor
        return (
            f"# {name} — simulated {self.machine}, {self.nranks} ranks, "
            f"{impl}\n# {'Size':>10}{'Avg Latency(us)':>20}"
        )

    def render(self, rows) -> str:
        lines = [self.header()]
        for r in rows:
            mark = "  (validated)" if r.validated else ""
            lines.append(f"{r.size:>12}{r.avg_latency_us:>20.2f}{mark}")
        return "\n".join(lines)


def compare_priorities(collective: str, nranks: int = 64,
                       machine: str = "NodeA",
                       msg_range: tuple = DEFAULT_RANGE,
                       vendor: str = "Open MPI") -> str:
    """The artifact's S3 step: the same sweep with YHCCL enabled
    (priority=100) and disabled (priority=0 → vendor fallback),
    side by side with the speedup column."""
    on = OSUBenchmark(collective, nranks=nranks, machine=machine,
                      msg_range=msg_range, use_yhccl=True).run()
    off = OSUBenchmark(collective, nranks=nranks, machine=machine,
                       msg_range=msg_range, use_yhccl=False,
                       vendor=vendor).run()
    lines = [
        f"# {collective}: YHCCL=100 vs YHCCL=0 ({vendor}) — "
        f"{machine}, {nranks} ranks",
        f"# {'Size':>10}{'YHCCL(us)':>14}{vendor + '(us)':>16}"
        f"{'speedup':>10}",
    ]
    for a, b in zip(on, off):
        lines.append(
            f"{a.size:>12}{a.avg_latency_us:>14.2f}"
            f"{b.avg_latency_us:>16.2f}"
            f"{b.avg_latency_us / a.avg_latency_us:>10.2f}"
        )
    return "\n".join(lines)
