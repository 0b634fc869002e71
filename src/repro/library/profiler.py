"""PMPI-style collective profiler (Section 5.1's profiling tool).

Wraps any library facade (:class:`~repro.library.yhccl.YHCCL` or
:class:`~repro.library.mpi.MPILibrary`) and records the
:class:`~repro.library.yhccl.CollectiveResult` of every collective
call: operation, size, time, DAV, achieved data-access bandwidth and
the algorithm selected — the data behind the paper's DAB discussion in
Section 5.4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.common import KINDS
from repro.library.yhccl import CollectiveResult


@dataclass
class _OpStats:
    calls: int = 0
    total_time: float = 0.0
    total_bytes: int = 0
    total_dav: int = 0


class Profiler:
    """Intercepts collective calls the way a PMPI shim does."""

    def __init__(self, library):
        self.library = library
        self.records: list[CollectiveResult] = []

    def __getattr__(self, name):
        # Dunders must keep their standard failure semantics: copy,
        # pickle and inspect probe them and interpret AttributeError as
        # "not supported" — delegating would break that protocol.
        # ``library`` itself guards unpickling, where __getattr__ runs
        # before __init__ has populated the instance dict.
        if name.startswith("__") or name == "library":
            raise AttributeError(name)
        inner = getattr(self.library, name)  # AttributeError names both
        if name not in KINDS:
            # A PMPI shim is transparent: non-collective API (lint,
            # verify, comm, ...) passes straight through unprofiled.
            return inner

        def wrapper(nbytes, **kw):
            result = inner(nbytes, **kw)
            self.records.append(result)
            return result

        return wrapper

    # ---- reporting ----------------------------------------------------------

    def stats(self) -> dict:
        out: dict[str, _OpStats] = {}
        for rec in self.records:
            st = out.setdefault(rec.kind, _OpStats())
            st.calls += 1
            st.total_time += rec.time
            st.total_bytes += rec.nbytes
            st.total_dav += rec.dav
        return out

    @property
    def total_time(self) -> float:
        return sum(r.time for r in self.records)

    def report(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"{'collective':<16}{'calls':>7}{'bytes':>14}{'time (ms)':>12}"
            f"{'DAB (GB/s)':>12}"
        ]
        for kind, st in sorted(self.stats().items()):
            # same zero-time guard as CollectiveResult.dab: a sum of
            # degenerate zero-time records must not divide by zero
            dab = (st.total_dav / st.total_time / 1e9
                   if st.total_time > 0 else 0.0)
            lines.append(
                f"{kind:<16}{st.calls:>7}{st.total_bytes:>14}"
                f"{st.total_time * 1e3:>12.3f}{dab:>12.1f}"
            )
        return "\n".join(lines)

    def clear(self) -> None:
        self.records.clear()
