"""ASCII timeline rendering of operation traces.

Turns an engine :class:`~repro.sim.trace.Trace` into a per-rank Gantt
chart, the fastest way to *see* a collective's schedule: the MA
pipeline's diagonal copy wavefront, the barrier walls of DPML's phases,
a broadcast's root/reader overlap.

    eng = Engine(4, machine=TINY, functional=False, trace=True)
    run_collective(MA_REDUCE_SCATTER, eng, 4096, imax=512)
    print(render_timeline(eng.trace, width=72))

Each character cell is a time bucket; the glyph is the operation that
occupied most of it: ``c`` copy (``C`` non-temporal), ``r`` reduce,
``x`` compute, ``t`` touch, ``w`` flag wait, ``=`` barrier stall,
``.`` idle.  Sync records render as wait/stall segments — the paper's
per-phase breakdowns need the stalls *visible*, not dropped.  Unknown
operation kinds degrade to ``?`` cells with a single warning per
render, so a future op kind cannot silently corrupt a chart.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from repro.sim.trace import Trace

_GLYPHS = {
    ("copy", False): "c",
    ("copy", True): "C",
    ("reduce_acc", False): "r",
    ("reduce_out", False): "r",
    ("reduce_acc", True): "R",
    ("reduce_out", True): "R",
    ("compute", False): "x",
    ("touch", False): "t",
    ("touch", True): "t",
    ("wait", False): "w",
    ("barrier", False): "=",
    ("post", False): "p",  # zero-duration; visible only in huge buckets
}

#: kinds accounted as synchronization stall, not busy work
_SYNC_KINDS = ("post", "wait", "barrier")

_LEGEND = ("glyphs: c/C copy (temporal/NT), r reduce, x compute, t touch, "
           "w wait, = barrier, . idle")


@dataclass
class TimelineStats:
    """Per-rank busy/stall/idle accounting extracted from a trace.

    ``busy`` counts data operations (copy/reduce/compute/touch);
    ``stall`` counts traced synchronization intervals (flag waits and
    barrier stalls).  ``span`` is the global completion time, so
    ``utilization`` compares this rank's useful work to the whole
    collective — sync time no longer inflates it.
    """

    rank: int
    busy: float
    span: float
    stall: float = 0.0

    @property
    def utilization(self) -> float:
        return self.busy / self.span if self.span > 0 else 0.0


def _glyph(kind: str, nt, unknown: Optional[set] = None) -> str:
    g = _GLYPHS.get((kind, bool(nt)))
    if g is None:
        # only copy/reduce distinguish NT; other kinds ignore the flag
        g = _GLYPHS.get((kind, False))
    if g is None:
        if unknown is not None:
            unknown.add(kind)
        return "?"
    return g


def render_timeline(trace: Trace, *, width: int = 80,
                    ranks: Optional[list] = None,
                    show_utilization: bool = True) -> str:
    """Render the trace as one row of ``width`` buckets per rank."""
    if width < 8:
        raise ValueError("width must be at least 8")
    records = [r for r in trace if r.t_end > r.t_start]
    if not records:
        return "(empty trace)"
    t_end = max(r.t_end for r in records)
    if t_end <= 0:
        return "(trace has no timed operations)"
    all_ranks = sorted({r.rank for r in records})
    ranks = all_ranks if ranks is None else [r for r in ranks if r in all_ranks]
    bucket = t_end / width
    unknown: set = set()

    lines = [f"timeline: {t_end * 1e6:.1f} us across {width} buckets "
             f"({bucket * 1e6:.2f} us each)"]
    lines.append(_LEGEND)
    for rank in ranks:
        row = [" "] * width
        fills = [0.0] * width
        for rec in records:
            if rec.rank != rank:
                continue
            first = min(width - 1, int(rec.t_start / bucket))
            last = min(width - 1, int(max(rec.t_start, rec.t_end - 1e-15)
                                      / bucket))
            g = _glyph(rec.kind, rec.nt, unknown)
            for b in range(first, last + 1):
                overlap = min(rec.t_end, (b + 1) * bucket) - max(
                    rec.t_start, b * bucket
                )
                if overlap > fills[b]:
                    fills[b] = overlap
                    row[b] = g
        text = "".join(ch if ch != " " else "." for ch in row)
        suffix = ""
        if show_utilization:
            st = rank_stats(trace, rank)
            suffix = f"  {100 * st.utilization:5.1f}% busy"
        lines.append(f"rank {rank:>3} |{text}|{suffix}")
    if unknown:
        warnings.warn(
            f"render_timeline: unknown op kind(s) {sorted(unknown)} "
            "rendered as '?' — teach sim.timeline._GLYPHS about them",
            RuntimeWarning,
            stacklevel=2,
        )
    return "\n".join(lines)


def rank_stats(trace: Trace, rank: int) -> TimelineStats:
    """Busy/stall time vs the global span, for one rank."""
    records = [r for r in trace if r.t_end > r.t_start]
    span = max((r.t_end for r in records), default=0.0)
    busy = sum(
        r.t_end - r.t_start for r in records
        if r.rank == rank and r.kind not in _SYNC_KINDS
    )
    stall = sum(
        r.t_end - r.t_start for r in records
        if r.rank == rank and r.kind in _SYNC_KINDS
    )
    return TimelineStats(rank=rank, busy=busy, span=span, stall=stall)


def critical_rank(trace: Trace) -> int:
    """The rank whose last operation finishes the collective."""
    records = [r for r in trace if r.t_end > r.t_start]
    if not records:
        raise ValueError("empty trace")
    return max(records, key=lambda r: r.t_end).rank


def phase_summary(trace: Trace, *, buckets: int = 4) -> list:
    """Traffic per time quartile: [(t_from, t_to, copy_bytes,
    reduce_bytes)] — a quick view of where the bytes move."""
    records = [r for r in trace if r.t_end > r.t_start]
    if not records:
        return []
    t_end = max(r.t_end for r in records)
    edges = [t_end * i / buckets for i in range(buckets + 1)]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        copy_b = sum(r.nbytes for r in records
                     if r.kind == "copy" and lo <= r.t_start < hi)
        red_b = sum(r.nbytes for r in records
                    if r.kind.startswith("reduce") and lo <= r.t_start < hi)
        out.append((lo, hi, copy_b, red_b))
    return out
