"""The static analysis passes.

Each pass reads one :class:`~repro.analysis.static.ir.ScheduleIR` and
emits :class:`~repro.analysis.static.report.Finding`\\ s; none of them
execute anything.  The default pipeline (:data:`DEFAULT_PASSES`):

* :class:`ExtractionPass` — surfaces extraction-time engine errors
  (e.g. an out-of-bounds sub-slice aborts the run before any access is
  recorded; the error string is the finding).
* :class:`DeadlockPass` — dependency cycles, unsatisfiable pending
  waits (fewer posts of the tag exist in the whole schedule than the
  wait requires), incomplete and mismatched barriers, and recycled
  flag tags.  The static mirror of the engine's deadlock diagnosis and
  the DPOR checker's verdict.
* :class:`StaticDavPass` — Theorem 3.1 data-access volume summed over
  the DAG, pinned byte-exactly against the closed-form row in
  :mod:`repro.models.dav` *and* against the extraction run's obs
  counters.
* :class:`BufferPass` — footprint bounds, unordered overlapping
  accesses (the static form of the happens-before race check: two
  conflicting footprints with no dependency path between their nodes)
  and uninitialized-read reachability (a read of a never-filled buffer
  not fully covered by happens-before-ordered writes).  ``verify`` runs
  the same scan on every schedule it explores.
* :class:`LocalityPass` — cache-line false sharing (distinct ranks
  concurrently writing disjoint bytes of one line) and NUMA placement
  (the fraction of accessed bytes homed on a remote socket, judged
  against :data:`NUMA_CROSS_THRESHOLD`; algorithms declaring
  ``locality = "socket"`` escalate a violation to an error).
* :class:`CriticalPathPass` — the longest dependency path weighted
  with :func:`repro.models.timing.static_op_time`: a completion-time
  lower bound no schedule of this DAG can beat, reported against the
  engine-simulated time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.static.ir import IRValidationError, ScheduleIR
from repro.analysis.static.report import Finding, Report
from repro.machine.spec import socket_of_rank_meta
from repro.models.dav import REL_TOL, predicted_dav
from repro.models.timing import static_op_time

#: flag a schedule when more than this fraction of its accessed bytes
#: live on a remote socket.  Calibrated on the registered matrix at
#: p=4 on NodeA: the socket-aware MA variants stay at 0.08-0.17 (one
#: cross-socket combine of the per-socket partials) and the
#: neighbor-structured algorithms (ring, rabenseifner, dpml, rg) at
#: 0.10-0.17, while the naive flat baselines — plain MA, ordered,
#: vector — have every rank reducing into one shared region and sit
#: at 0.31-0.35.
NUMA_CROSS_THRESHOLD = 0.25

#: the critical-path bound uses the first-order per-op cost model
#: (repro.models.timing), not the engine's memory-level simulation; on
#: schedules with no sync slack (e.g. p=1, a single copy) the two can
#: differ by a few percent without either being wrong.  Flag
#: inconsistency only beyond this relative model tolerance.
CP_REL_TOL = 0.05

#: cap per-code finding spam; the remainder is summarized
MAX_REPORTED = 8


class Pass:
    """Base class: ``run(ir)`` returns this pass's findings."""

    name = ""
    #: finding codes this pass can emit (documentation + tests)
    codes: Tuple[str, ...] = ()

    def run(self, ir: ScheduleIR) -> List[Finding]:
        raise NotImplementedError

    def _finding(self, ir: ScheduleIR, code: str, severity: str,
                 message: str, *, nodes: Tuple[int, ...] = (),
                 data: Optional[dict] = None) -> Finding:
        return Finding(code=code, severity=severity, message=message,
                       pass_name=self.name,
                       case=str(ir.meta.get("label", "")),
                       nodes=nodes, data=data)


def _cap(findings: List[Finding], pass_obj: Pass, ir: ScheduleIR,
         code: str) -> List[Finding]:
    """Keep the first :data:`MAX_REPORTED` findings of one code and
    summarize the rest — never silently truncate."""
    if len(findings) <= MAX_REPORTED:
        return findings
    hidden = len(findings) - MAX_REPORTED
    head = findings[:MAX_REPORTED]
    head.append(pass_obj._finding(
        ir, code, head[0].severity,
        f"... and {hidden} more {code} finding(s) not listed "
        f"(all {len(findings)} counted)",
        data={"total": len(findings)},
    ))
    return head


# ---------------------------------------------------------------------------
# Extraction errors
# ---------------------------------------------------------------------------


class ExtractionPass(Pass):
    """Surface extraction-time engine failures recorded in the meta.

    Errors like an escaping sub-slice raise *before* the offending
    access is recorded, so no footprint exists to lint — the error
    string itself is the verdict, and the partial IR documents how far
    the schedule got."""

    name = "extract"
    codes = ("SA-EXTRACT-ERROR",)

    def run(self, ir: ScheduleIR) -> List[Finding]:
        error = str(ir.meta.get("error", ""))
        if not error:
            return []
        return [self._finding(
            ir, "SA-EXTRACT-ERROR", "error",
            f"schedule aborted during extraction: {error} "
            f"({len(ir.nodes)} op(s) lifted before the failure)",
        )]


# ---------------------------------------------------------------------------
# Deadlock freedom
# ---------------------------------------------------------------------------


class DeadlockPass(Pass):
    """Deadlock freedom over the post/wait/barrier structure."""

    name = "deadlock"
    codes = ("SA-DL-CYCLE", "SA-DL-UNSAT", "SA-DL-BARRIER",
             "SA-DL-BARRIER-MISMATCH", "SA-DL-BLOCKED", "SA-DL-TAG-REUSE")

    def run(self, ir: ScheduleIR) -> List[Finding]:
        out: List[Finding] = []
        cycle = ir.find_cycle()
        if cycle is not None:
            path = " -> ".join(ir.nodes[n].describe() for n in cycle)
            out.append(self._finding(
                ir, "SA-DL-CYCLE", "error",
                f"dependency cycle of {len(cycle)} node(s): {path} — "
                "no execution order satisfies this schedule",
                nodes=tuple(cycle),
            ))
        posts_by_tag: Dict[object, int] = {}
        for n in ir.nodes:
            if n.kind == "post" and not n.pending:
                posts_by_tag[n.tag] = posts_by_tag.get(n.tag, 0) + 1
        for n in ir.nodes:
            if not n.pending:
                continue
            if n.kind == "wait":
                have = posts_by_tag.get(n.tag, 0)
                if have < n.count:
                    out.append(self._finding(
                        ir, "SA-DL-UNSAT", "error",
                        f"rank {n.rank} wait({n.tag!r}, count={n.count}) "
                        f"can never be satisfied: the whole schedule "
                        f"contains {have} post(s) of {n.count} required "
                        f"— {n.count - have} will never arrive",
                        nodes=(n.node,),
                        data={"have": have, "required": n.count},
                    ))
                else:
                    out.append(self._finding(
                        ir, "SA-DL-BLOCKED", "error",
                        f"rank {n.rank} wait({n.tag!r}, count={n.count}) "
                        f"never released although {have} post(s) exist — "
                        "the posts are unreachable from the blocked state",
                        nodes=(n.node,),
                    ))
            elif n.kind == "barrier":
                missing = tuple(r for r in n.group if r not in n.arrived)
                out.append(self._finding(
                    ir, "SA-DL-BARRIER", "error",
                    f"barrier{n.group} never completes: "
                    f"{len(n.arrived)} of {len(n.group)} rank(s) arrived "
                    f"— ranks {missing} never arrive",
                    nodes=(n.node,),
                    data={"arrived": list(n.arrived),
                          "missing": list(missing)},
                ))
        out += self._barrier_mismatches(ir)
        if ir.meta.get("deadlocked") and not out:
            out.append(self._finding(
                ir, "SA-DL-UNSAT", "error",
                "the extraction run deadlocked but left no pending sync "
                "nodes — truncated trace?",
            ))
        if cycle is None:
            out += _cap(self._tag_reuse(ir), self, ir, "SA-DL-TAG-REUSE")
        return out

    def _barrier_mismatches(self, ir: ScheduleIR) -> List[Finding]:
        """Pending barriers whose groups overlap without being equal:
        two ranks each rendezvous with a group containing the other,
        but they named different groups — the split-barrier bug."""
        pending = [n for n in ir.nodes if n.pending and n.kind == "barrier"]
        out = []
        for i, a in enumerate(pending):
            for b in pending[i + 1:]:
                ga, gb = set(a.group), set(b.group)
                if ga != gb and ga & gb:
                    out.append(self._finding(
                        ir, "SA-DL-BARRIER-MISMATCH", "error",
                        f"rank {a.rank} is in barrier{a.group} while "
                        f"rank {b.rank} is in barrier{b.group}: the "
                        f"groups overlap on ranks "
                        f"{tuple(sorted(ga & gb))} but are not equal",
                        nodes=(a.node, b.node),
                    ))
        return out

    def _tag_reuse(self, ir: ScheduleIR) -> List[Finding]:
        """A post of tag ``T`` ordered after a released wait on ``T``.

        Waits do not consume posts, so a recycled tag cannot tell fresh
        posts from stale ones: a later ``wait(T, n)`` may release on a
        previous step's posts before its real dependency ran.  One
        finding per tag."""
        waits: Dict[object, List[int]] = {}
        for n in ir.nodes:
            if n.kind == "wait" and not n.pending:
                waits.setdefault(n.tag, []).append(n.node)
        out: List[Finding] = []
        reported: set = set()
        for n in ir.nodes:
            if n.kind != "post" or n.tag not in waits \
                    or n.tag in reported:
                continue
            anc = ir.ancestors()[n.node]
            for w in waits[n.tag]:
                if anc >> w & 1:
                    reported.add(n.tag)
                    out.append(self._finding(
                        ir, "SA-DL-TAG-REUSE", "warning",
                        f"rank {n.rank} posts {n.tag!r} after "
                        f"{ir.nodes[w].describe()} was already released; "
                        "stale posts can satisfy later waits — make the "
                        "tag unique per step",
                        nodes=(w, n.node),
                    ))
                    break
        return out


# ---------------------------------------------------------------------------
# Static DAV
# ---------------------------------------------------------------------------


class StaticDavPass(Pass):
    """Theorem 3.1 accounting summed over the DAG, pinned against the
    closed-form model and the extraction run's obs counters."""

    name = "dav"
    codes = ("SA-DAV-OK", "SA-DAV-EXCESS", "SA-DAV-UNDER",
             "SA-DAV-SKIP", "SA-DAV-OBS")

    def run(self, ir: ScheduleIR) -> List[Finding]:
        out: List[Finding] = []
        measured = ir.static_dav()
        meta = ir.meta
        counters = meta.get("counters")
        if counters is not None:
            obs = float(counters.get("totals", {}).get("trace_dav", 0.0))
            if obs != measured:
                out.append(self._finding(
                    ir, "SA-DAV-OBS", "error",
                    f"static DAV {measured:.0f} B disagrees with the obs "
                    f"counters' {obs:.0f} B for the same run — the IR "
                    "lift dropped or duplicated operations",
                    data={"static": measured, "counters": obs},
                ))
        if meta.get("deadlocked") or meta.get("error"):
            out.append(self._finding(
                ir, "SA-DAV-SKIP", "info",
                f"DAV model comparison skipped: partial schedule "
                f"(moved {measured:.0f} B before aborting)",
                data={"measured": measured},
            ))
            return out
        kind = str(meta.get("kind", ""))
        algorithm = str(meta.get("dav_algorithm", ""))
        p = int(meta.get("nranks", 0))
        s = int(meta.get("s", 0))
        if p <= 1:
            out.append(self._finding(
                ir, "SA-DAV-SKIP", "info",
                "DAV model comparison skipped: p=1 degenerate schedule "
                "(Table 1-3 formulas assume p >= 2)",
                data={"measured": measured},
            ))
            return out
        predicted = predicted_dav(kind, algorithm, s, p,
                                  m=int(meta.get("m", 2)),
                                  k=int(meta.get("k", 2))) \
            if kind else None
        if predicted is None:
            out.append(self._finding(
                ir, "SA-DAV-SKIP", "info",
                f"no DAV model for {kind or '<ad-hoc>'}/{algorithm}; "
                f"schedule moves {measured:.0f} B",
                data={"measured": measured},
            ))
            return out
        data = {"measured": measured, "predicted": predicted,
                "s": s, "p": p}
        if measured > predicted * (1.0 + REL_TOL):
            out.append(self._finding(
                ir, "SA-DAV-EXCESS", "error",
                f"schedule moves {measured:.0f} B but Theorem 3.1 "
                f"predicts {predicted:.0f} B for {kind}/{algorithm} at "
                f"s={s}, p={p} — {measured - predicted:.0f} B of "
                "redundant movement", data=data,
            ))
        elif measured < predicted * (1.0 - REL_TOL):
            out.append(self._finding(
                ir, "SA-DAV-UNDER", "info",
                f"schedule moves {measured:.0f} B, under the "
                f"{predicted:.0f} B modelled for {kind}/{algorithm} "
                "(moving less than modelled is not a bug)", data=data,
            ))
        else:
            out.append(self._finding(
                ir, "SA-DAV-OK", "info",
                f"static DAV matches Theorem 3.1 byte-exactly: "
                f"{measured:.0f} B for {kind}/{algorithm} at s={s}, "
                f"p={p}", data=data,
            ))
        return out


# ---------------------------------------------------------------------------
# Buffer lints
# ---------------------------------------------------------------------------

#: one access of one footprint: (node id, rank, mode, off, end)
_Access = Tuple[int, int, str, int, int]


def _node_accesses(ir: ScheduleIR) -> Dict[int, List[_Access]]:
    """Per-buffer access lists over all data nodes."""
    per_buf: Dict[int, List[_Access]] = {}
    for n in ir.nodes:
        for mode, fps in (("r", n.reads), ("w", n.writes)):
            for fp in fps:
                per_buf.setdefault(fp.buf, []).append(
                    (n.node, n.rank, mode, fp.off, fp.end)
                )
    return per_buf


def _interval_buckets(accesses: Sequence[_Access]
                      ) -> Tuple[List[int], List[List[_Access]]]:
    """Cut a buffer at every access boundary into elementary
    intervals: bucket ``i`` lists, in input order, the accesses that
    span ``[bounds[i], bounds[i + 1])``.  Two accesses share bytes iff
    they share a bucket, so scans compare only overlapping pairs."""
    bounds = sorted({b for a in accesses for b in (a[3], a[4])})
    index = {b: i for i, b in enumerate(bounds)}
    buckets: List[List[_Access]] = [[] for _ in bounds[1:]]
    for a in accesses:
        for i in range(index[a[3]], index[a[4]]):
            buckets[i].append(a)
    return bounds, buckets


def _merge(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _uncovered(lo: int, hi: int,
               covered: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``[lo, hi)`` minus a merged interval list."""
    gaps: List[Tuple[int, int]] = []
    cur = lo
    for clo, chi in covered:
        if chi <= cur:
            continue
        if clo >= hi:
            break
        if clo > cur:
            gaps.append((cur, min(clo, hi)))
        cur = max(cur, chi)
        if cur >= hi:
            break
    if cur < hi:
        gaps.append((cur, hi))
    return gaps


class BufferPass(Pass):
    """Footprint bounds, unordered conflicting accesses, and
    uninitialized-read reachability."""

    name = "buffers"
    codes = ("SA-BUF-BOUNDS", "SA-BUF-OVERLAP", "SA-BUF-RACE",
             "SA-BUF-UNINIT")

    def run(self, ir: ScheduleIR) -> List[Finding]:
        found = self.scan(ir)
        out = found["SA-BUF-BOUNDS"]
        for code in ("SA-BUF-OVERLAP", "SA-BUF-RACE", "SA-BUF-UNINIT"):
            out += _cap(found[code], self, ir, code)
        return out

    def scan(self, ir: ScheduleIR) -> Dict[str, List[Finding]]:
        """Every finding of this pass, uncapped, keyed by code (each
        of :attr:`codes`, in order).  ``verify`` judges every explored
        terminal state with this scan; :meth:`run` caps each code."""
        found: Dict[str, List[Finding]] = {code: [] for code in self.codes}
        found["SA-BUF-BOUNDS"] = self._bounds(ir)
        for buf, accesses in _node_accesses(ir).items():
            overlaps, races = self._conflicts(ir, buf, accesses)
            found["SA-BUF-OVERLAP"] += overlaps
            found["SA-BUF-RACE"] += races
            if not ir.buffers[buf].initialized:
                found["SA-BUF-UNINIT"] += self._uninit_reads(ir, buf,
                                                             accesses)
        return found

    def _bounds(self, ir: ScheduleIR) -> List[Finding]:
        out = []
        for n in ir.nodes:
            for fp in n.reads + n.writes:
                info = ir.buffers[fp.buf]
                if fp.off < 0 or fp.end > info.nbytes:
                    out.append(self._finding(
                        ir, "SA-BUF-BOUNDS", "error",
                        f"{n.describe()} accesses {info.name}"
                        f"[{fp.off}, {fp.end}) outside the buffer's "
                        f"{info.nbytes} bytes",
                        nodes=(n.node,),
                    ))
        return out

    def _conflicts(self, ir: ScheduleIR, buf: int,
                   accesses: List[_Access]
                   ) -> Tuple[List[Finding], List[Finding]]:
        """Unordered conflicting pairs, via elementary intervals: two
        accesses from different ranks overlapping in bytes, at least
        one a write, with no dependency path between their nodes."""
        info = ir.buffers[buf]
        _, buckets = _interval_buckets(accesses)
        overlaps: List[Finding] = []
        races: List[Finding] = []
        seen: set = set()
        anc: Optional[List[int]] = None
        for here in buckets:
            writers = [a for a in here if a[2] == "w"]
            if not writers:
                continue
            for wa in writers:
                for other in here:
                    if other is wa or other[1] == wa[1]:
                        continue
                    if other[2] == "w" and other[0] > wa[0]:
                        continue  # report each w-w pair once
                    key = ((wa[0], other[0]) if wa[0] < other[0]
                           else (other[0], wa[0]))
                    if key in seen:
                        continue
                    if anc is None:
                        anc = ir.ancestors()
                    if anc[other[0]] >> wa[0] & 1 \
                            or anc[wa[0]] >> other[0] & 1:
                        continue
                    seen.add(key)
                    na, nb = ir.nodes[wa[0]], ir.nodes[other[0]]
                    olo = max(wa[3], other[3])
                    ohi = min(wa[4], other[4])
                    if other[2] == "w":
                        overlaps.append(self._finding(
                            ir, "SA-BUF-OVERLAP", "error",
                            f"ranks {na.rank} and {nb.rank} both write "
                            f"{info.name}[{olo}, {ohi}) with no "
                            f"dependency path ordering {na.describe()} "
                            f"and {nb.describe()}",
                            nodes=key,
                        ))
                    else:
                        races.append(self._finding(
                            ir, "SA-BUF-RACE", "error",
                            f"rank {nb.rank} reads {info.name}"
                            f"[{olo}, {ohi}) while rank {na.rank}'s "
                            f"unordered write may be in flight "
                            f"({nb.describe()} vs {na.describe()})",
                            nodes=key,
                        ))
        return overlaps, races

    def _uninit_reads(self, ir: ScheduleIR, buf: int,
                      accesses: List[_Access]) -> List[Finding]:
        """Reads of a never-filled buffer not fully covered by
        happens-before-ordered writes."""
        info = ir.buffers[buf]
        bounds, buckets = _interval_buckets(
            [a for a in accesses if a[2] == "w"])
        out = []
        for node, rank, mode, lo, hi in accesses:
            if mode != "r":
                continue
            # byte overlap first: only the writes sharing a bucket with
            # [lo, hi) can cover it, and the happens-before test is the
            # costly one
            first = max(bisect_right(bounds, lo) - 1, 0)
            here = {w for bucket in buckets[first:bisect_left(bounds, hi)]
                    for w in bucket if w[0] != node}
            before = ir.ancestors()[node] if here else 0
            covered = _merge([(w[3], w[4]) for w in here
                              if before >> w[0] & 1])
            gaps = _uncovered(lo, hi, covered)
            if gaps:
                glo, ghi = gaps[0]
                n = ir.nodes[node]
                out.append(self._finding(
                    ir, "SA-BUF-UNINIT", "error",
                    f"{n.describe()} reads {info.name}[{glo}, {ghi}) "
                    f"but no happens-before-ordered write or fill "
                    f"produced those bytes"
                    + (f" ({len(gaps)} uncovered range(s) in "
                       f"[{lo}, {hi}))" if len(gaps) > 1 else ""),
                    nodes=(node,),
                ))
        return out


# ---------------------------------------------------------------------------
# Locality
# ---------------------------------------------------------------------------


def _rank_socket(machine: dict, nranks: int) -> Callable[[int], int]:
    """Rank → socket over the IR's machine-constants projection
    (:func:`~repro.machine.spec.socket_of_rank_meta`)."""
    sockets = int(machine.get("sockets", 1))
    cps = int(machine.get("cores_per_socket", 1))
    binding = str(machine.get("binding", "compact"))

    def sock(rank: int) -> int:
        return socket_of_rank_meta(rank, nranks or None, sockets=sockets,
                                   cores_per_socket=cps, binding=binding)

    return sock


class LocalityPass(Pass):
    """Cache-line false sharing and NUMA byte placement."""

    name = "locality"
    codes = ("SA-LOC-FALSESHARE", "SA-LOC-NUMA")

    def run(self, ir: ScheduleIR) -> List[Finding]:
        machine = ir.meta.get("machine")
        if not machine or int(machine.get("sockets", 1)) < 2:
            return []
        nranks = ir.nranks
        homes = self._byte_homes(ir, machine, nranks)
        out: List[Finding] = []
        out += _cap(self._false_sharing(ir, machine, nranks), self, ir,
                    "SA-LOC-FALSESHARE")
        out += self._numa(ir, machine, nranks, homes)
        return out

    def _byte_homes(self, ir: ScheduleIR, machine: dict,
                    nranks: int) -> Dict[int, bytearray]:
        """Per-byte NUMA home of every buffer: the declared home for
        private buffers, the first writer's socket (first-touch, in
        schedule order) for shared segments.  255 = never homed."""
        homes: Dict[int, bytearray] = {}
        for info in ir.buffers:
            if info.shared or info.home_socket < 0:
                homes[info.buf] = bytearray([255]) * info.nbytes
            else:
                homes[info.buf] = bytearray([info.home_socket]
                                            ) * info.nbytes
        sock_of = _rank_socket(machine, nranks)
        for n in ir.nodes:  # node order == extraction execution order
            if n.rank < 0:
                continue
            sock = sock_of(n.rank)
            for fp in n.writes:
                h = homes[fp.buf]
                lo, hi = max(fp.off, 0), min(fp.end, len(h))
                for i in range(lo, hi):
                    if h[i] == 255:
                        h[i] = sock
        return homes

    def _numa(self, ir: ScheduleIR, machine: dict, nranks: int,
              homes: Dict[int, bytearray]) -> List[Finding]:
        cross = 0
        total = 0
        sock_of = _rank_socket(machine, nranks)
        for n in ir.nodes:
            if n.rank < 0:
                continue
            sock = sock_of(n.rank)
            for fp in n.reads + n.writes:
                h = homes[fp.buf]
                lo, hi = max(fp.off, 0), min(fp.end, len(h))
                for i in range(lo, hi):
                    if h[i] == 255:
                        continue
                    total += 1
                    if h[i] != sock:
                        cross += 1
        if not total:
            return []
        fraction = cross / total
        data = {"cross_bytes": cross, "total_bytes": total,
                "fraction": round(fraction, 4),
                "threshold": NUMA_CROSS_THRESHOLD}
        if fraction <= NUMA_CROSS_THRESHOLD:
            return []
        severity = ("error" if ir.meta.get("locality") == "socket"
                    else "warning")
        contract = (" — the algorithm declares locality='socket' and "
                    "must keep its traffic socket-local"
                    if severity == "error" else "")
        return [self._finding(
            ir, "SA-LOC-NUMA", severity,
            f"{fraction:.0%} of accessed bytes ({cross} of {total}) are "
            f"homed on a remote socket (threshold "
            f"{NUMA_CROSS_THRESHOLD:.0%}); a socket-aware schedule "
            f"would stage per-socket partials first{contract}",
            data=data,
        )]

    def _false_sharing(self, ir: ScheduleIR, machine: dict,
                       nranks: int) -> List[Finding]:
        """Two ranks concurrently writing *disjoint* bytes of one cache
        line: no race, but the line ping-pongs between cores."""
        line = int(machine.get("line_size", 64))
        out: List[Finding] = []
        per_buf = _node_accesses(ir)
        for buf, accesses in per_buf.items():
            info = ir.buffers[buf]
            by_line: Dict[int, List[_Access]] = {}
            for a in accesses:
                if a[2] != "w":
                    continue
                for ln in range(a[3] // line, (a[4] - 1) // line + 1):
                    by_line.setdefault(ln, []).append(a)
            for ln, writers in sorted(by_line.items()):
                ranks = {a[1] for a in writers}
                if len(ranks) < 2:
                    continue
                reported = False
                for i, wa in enumerate(writers):
                    if reported:
                        break
                    for wb in writers[i + 1:]:
                        if wa[1] == wb[1]:
                            continue
                        # byte overlap inside the line is a race
                        # (BufferPass territory), not false sharing
                        if max(wa[3], wb[3]) < min(wa[4], wb[4]):
                            continue
                        if ir.ordered(wa[0], wb[0]):
                            continue
                        out.append(self._finding(
                            ir, "SA-LOC-FALSESHARE", "warning",
                            f"ranks {wa[1]} and {wb[1]} concurrently "
                            f"write disjoint bytes of the same "
                            f"{line}-byte cache line "
                            f"({info.name} line {ln}, bytes "
                            f"[{ln * line}, {(ln + 1) * line})) — the "
                            f"line will ping-pong between cores; pad "
                            f"or align the slices to {line} bytes",
                            nodes=(wa[0], wb[0]),
                            data={"buffer": info.name, "line": ln},
                        ))
                        reported = True
                        break
        return out


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------


class CriticalPathPass(Pass):
    """Static completion-time lower bound along the weighted DAG."""

    name = "critical-path"
    codes = ("SA-CP-BOUND", "SA-CP-INCONSISTENT")

    def run(self, ir: ScheduleIR) -> List[Finding]:
        if not ir.nodes:
            return []
        machine = ir.meta.get("machine")
        if not machine:
            return [self._finding(
                ir, "SA-CP-BOUND", "info",
                f"critical path spans {self._hops(ir)} of "
                f"{len(ir.nodes)} node(s) (no machine model attached; "
                "hop count only)",
                data={"hops": self._hops(ir)},
            )]
        cbw = float(machine["cache_bandwidth_core"])
        ovh = float(machine["op_overhead"])
        intra = float(machine["sync_latency_intra"])
        inter = float(machine.get("sync_latency_inter", intra))
        sock = _rank_socket(machine, ir.nranks)

        def pair_lat(r1: int, r2: int) -> float:
            return intra if sock(r1) == sock(r2) else inter

        finish: List[float] = [0.0] * len(ir.nodes)
        # the engine releases a wait at max(own clock, post clock +
        # pair latency): the latency rides the post->wait sync *edge*
        # (a wait whose posts landed long ago is free), while a barrier
        # completion charges the whole group its tree latency.  Both
        # latencies depend on the machine's socket topology exactly as
        # in the engine — intra-socket pairs/groups pay the cheap flag
        # latency, cross-socket ones the coherence-miss latency — so
        # the bound stays a bound without going needlessly slack on
        # 1- and 4-socket presets.
        edge_w: Dict[Tuple[int, int], float] = {
            (e.src, e.dst): pair_lat(ir.nodes[e.src].rank,
                                     ir.nodes[e.dst].rank)
            for e in ir.edges
            if e.kind == "sync" and ir.nodes[e.src].rank >= 0
            and ir.nodes[e.dst].rank >= 0
        }
        for v in ir.toposort():
            n = ir.nodes[v]
            if n.kind == "barrier":
                rounds = max(1, math.ceil(
                    math.log2(max(2, len(n.group)))))
                blat = (inter if len({sock(r) for r in n.group}) > 1
                        else intra)
                lat = 2.0 * rounds * blat
            else:
                lat = 0.0
            w = static_op_time(
                n.kind, n.nbytes, cache_bandwidth_core=cbw,
                op_overhead=ovh, sync_latency=lat,
                duration=n.duration,
            )
            best = 0.0
            for p in ir.preds()[v]:
                arrive = finish[p] + edge_w.get((p, v), 0.0)
                if arrive > best:
                    best = arrive
            finish[v] = best + w
        bound = max(finish)
        sim = float(ir.meta.get("sim_time", 0.0))
        data = {"bound": bound, "simulated": sim,
                "hops": self._hops(ir)}
        out = [self._finding(
            ir, "SA-CP-BOUND", "info",
            f"static completion-time lower bound {bound * 1e6:.2f} us"
            + (f" vs {sim * 1e6:.2f} us simulated "
               f"({sim / bound:.2f}x the bound)"
               if sim > 0 and bound > 0 else
               " (no simulated time to compare against)"),
            data=data,
        )]
        partial = ir.meta.get("deadlocked") or ir.meta.get("error")
        if sim > 0 and bound > sim * (1.0 + CP_REL_TOL) and not partial:
            out.append(self._finding(
                ir, "SA-CP-INCONSISTENT", "warning",
                f"the static lower bound ({bound * 1e6:.2f} us) exceeds "
                f"the engine-simulated time ({sim * 1e6:.2f} us) by more "
                f"than the {CP_REL_TOL:.0%} model tolerance — the timing "
                "models disagree; one of them is mis-calibrated",
                data=data,
            ))
        return out

    def _hops(self, ir: ScheduleIR) -> int:
        depth = [1] * len(ir.nodes)
        preds = ir.preds()
        for v in ir.toposort():
            for p in preds[v]:
                depth[v] = max(depth[v], depth[p] + 1)
        return max(depth, default=0)


#: the standard pipeline, in execution order
DEFAULT_PASSES: Tuple[Pass, ...] = (
    ExtractionPass(),
    DeadlockPass(),
    StaticDavPass(),
    BufferPass(),
    LocalityPass(),
    CriticalPathPass(),
)


def run_passes(ir: ScheduleIR,
               passes: Optional[Sequence[Pass]] = None) -> Report:
    """Run a pass pipeline over one IR and collect the report.

    A cyclic IR makes order-dependent passes impossible; they are
    skipped with an ``SA-IR-INVALID`` error rather than crashing the
    pipeline (the deadlock pass still reports the cycle itself).
    """
    report = Report(case=str(ir.meta.get("label", "")),
                    signature=ir.signature())
    for p in (DEFAULT_PASSES if passes is None else passes):
        try:
            report.extend(p.name, p.run(ir))
        except IRValidationError as exc:
            report.extend(p.name, [Finding(
                code="SA-IR-INVALID", severity="error",
                message=f"pass skipped: {exc}", pass_name=p.name,
                case=report.case,
            )])
    return report
