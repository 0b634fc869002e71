"""Chrome trace-event / Perfetto JSON export of engine traces.

Produces the JSON Object Format of the Trace Event spec — loadable in
``chrome://tracing`` and https://ui.perfetto.dev — from a
:class:`~repro.sim.trace.Trace`:

* one **track per rank** (``pid 0`` = the node, ``tid r`` = rank ``r``)
  with a complete-event (``ph: "X"``) slice per data operation and per
  wait/barrier stall, and an instant event per flag post;
* **nested phase slices** from :class:`~repro.sim.trace.SpanRecord`
  labels (the ``ctx.span("...")`` API) on the same rank track, so a
  timeline shows *why* time went where (MA's reduce wavefront vs its
  copy-out phase);
* **flow arrows** (``ph: "s"``/``"f"``) from each post to the waits it
  released, read from each wait record's ``matched`` post indices —
  the cross-rank happens-before edges, drawn (a post's record index is
  its arrows' ``id``);
* **counter tracks** (``ph: "C"``) of cumulative copy / NT-copy /
  reduce bytes over simulated time.

Simulated seconds map to trace microseconds.  The exported document
embeds the :mod:`repro.obs.counters` snapshot under
``otherData.counters`` so a trace file is self-describing; the
structure is checked field-by-field by :func:`validate_chrome_trace`
(also the CI ``obs-smoke`` gate).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Optional

from repro.sim.trace import Trace

SCHEMA = "repro-trace-event/1"

#: simulated seconds -> trace-event microseconds
_US = 1e6

#: required keys per event phase, beyond pid/tid (checked by the
#: validator; "M" metadata events omit ts entirely)
_PHASE_KEYS = {
    "X": ("name", "ts", "dur"),
    "M": ("name", "args"),
    "C": ("name", "ts", "args"),
    "s": ("name", "cat", "id", "ts"),
    "f": ("name", "cat", "id", "ts"),
    "i": ("name", "ts", "s"),
}


def _meta(name: str, args: dict, *, pid: int = 0,
          tid: Optional[int] = None) -> dict:
    ev = {"ph": "M", "pid": pid, "name": name, "args": args}
    if tid is not None:
        ev["tid"] = tid
    return ev


def _slice(name: str, cat: str, rank: int, t0: float, t1: float,
           args: dict) -> dict:
    return {
        "ph": "X",
        "pid": 0,
        "tid": rank,
        "name": name,
        "cat": cat,
        "ts": t0 * _US,
        "dur": max(0.0, (t1 - t0) * _US),
        "args": args,
    }


def chrome_trace(trace: Trace, *, counters: Optional[dict] = None,
                 label: str = "") -> dict:
    """Render ``trace`` as a Chrome trace-event JSON document (dict)."""
    events: List[dict] = [_meta("process_name", {"name": "node"})]
    ranks = sorted({r.rank for r in trace.records}
                   | {s.rank for s in trace.spans})
    for rank in ranks:
        events.append(_meta("thread_name", {"name": f"rank {rank}"},
                            tid=rank))
        events.append(_meta("thread_sort_index", {"sort_index": rank},
                            tid=rank))

    # Phase spans first: at equal ts the earlier event nests outside.
    for span in trace.spans:
        events.append(_slice(span.name, "phase", span.rank,
                             span.t_start, span.t_end, {}))

    cum = {"copy_bytes": 0, "nt_copy_bytes": 0, "reduce_bytes": 0}
    counter_samples: List[dict] = []
    for rec in trace.records:
        if rec.kind == "copy":
            name = "copy (nt)" if rec.nt else "copy"
            args = {"nbytes": rec.nbytes, "src": rec.src, "dst": rec.dst,
                    "policy": rec.policy}
            events.append(_slice(name, "data", rec.rank, rec.t_start,
                                 rec.t_end, args))
            cum["copy_bytes"] += rec.nbytes
            if rec.nt:
                cum["nt_copy_bytes"] += rec.nbytes
        elif rec.kind.startswith("reduce"):
            args = {"nbytes": rec.nbytes, "src": rec.src, "dst": rec.dst}
            events.append(_slice(rec.kind, "data", rec.rank, rec.t_start,
                                 rec.t_end, args))
            cum["reduce_bytes"] += rec.nbytes
        elif rec.kind in ("compute", "touch"):
            events.append(_slice(rec.kind, "data", rec.rank, rec.t_start,
                                 rec.t_end, {"nbytes": rec.nbytes}))
        elif rec.kind == "wait":
            events.append(_slice("wait", "sync", rec.rank, rec.t_start,
                                 rec.t_end,
                                 {"tag": repr(rec.tag),
                                  "count": rec.count}))
        elif rec.kind == "barrier":
            events.append(_slice("barrier", "sync", rec.rank, rec.t_start,
                                 rec.t_end, {"group": list(rec.group)}))
        elif rec.kind == "post":
            events.append({
                "ph": "i", "pid": 0, "tid": rec.rank, "name": "post",
                "cat": "sync", "ts": rec.t_start * _US, "s": "t",
                "args": {"tag": repr(rec.tag)},
            })
        else:  # future kinds export generically rather than vanish
            events.append(_slice(rec.kind, "data", rec.rank, rec.t_start,
                                 rec.t_end, {"nbytes": rec.nbytes}))
        if rec.kind == "copy" or rec.kind.startswith("reduce"):
            counter_samples.append({
                "ph": "C", "pid": 0, "name": "bytes moved",
                "ts": rec.t_end * _US, "args": dict(cum),
            })
    events.extend(counter_samples)
    events.extend(_flow_events(trace))

    other: dict = {"schema": SCHEMA}
    if label:
        other["collective"] = label
    if counters is not None:
        other["counters"] = counters
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def _flow_events(trace: Trace) -> List[dict]:
    """Post -> wait flow arrows: each wait record's ``matched`` names
    the post records that released it."""
    records = trace.records
    out: List[dict] = []
    for rec in trace.by_kind("wait"):
        for j in rec.matched:
            post = records[j]
            out.append({
                "ph": "s", "pid": 0, "tid": post.rank, "name": "sync",
                "cat": "flow", "id": j, "ts": post.t_start * _US,
            })
            out.append({
                "ph": "f", "pid": 0, "tid": rec.rank, "name": "sync",
                "cat": "flow", "id": j, "ts": rec.t_end * _US,
                "bp": "e",
            })
    return out


def write_chrome_trace(trace: Trace, path, *,
                       counters: Optional[dict] = None,
                       label: str = "") -> Path:
    """Export ``trace`` to ``path`` as validated trace-event JSON."""
    doc = chrome_trace(trace, counters=counters, label=label)
    validate_chrome_trace(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path


def validate_chrome_trace(doc: dict) -> dict:
    """Field-by-field schema check of a trace-event document.

    Raises :class:`ValueError` naming the first offending event;
    returns ``{phase: count}`` on success (handy for tests).
    """
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    counts: dict = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where}: event must be an object")
        ph = ev.get("ph")
        if ph not in _PHASE_KEYS:
            raise ValueError(f"{where}: unknown phase {ph!r}")
        if not isinstance(ev.get("pid"), int):
            raise ValueError(f"{where}: pid must be an int")
        if ph != "M" and not isinstance(ev.get("tid", 0), int):
            raise ValueError(f"{where}: tid must be an int")
        for key in _PHASE_KEYS[ph]:
            if key not in ev:
                raise ValueError(f"{where}: phase {ph!r} requires {key!r}")
        for key in ("ts", "dur"):
            if key in ev:
                v = ev[key]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    raise ValueError(f"{where}: {key} must be finite")
        if ph == "X" and ev["dur"] < 0:
            raise ValueError(f"{where}: negative duration")
        if ph == "C":
            for k, v in ev["args"].items():
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    raise ValueError(
                        f"{where}: counter {k!r} must be numeric"
                    )
        counts[ph] = counts.get(ph, 0) + 1
    return counts
