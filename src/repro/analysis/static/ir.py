"""The schedule IR: a static op-dependency DAG for one collective.

Everything the dynamic tooling re-derives by executing the engine —
happens-before order, buffer footprints, synchronization structure,
data-access volume — is a property of the *schedule shape*.  The IR
captures that shape once, as a directed acyclic graph:

* :class:`OpNode` — one engine operation (copy / reduce / touch /
  compute, or a sync: post / wait / barrier).  Data nodes carry their
  byte-range :class:`Footprint`\\ s; sync nodes carry the structured
  ``tag``/``count``/``group`` metadata.  A *pending* sync node is one
  that never released (lifted from a deadlocked run's ``blocked``
  certificate events).
* :class:`Edge` — ``po`` (program order within a rank, and barrier
  join/fan-out), or ``sync`` (a matched post → wait release).
* :class:`BufferInfo` — identity, size, sharedness, NUMA home and
  initialization state of every buffer the schedule touches.

The static passes (:mod:`repro.analysis.static.passes`) consume this
graph; the extractor (:mod:`repro.analysis.static.extract`) builds it
from one traced run or a ``repro-schedule/1`` certificate.  The IR is
also the input format the compiled-schedule engine (ROADMAP item 1)
replays without coroutine scheduling.

Serialization is schema ``repro-ir/1`` (:func:`ir_to_json` /
:func:`ir_from_json`, lossless); two IRs describe the same schedule
exactly when their serialized documents are equal.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.models.dav import op_touched_bytes
from repro.sim.replay import retuple

#: schema tag for serialized IRs
IR_SCHEMA = "repro-ir/1"

#: every schema version :func:`ir_from_json` can load
SUPPORTED_IR_SCHEMAS = (IR_SCHEMA,)

#: node kinds carrying data footprints
DATA_KINDS = ("copy", "reduce_acc", "reduce_out", "compute", "touch")

#: node kinds carrying synchronization structure
SYNC_KINDS = ("post", "wait", "barrier")


@dataclass(frozen=True)
class Footprint:
    """One byte range ``[off, off+nbytes)`` of one buffer."""

    buf: int  # index into ScheduleIR.buffers
    off: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.off + self.nbytes


@dataclass(frozen=True)
class BufferInfo:
    """Identity and placement of one buffer the schedule touches.

    ``initialized`` records whether the allocation produced defined
    contents (a fill or random payload); reads of never-written bytes
    of an uninitialized buffer are what the uninit-read pass flags.
    ``home_socket`` is the declared NUMA home (``None`` for shared
    segments, which are first-touch homed — the locality pass derives
    per-range homes from the first writer).
    """

    buf: int
    name: str
    nbytes: int
    shared: bool = False
    owner: int = -1
    home_socket: int = -1
    initialized: bool = False


@dataclass(frozen=True)
class OpNode:
    """One operation of the schedule.

    ``rank`` is ``-1`` for barrier join nodes (they belong to every
    member of ``group``).  ``t_start``/``t_end`` carry the extraction
    run's simulated interval when a machine model was attached (all
    zero otherwise); static passes must not depend on them for
    correctness conclusions, only for reporting.
    """

    node: int
    rank: int
    kind: str
    nbytes: int = 0
    nt: bool = False
    reads: Tuple[Footprint, ...] = ()
    writes: Tuple[Footprint, ...] = ()
    tag: object = None
    count: int = 0
    group: Tuple[int, ...] = ()
    arrived: Tuple[int, ...] = ()
    pending: bool = False
    t_start: float = 0.0
    t_end: float = 0.0

    @property
    def is_sync(self) -> bool:
        return self.kind in SYNC_KINDS

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def describe(self) -> str:
        if self.kind == "barrier":
            state = " PENDING" if self.pending else ""
            return f"#{self.node} barrier{self.group}{state}"
        if self.kind in ("post", "wait"):
            arg = f"{self.tag!r}"
            if self.kind == "wait":
                arg += f", count={self.count}"
            state = " PENDING" if self.pending else ""
            return f"#{self.node} rank {self.rank} {self.kind}({arg}){state}"
        return (f"#{self.node} rank {self.rank} {self.kind} "
                f"{self.nbytes} B")


@dataclass(frozen=True)
class Edge:
    """A dependency: ``src`` must complete before ``dst`` starts.

    ``kind`` is ``"po"`` (program order, including barrier join and
    fan-out edges) or ``"sync"`` (a matched post → wait release).
    """

    src: int
    dst: int
    kind: str = "po"


class IRValidationError(ValueError):
    """The IR is structurally broken (dangling refs, bad ranges)."""


class IRSchemaError(ValueError):
    """A serialized IR's schema version is missing or unsupported.

    The IR analogue of :class:`repro.sim.compiled.ScheduleSchemaError`:
    loading a document written by a future (or corrupted) version must
    fail up front naming the supported versions, not crash downstream
    with an opaque field error.
    """


class ScheduleIR:
    """The static op-dependency DAG of one collective schedule.

    ``meta`` is a JSON-safe dict; the extractor populates (at least)
    ``label``, ``collective``, ``kind``, ``dav_algorithm``, ``nranks``,
    ``s``, ``m``, ``k``, ``machine`` (a constants sub-dict or ``None``),
    ``sim_time``, ``deadlocked``, ``error`` and ``counters`` (the
    ``repro-obs/1`` snapshot of the extraction run).
    """

    def __init__(self, *, meta: Optional[dict] = None,
                 buffers: Iterable[BufferInfo] = (),
                 nodes: Iterable[OpNode] = (),
                 edges: Iterable[Edge] = ()):
        self.meta: dict = dict(meta or {})
        self.buffers: List[BufferInfo] = list(buffers)
        self.nodes: List[OpNode] = list(nodes)
        self.edges: List[Edge] = list(edges)
        self._succs: Optional[List[List[int]]] = None
        self._preds: Optional[List[List[int]]] = None
        self._topo: Optional[List[int]] = None
        self._ancestors: Optional[List[int]] = None

    # ---- structure ---------------------------------------------------

    @property
    def nranks(self) -> int:
        return int(self.meta.get("nranks", 0))

    def __len__(self) -> int:
        return len(self.nodes)

    def _invalidate(self) -> None:
        self._succs = self._preds = None
        self._topo = self._ancestors = None

    def add_node(self, node: OpNode) -> int:
        self.nodes.append(node)
        # bulk construction (the trace extractor adds tens of
        # thousands of nodes) never materializes the caches, so only
        # invalidate when something was actually derived
        if self._succs is not None or self._topo is not None:
            self._invalidate()
        return node.node

    def add_edge(self, src: int, dst: int, kind: str = "po") -> None:
        self.edges.append(Edge(src, dst, kind))
        if self._succs is not None or self._topo is not None:
            self._invalidate()

    def succs(self) -> List[List[int]]:
        if self._succs is None:
            self._succs = [[] for _ in self.nodes]
            self._preds = [[] for _ in self.nodes]
            for e in self.edges:
                self._succs[e.src].append(e.dst)
                self._preds[e.dst].append(e.src)
        return self._succs

    def preds(self) -> List[List[int]]:
        self.succs()
        assert self._preds is not None
        return self._preds

    def by_kind(self, kind: str) -> List[OpNode]:
        return [n for n in self.nodes if n.kind == kind]

    def validate(self) -> None:
        """Structural checks: ids dense and in order, edge endpoints
        and footprint buffers resolvable.  Footprint *ranges* are a
        pass concern (a hand-built IR with an out-of-range footprint
        must load so the bounds pass can flag it)."""
        for i, n in enumerate(self.nodes):
            if n.node != i:
                raise IRValidationError(
                    f"node ids must be dense and ordered: position {i} "
                    f"holds node {n.node}"
                )
            for fp in n.reads + n.writes:
                if not (0 <= fp.buf < len(self.buffers)):
                    raise IRValidationError(
                        f"node #{i} references unknown buffer {fp.buf}"
                    )
        nn = len(self.nodes)
        for e in self.edges:
            if not (0 <= e.src < nn and 0 <= e.dst < nn):
                raise IRValidationError(
                    f"edge {e.src}->{e.dst} references unknown nodes"
                )

    # ---- order -------------------------------------------------------

    def find_cycle(self) -> Optional[List[int]]:
        """A dependency cycle (node ids, in order), or ``None``.

        A schedule whose dependency graph has a cycle can never
        complete — the static form of a deadlock.
        """
        succs = self.succs()
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * len(self.nodes)
        parent: Dict[int, int] = {}
        for root in range(len(self.nodes)):
            if color[root] != WHITE:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            color[root] = GREY
            while stack:
                v, i = stack[-1]
                if i < len(succs[v]):
                    stack[-1] = (v, i + 1)
                    w = succs[v][i]
                    if color[w] == GREY:
                        cycle = [w, v]
                        u = v
                        while u != w:
                            u = parent[u]
                            cycle.append(u)
                        cycle.reverse()
                        return cycle[:-1]
                    if color[w] == WHITE:
                        color[w] = GREY
                        parent[w] = v
                        stack.append((w, 0))
                else:
                    color[v] = BLACK
                    stack.pop()
        return None

    def toposort(self) -> List[int]:
        """Topological node order; raises on cyclic IRs."""
        if self._topo is None:
            indeg = [0] * len(self.nodes)
            succs = self.succs()
            for e in self.edges:
                indeg[e.dst] += 1
            ready = sorted(i for i, d in enumerate(indeg) if d == 0)
            out: List[int] = []
            import heapq

            heapq.heapify(ready)
            while ready:
                v = heapq.heappop(ready)
                out.append(v)
                for w in succs[v]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        heapq.heappush(ready, w)
            if len(out) != len(self.nodes):
                cycle = self.find_cycle() or []
                raise IRValidationError(
                    f"schedule IR has a dependency cycle: "
                    f"{' -> '.join(str(n) for n in cycle)}"
                )
            self._topo = out
        return self._topo

    def ancestors(self) -> List[int]:
        """Per-node ancestor sets as bitmasks: bit ``a`` of
        ``ancestors()[b]`` means ``a`` happens-before ``b``.

        This is the static happens-before relation: the transitive
        closure of program-order and sync edges.
        """
        if self._ancestors is None:
            anc = [0] * len(self.nodes)
            preds = self.preds()
            for v in self.toposort():
                acc = 0
                for p in preds[v]:
                    acc |= anc[p] | (1 << p)
                anc[v] = acc
            self._ancestors = anc
        return self._ancestors

    def happens_before(self, a: int, b: int) -> bool:
        return bool(self.ancestors()[b] >> a & 1)

    def ordered(self, a: int, b: int) -> bool:
        """True iff some dependency path orders ``a`` and ``b``."""
        return self.happens_before(a, b) or self.happens_before(b, a)

    # ---- accounting ---------------------------------------------------

    def static_dav(self) -> float:
        """Theorem 3.1 accounting over the DAG
        (:func:`repro.models.dav.op_touched_bytes` summed) —
        byte-identical to the obs counters' ``trace_dav`` on the source
        trace."""
        return float(sum(op_touched_bytes(n.kind, n.nbytes)
                         for n in self.nodes))

    def signature(self) -> dict:
        """Stable shape summary, used by the golden-IR snapshot tests.

        Deliberately machine- and timing-free: node/edge census per
        kind, per-rank data-op counts, sync structure and the static
        DAV.  Any schedule regression (reordered, missing, resized or
        duplicated operation) changes it; timing-constant or machine
        changes do not.
        """
        node_kinds: Dict[str, int] = {}
        per_rank: Dict[str, int] = {}
        for n in self.nodes:
            node_kinds[n.kind] = node_kinds.get(n.kind, 0) + 1
            if n.kind in DATA_KINDS:
                key = str(n.rank)
                per_rank[key] = per_rank.get(key, 0) + 1
        edge_kinds: Dict[str, int] = {}
        for e in self.edges:
            edge_kinds[e.kind] = edge_kinds.get(e.kind, 0) + 1
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "node_kinds": dict(sorted(node_kinds.items())),
            "edge_kinds": dict(sorted(edge_kinds.items())),
            "data_ops_per_rank": dict(sorted(per_rank.items())),
            "buffers": len(self.buffers),
            "pending": sum(1 for n in self.nodes if n.pending),
            "static_dav": self.static_dav(),
        }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

#: fields whose values are (possibly nested) tuples — JSON turns them
#: into lists, so loading re-tuples them
_NODE_TUPLE_FIELDS = ("tag", "group", "arrived")


def _to_payload(ir: ScheduleIR) -> dict:
    def node_dict(n: OpNode) -> dict:
        d = asdict(n)
        d["reads"] = [[fp.buf, fp.off, fp.nbytes] for fp in n.reads]
        d["writes"] = [[fp.buf, fp.off, fp.nbytes] for fp in n.writes]
        d["group"] = list(n.group)
        d["arrived"] = list(n.arrived)
        return d

    return {
        "meta": ir.meta,
        "buffers": [asdict(b) for b in ir.buffers],
        "nodes": [node_dict(n) for n in ir.nodes],
        "edges": [[e.src, e.dst, e.kind] for e in ir.edges],
    }


def ir_to_json(ir: ScheduleIR, *, indent: Optional[int] = None) -> str:
    """Serialize an IR (schema ``repro-ir/1``)."""
    payload = {"schema": IR_SCHEMA, **_to_payload(ir)}
    return json.dumps(payload, indent=indent, sort_keys=True)


def ir_from_json(text: str) -> ScheduleIR:
    """Parse an IR serialized by :func:`ir_to_json`.

    Unknown schema versions are rejected up front with an
    :class:`IRSchemaError` naming the supported versions; malformed
    JSON raises :class:`IRSchemaError` too (the document is not an IR
    at any version).
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise IRSchemaError(
            f"schedule-IR document is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise IRSchemaError(
            "schedule-IR document must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema not in SUPPORTED_IR_SCHEMAS:
        raise IRSchemaError(
            f"unsupported schedule-IR schema {schema!r}; supported "
            f"versions: {', '.join(SUPPORTED_IR_SCHEMAS)}"
        )
    known_node = {f for f in OpNode.__dataclass_fields__}
    nodes = []
    for nd in payload.get("nodes", ()):
        unknown = set(nd) - known_node
        if unknown:
            raise ValueError(f"unknown IR node fields {sorted(unknown)}")
        nd = dict(nd)
        nd["reads"] = tuple(Footprint(*fp) for fp in nd.get("reads", ()))
        nd["writes"] = tuple(Footprint(*fp) for fp in nd.get("writes", ()))
        for f in _NODE_TUPLE_FIELDS:
            if f in nd:
                nd[f] = retuple(nd[f])
        nodes.append(OpNode(**nd))
    buffers = [BufferInfo(**b) for b in payload.get("buffers", ())]
    edges = [Edge(src, dst, kind) for src, dst, kind
             in payload.get("edges", ())]
    ir = ScheduleIR(meta=payload.get("meta", {}), buffers=buffers,
                    nodes=nodes, edges=edges)
    ir.validate()
    return ir
