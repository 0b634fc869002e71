"""Symbolic-size schedules: certify decision-guard regions exactly.

Size-polymorphic replay keys one captured schedule per *decision
region* (:func:`repro.models.nt_model.decision_guards`) and serves
other sizes from it — sound only if the schedule *shape* really is
invariant across every size the region claims.  This module turns
that assumption into a checked certificate.

The abstract domain is **piecewise-affine in the message size** ``s``:
inside one guard region, restricted to one residue class of
``s mod region_modulus(p, machine)``, every op byte count, footprint
offset/length and buffer extent the engine produces is an *exact*
affine function ``a*s + b`` (the partition/slice arithmetic is integer
division by region-constant divisors, and the modulus clears every
remainder).  Two concrete captures therefore determine each
coefficient over the rationals (:class:`Affine` holds
:class:`fractions.Fraction`\\ s — no float rounding anywhere), and a
third capture *tests* the theory.

Certification of a region (:func:`certify_region`):

* **unification** (:func:`unify`) — every capture must have the same
  op-DAG skeleton (kinds, ranks, tags, sync edges, footprint
  structure); a mismatch is ``SA-SYM-SHAPE``, the proof that the
  region's guards were incomplete;
* **exactness** (:class:`SymbolicExactnessPass`) — the symbolic
  schedule instantiated at every capture's size (anchors *and*
  held-out validation sizes) reproduces the capture bitwise
  (``SA-SYM-EXACT``);
* **DAV identity** (:class:`SymbolicDavPass`) — the symbolic Theorem
  3.1 volume is itself affine; it must equal the closed form of
  :mod:`repro.models.dav` as a *polynomial identity* — coefficient by
  coefficient, not size by size (``SA-SYM-DAV``);
* **interval soundness** (:class:`SymbolicBoundsPass`) — an affine
  function attains its extrema at interval endpoints, so footprint
  bounds checked at both region edges hold for every congruent size
  between them; the relational lints (overlap, uninit reads) compare
  boundary affines, whose pairwise orderings only change at their
  rational crossing points — enumerating the crossings inside the
  interval yields crossing-free segments on which every verdict is
  provably constant, and one concrete lint per segment (plus both
  edges) covers all congruent sizes (``SA-SYM-VARY`` when a segment's
  verdict differs from the edges');
* **guard partition** (:func:`check_guard_partition`) — over the
  swept size range the guards must be exhaustive (every size evaluates
  to a region) and exclusive-as-intervals (a region never reappears
  after a different one on the sorted sweep) (``SA-SYM-GUARD``).

A certified region serializes as schema ``repro-symcert/1`` and rides
the compiled-schedule cache: ``bench --compiled --poly`` replays
in-span cells with engine-exact per-op byte counts and exact DAV
(durations stay model-derived); a refused region or an out-of-span
size replays its own exact capture instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.static.ir import (
    BufferInfo,
    Edge,
    Footprint,
    OpNode,
    ScheduleIR,
)
from repro.analysis.static.passes import BufferPass, Pass, _cap
from repro.analysis.static.report import Finding, Report
from repro.machine.spec import MachineSpec
from repro.models.dav import (
    REL_TOL,
    op_touch_factor,
    predicted_dav,
    table_row,
)
from repro.models.nt_model import decision_guards, region_modulus
from repro.sim.replay import retuple

#: schema tag for serialized region certificates
SYMCERT_SCHEMA = "repro-symcert/1"

#: every schema version :func:`SymbolicSchedule.from_doc` can load
SUPPORTED_SYMCERT_SCHEMAS = (SYMCERT_SCHEMA,)

#: held-out engine captures a certification validates against, beyond
#: the two anchors the affine coefficients are fitted from
DEFAULT_VALIDATE = 3

#: how far partner probing walks (in region-modulus steps) looking for
#: guard-equal sizes around a base size
PROBE_KMAX = 64


class SymbolicError(ValueError):
    """A symbolic operation failed; ``code`` names the SA-SYM-* class."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# The affine domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """``a*s + b`` over the rationals — one symbolic byte quantity.

    Exact by construction: coefficients are
    :class:`fractions.Fraction`, evaluation at integer sizes either
    yields an integer or refuses (:meth:`at`), and two point fits
    (:meth:`fit`) invert exactly.
    """

    a: Fraction
    b: Fraction

    @classmethod
    def const(cls, value: int) -> "Affine":
        return cls(Fraction(0), Fraction(value))

    @classmethod
    def fit(cls, s0: int, v0, s1: int, v1) -> "Affine":
        """The unique affine through ``(s0, v0)`` and ``(s1, v1)``."""
        if s0 == s1:
            raise SymbolicError(
                "SA-SYM-SHAPE",
                f"cannot fit an affine from two captures at one size {s0}",
            )
        a = Fraction(v1) - Fraction(v0)
        a /= s1 - s0
        return cls(a, Fraction(v0) - a * s0)

    def __call__(self, s: int) -> Fraction:
        return self.a * s + self.b

    def at(self, s: int) -> int:
        """Exact integer value at size ``s``; non-integral values are a
        certification failure, never rounded."""
        v = self(s)
        if v.denominator != 1:
            raise SymbolicError(
                "SA-SYM-EXACT",
                f"symbolic value {self.describe()} is non-integral "
                f"({v}) at s={s}",
            )
        return int(v)

    @property
    def is_const(self) -> bool:
        return self.a == 0

    def describe(self) -> str:
        if self.a == 0:
            return str(self.b)
        term = "s" if self.a == 1 else f"{self.a}*s"
        if self.b == 0:
            return term
        sign = "+" if self.b > 0 else "-"
        return f"{term} {sign} {abs(self.b)}"

    def to_json(self) -> list:
        return [[self.a.numerator, self.a.denominator],
                [self.b.numerator, self.b.denominator]]

    @classmethod
    def from_json(cls, doc: Sequence) -> "Affine":
        (an, ad), (bn, bd) = doc
        return cls(Fraction(an, ad), Fraction(bn, bd))


@dataclass(frozen=True)
class SymbolicFootprint:
    """One byte range with symbolic offset and length."""

    buf: int
    off: Affine
    nbytes: Affine

    def at(self, s: int) -> Footprint:
        return Footprint(self.buf, self.off.at(s), self.nbytes.at(s))


# ---------------------------------------------------------------------------
# The symbolic schedule
# ---------------------------------------------------------------------------

#: OpNode fields that define the size-invariant skeleton of a node
_SHAPE_FIELDS = ("rank", "kind", "nt", "tag", "count", "group",
                 "arrived", "pending")

#: BufferInfo fields that must be size-invariant (extent is symbolic)
_BUFFER_SHAPE_FIELDS = ("name", "shared", "owner", "home_socket",
                        "initialized")


@dataclass(frozen=True)
class SymbolicOp:
    """One op with its skeleton pinned and its bytes symbolic."""

    node: int
    shape: dict  # _SHAPE_FIELDS -> concrete values
    nbytes: Affine
    reads: Tuple[SymbolicFootprint, ...]
    writes: Tuple[SymbolicFootprint, ...]

    def at(self, s: int) -> OpNode:
        return OpNode(
            node=self.node,
            nbytes=self.nbytes.at(s),
            reads=tuple(fp.at(s) for fp in self.reads),
            writes=tuple(fp.at(s) for fp in self.writes),
            **self.shape,
        )


@dataclass(frozen=True)
class SymbolicBuffer:
    """One buffer with symbolic extent."""

    buf: int
    shape: dict  # _BUFFER_SHAPE_FIELDS -> concrete values
    nbytes: Affine

    def at(self, s: int) -> BufferInfo:
        return BufferInfo(buf=self.buf, nbytes=self.nbytes.at(s),
                          **self.shape)


class SymbolicSchedule:
    """One decision region's schedule as a function of ``s``.

    Valid for every size ``s`` with ``s % modulus == residue`` whose
    decision guards equal ``guards``; the certified (endpoint-checked)
    span is ``[lo, hi]``.  ``anchors`` are the two sizes the affine
    coefficients were fitted from, ``validated`` the held-out sizes a
    fresh engine capture was compared against.
    """

    def __init__(self, *, meta: dict, guards: dict, modulus: int,
                 residue: int, lo: int, hi: int,
                 anchors: Tuple[int, int],
                 validated: Tuple[int, ...] = (),
                 buffers: Sequence[SymbolicBuffer] = (),
                 nodes: Sequence[SymbolicOp] = (),
                 edges: Sequence[Edge] = ()):
        self.meta = dict(meta)
        self.guards = dict(guards)
        self.modulus = int(modulus)
        self.residue = int(residue)
        self.lo = int(lo)
        self.hi = int(hi)
        self.anchors = (int(anchors[0]), int(anchors[1]))
        self.validated = tuple(int(v) for v in validated)
        self.buffers = list(buffers)
        self.nodes = list(nodes)
        self.edges = list(edges)
        self._topo: Optional[List[int]] = None

    # ---- instantiation ----------------------------------------------

    def covers(self, s: int) -> bool:
        """Is ``s`` in the residue class this certificate is exact on?
        (Guard equality is the caller's key discipline; the congruence
        is the extra condition affinity needs.)"""
        return s > 0 and s % self.modulus == self.residue

    def instantiate(self, s: int) -> ScheduleIR:
        """The concrete ``repro-ir/1`` schedule at size ``s``.

        Refuses sizes outside the certificate's residue class — the
        affine interpolation is only proven there."""
        if not self.covers(s):
            raise SymbolicError(
                "SA-SYM-RANGE",
                f"size {s} is outside the certified residue class "
                f"(s % {self.modulus} == {self.residue})",
            )
        meta = dict(self.meta)
        meta["s"] = s
        meta["symbolic"] = True
        ir = ScheduleIR(
            meta=meta,
            buffers=[b.at(s) for b in self.buffers],
            nodes=[n.at(s) for n in self.nodes],
            edges=list(self.edges),
        )
        ir.validate()
        return ir

    def op_nbytes(self, s: int) -> List[int]:
        """Exact per-op byte counts at ``s``, in IR node order."""
        return [n.nbytes.at(s) for n in self.nodes]

    def compiled_nbytes(self, s: int) -> List[int]:
        """Exact per-op byte counts at ``s`` in *compiled* order — the
        toposort renumbering :func:`repro.sim.compiled.lower` applies,
        so the list aligns index-for-index with
        ``CompiledSchedule.nbytes``."""
        if self._topo is None:
            skeleton = ScheduleIR(
                meta={"nranks": self.meta.get("nranks", 0)},
                buffers=[b.at(self.lo) for b in self.buffers],
                nodes=[n.at(self.lo) for n in self.nodes],
                edges=list(self.edges),
            )
            self._topo = skeleton.toposort()
        per_node = self.op_nbytes(s)
        return [per_node[v] for v in self._topo]

    # ---- accounting --------------------------------------------------

    def dav(self) -> Affine:
        """Theorem 3.1 accounting as a symbolic polynomial:
        :func:`repro.models.dav.op_touch_factor` times each op's bytes,
        summed over the DAG."""
        a = Fraction(0)
        b = Fraction(0)
        for n in self.nodes:
            w = op_touch_factor(n.shape["kind"])
            if w:  # sync ops move no bytes; skip their Fraction math
                a += w * n.nbytes.a
                b += w * n.nbytes.b
        return Affine(a, b)

    def signature(self) -> dict:
        """Stable shape summary for the golden symbolic-schedule tests:
        the op/edge census, the symbolic DAV polynomial and how many
        quantities actually vary with ``s``.  Machine- and timing-free
        like :meth:`ScheduleIR.signature`."""
        node_kinds: Dict[str, int] = {}
        var_ops = 0
        var_fps = 0
        for n in self.nodes:
            kind = n.shape["kind"]
            node_kinds[kind] = node_kinds.get(kind, 0) + 1
            if not n.nbytes.is_const:
                var_ops += 1
            for fp in n.reads + n.writes:
                if not (fp.off.is_const and fp.nbytes.is_const):
                    var_fps += 1
        edge_kinds: Dict[str, int] = {}
        for e in self.edges:
            edge_kinds[e.kind] = edge_kinds.get(e.kind, 0) + 1
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "node_kinds": dict(sorted(node_kinds.items())),
            "edge_kinds": dict(sorted(edge_kinds.items())),
            "buffers": len(self.buffers),
            "dav": self.dav().describe(),
            "variable_ops": var_ops,
            "variable_footprints": var_fps,
            "variable_buffers": sum(
                1 for b in self.buffers if not b.nbytes.is_const),
            "modulus": self.modulus,
        }

    # ---- serialization ----------------------------------------------

    def to_doc(self) -> dict:
        """JSON-safe certificate document (schema ``repro-symcert/1``)."""
        return {
            "schema": SYMCERT_SCHEMA,
            "meta": self.meta,
            "guards": self.guards,
            "modulus": self.modulus,
            "residue": self.residue,
            "lo": self.lo,
            "hi": self.hi,
            "anchors": list(self.anchors),
            "validated": list(self.validated),
            "dav": self.dav().to_json(),
            "buffers": [
                {"buf": b.buf, "nbytes": b.nbytes.to_json(), **b.shape}
                for b in self.buffers
            ],
            "nodes": [
                {
                    "node": n.node,
                    "nbytes": n.nbytes.to_json(),
                    "reads": [[fp.buf, fp.off.to_json(),
                               fp.nbytes.to_json()] for fp in n.reads],
                    "writes": [[fp.buf, fp.off.to_json(),
                                fp.nbytes.to_json()] for fp in n.writes],
                    **{f: _jsonable(n.shape[f]) for f in _SHAPE_FIELDS},
                }
                for n in self.nodes
            ],
            "edges": [[e.src, e.dst, e.kind] for e in self.edges],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "SymbolicSchedule":
        """Load a certificate; unsupported schemas are rejected up
        front naming the supported versions (the ``ScheduleSchemaError``
        discipline)."""
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema not in SUPPORTED_SYMCERT_SCHEMAS:
            raise SymbolicError(
                "SA-SYM-SCHEMA",
                f"unsupported symbolic-certificate schema {schema!r}; "
                f"supported versions: "
                f"{', '.join(SUPPORTED_SYMCERT_SCHEMAS)}",
            )
        buffers = [
            SymbolicBuffer(
                buf=int(b["buf"]),
                nbytes=Affine.from_json(b["nbytes"]),
                shape={f: b[f] for f in _BUFFER_SHAPE_FIELDS},
            )
            for b in doc.get("buffers", ())
        ]
        nodes = []
        for nd in doc.get("nodes", ()):
            shape = {f: retuple(nd[f]) for f in _SHAPE_FIELDS}
            nodes.append(SymbolicOp(
                node=int(nd["node"]),
                nbytes=Affine.from_json(nd["nbytes"]),
                reads=tuple(
                    SymbolicFootprint(buf, Affine.from_json(off),
                                      Affine.from_json(nb))
                    for buf, off, nb in nd.get("reads", ())),
                writes=tuple(
                    SymbolicFootprint(buf, Affine.from_json(off),
                                      Affine.from_json(nb))
                    for buf, off, nb in nd.get("writes", ())),
                shape=shape,
            ))
        edges = [Edge(src, dst, kind) for src, dst, kind
                 in doc.get("edges", ())]
        return cls(
            meta=doc.get("meta", {}), guards=doc.get("guards", {}),
            modulus=doc["modulus"], residue=doc["residue"],
            lo=doc["lo"], hi=doc["hi"],
            anchors=tuple(doc["anchors"]),  # type: ignore[arg-type]
            validated=tuple(doc.get("validated", ())),
            buffers=buffers, nodes=nodes, edges=edges,
        )


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Structural unification
# ---------------------------------------------------------------------------


def _node_skeleton(n: OpNode) -> tuple:
    return (
        tuple(getattr(n, f) for f in _SHAPE_FIELDS),
        tuple(fp.buf for fp in n.reads),
        tuple(fp.buf for fp in n.writes),
    )


def _skeleton_mismatch(a: ScheduleIR, b: ScheduleIR) -> Optional[str]:
    """First structural difference between two captures, or ``None``."""
    if len(a.nodes) != len(b.nodes):
        return (f"op count differs: {len(a.nodes)} vs {len(b.nodes)} "
                "nodes — the region's guards do not pin the DAG shape")
    if len(a.buffers) != len(b.buffers):
        return f"buffer count differs: {len(a.buffers)} vs {len(b.buffers)}"
    for na, nb in zip(a.nodes, b.nodes):
        if _node_skeleton(na) != _node_skeleton(nb):
            return (f"node #{na.node} differs structurally: "
                    f"{na.describe()} vs {nb.describe()}")
    for ba, bb in zip(a.buffers, b.buffers):
        for f in _BUFFER_SHAPE_FIELDS:
            if getattr(ba, f) != getattr(bb, f):
                return (f"buffer {ba.buf} ({ba.name!r}) differs on "
                        f"{f}: {getattr(ba, f)!r} vs {getattr(bb, f)!r}")
    ea = sorted((e.src, e.dst, e.kind) for e in a.edges)
    eb = sorted((e.src, e.dst, e.kind) for e in b.edges)
    if ea != eb:
        extra = set(ea) ^ set(eb)
        sample = sorted(extra)[:4]
        return (f"dependency edges differ ({len(extra)} edge(s) not "
                f"shared, e.g. {sample})")
    return None


def unify(captures: Sequence[Tuple[int, ScheduleIR]], *,
          modulus: int, guards: Optional[dict] = None) -> SymbolicSchedule:
    """Lift concrete captures from one region into a symbolic schedule.

    Requires at least two distinct sizes, all congruent modulo
    ``modulus``.  Every capture must share the op-DAG skeleton —
    a mismatch raises :class:`SymbolicError` with code
    ``SA-SYM-SHAPE``.  The affine coefficients are fitted from the two
    *extreme* sizes; intermediate captures are left for the exactness
    pass to validate (held-out data, not training data).
    """
    if len(captures) < 2:
        raise SymbolicError(
            "SA-SYM-SHAPE",
            f"unification needs at least two captures, got {len(captures)}",
        )
    ordered = sorted(captures, key=lambda c: c[0])
    sizes = [s for s, _ in ordered]
    if len(set(sizes)) < 2:
        raise SymbolicError(
            "SA-SYM-SHAPE",
            f"unification needs two distinct sizes, got {sorted(set(sizes))}",
        )
    residue = sizes[0] % modulus
    for s in sizes[1:]:
        if s % modulus != residue:
            raise SymbolicError(
                "SA-SYM-RANGE",
                f"sizes {sizes[0]} and {s} are not congruent modulo the "
                f"region modulus {modulus}; footprints are only affine "
                "within one residue class",
            )
    (s0, lo_ir), (s1, hi_ir) = ordered[0], ordered[-1]
    for s, ir in ordered[1:]:
        why = _skeleton_mismatch(lo_ir, ir)
        if why is not None:
            raise SymbolicError(
                "SA-SYM-SHAPE",
                f"captures at s={s0} and s={s} do not unify: {why}",
            )

    def fit(v0: int, v1: int) -> Affine:
        return Affine.fit(s0, v0, s1, v1)

    nodes = []
    for na, nb in zip(lo_ir.nodes, hi_ir.nodes):
        nodes.append(SymbolicOp(
            node=na.node,
            shape={f: getattr(na, f) for f in _SHAPE_FIELDS},
            nbytes=fit(na.nbytes, nb.nbytes),
            reads=tuple(
                SymbolicFootprint(fa.buf, fit(fa.off, fb.off),
                                  fit(fa.nbytes, fb.nbytes))
                for fa, fb in zip(na.reads, nb.reads)),
            writes=tuple(
                SymbolicFootprint(fa.buf, fit(fa.off, fb.off),
                                  fit(fa.nbytes, fb.nbytes))
                for fa, fb in zip(na.writes, nb.writes)),
        ))
    buffers = [
        SymbolicBuffer(
            buf=ba.buf,
            shape={f: getattr(ba, f) for f in _BUFFER_SHAPE_FIELDS},
            nbytes=fit(ba.nbytes, bb.nbytes),
        )
        for ba, bb in zip(lo_ir.buffers, hi_ir.buffers)
    ]
    meta = {k: v for k, v in lo_ir.meta.items()
            if k not in ("s", "sim_time", "counters")}
    return SymbolicSchedule(
        meta=meta, guards=guards or {}, modulus=modulus, residue=residue,
        lo=s0, hi=s1, anchors=(s0, s1),
        validated=tuple(s for s, _ in ordered[1:-1]),
        buffers=buffers, nodes=nodes, edges=list(lo_ir.edges),
    )


# ---------------------------------------------------------------------------
# Certification passes (SA-SYM-*)
# ---------------------------------------------------------------------------


def _diff_concrete(sym: SymbolicSchedule, s: int,
                   cap: ScheduleIR) -> List[str]:
    """Every way ``sym.instantiate(s)`` differs from the capture."""
    try:
        inst = sym.instantiate(s)
    except SymbolicError as exc:
        return [str(exc)]
    diffs: List[str] = []
    why = _skeleton_mismatch(inst, cap)
    if why is not None:
        return [why]
    for ni, nc in zip(inst.nodes, cap.nodes):
        if ni.nbytes != nc.nbytes:
            diffs.append(f"node #{ni.node} nbytes {ni.nbytes} != "
                         f"captured {nc.nbytes}")
        for mode, a, b in (("read", ni.reads, nc.reads),
                           ("write", ni.writes, nc.writes)):
            for fa, fb in zip(a, b):
                if (fa.off, fa.nbytes) != (fb.off, fb.nbytes):
                    diffs.append(
                        f"node #{ni.node} {mode} footprint buf{fa.buf} "
                        f"[{fa.off}, {fa.end}) != captured "
                        f"[{fb.off}, {fb.end})")
    for bi, bc in zip(inst.buffers, cap.buffers):
        if bi.nbytes != bc.nbytes:
            diffs.append(f"buffer {bi.buf} ({bi.name!r}) extent "
                         f"{bi.nbytes} != captured {bc.nbytes}")
    return diffs


class SymbolicExactnessPass(Pass):
    """Certificate check (a): the symbolic schedule reproduces every
    concrete capture — anchors and held-out sizes — bitwise."""

    name = "sym-exact"
    codes = ("SA-SYM-EXACT", "SA-SYM-EXACT-OK")

    def __init__(self, sym: SymbolicSchedule,
                 captures: Sequence[Tuple[int, ScheduleIR]]):
        self.sym = sym
        self.captures = list(captures)

    def run(self, ir: ScheduleIR) -> List[Finding]:
        out: List[Finding] = []
        for s, cap in self.captures:
            diffs = _diff_concrete(self.sym, s, cap)
            if diffs:
                out.append(self._finding(
                    ir, "SA-SYM-EXACT", "error",
                    f"symbolic schedule does not reproduce the engine "
                    f"capture at s={s}: {diffs[0]}"
                    + (f" (+{len(diffs) - 1} more)" if len(diffs) > 1
                       else ""),
                    data={"s": s, "mismatches": len(diffs),
                          "first": diffs[:4]},
                ))
        out = _cap(out, self, ir, "SA-SYM-EXACT")
        if not out:
            held_out = [s for s, _ in self.captures
                        if s not in self.sym.anchors]
            out.append(self._finding(
                ir, "SA-SYM-EXACT-OK", "info",
                f"symbolic footprints reproduce {len(self.captures)} "
                f"engine capture(s) bitwise (anchors "
                f"{list(self.sym.anchors)}, held-out {held_out})",
                data={"anchors": list(self.sym.anchors),
                      "held_out": held_out},
            ))
        return out


class SymbolicDavPass(Pass):
    """Certificate check (b): symbolic DAV equals Theorem 3.1's closed
    form as a polynomial identity (coefficients, not samples)."""

    name = "sym-dav"
    codes = ("SA-SYM-DAV", "SA-SYM-DAV-OK", "SA-SYM-DAV-UNDER",
             "SA-SYM-DAV-SKIP")

    def __init__(self, sym: SymbolicSchedule):
        self.sym = sym

    def run(self, ir: ScheduleIR) -> List[Finding]:
        sym = self.sym
        d = sym.dav()
        meta = sym.meta
        kind = str(meta.get("kind", ""))
        algorithm = str(meta.get("dav_algorithm", ""))
        p = int(meta.get("nranks", 0))
        m = int(meta.get("m", 2))
        k = int(meta.get("k", 2))
        predicted = (predicted_dav(kind, algorithm, 1, p, m=m, k=k)
                     if kind and p > 1 else None)
        if predicted is None:
            return [self._finding(
                ir, "SA-SYM-DAV-SKIP", "info",
                f"no DAV model for {kind or '<ad-hoc>'}/{algorithm}; "
                f"symbolic DAV is {d.describe()}",
                data={"dav": d.describe()},
            )]
        # The closed forms are homogeneous-linear in s (every table row
        # is c(p, m, k) * s), so the identity has two clauses: the
        # symbolic constant term must vanish and the slope must match
        # the model coefficient.  Checked on the coefficients — one
        # verdict for the whole region, not one per size.
        coeff = float(predicted)
        data = {"dav": d.describe(), "model": f"{coeff:g}*s",
                "kind": kind, "algorithm": algorithm, "p": p}
        if d.b != 0:
            return [self._finding(
                ir, "SA-SYM-DAV", "error",
                f"symbolic DAV {d.describe()} has a constant term; "
                f"Theorem 3.1's closed form for {kind}/{algorithm} is "
                f"homogeneous in s — the region moves size-independent "
                "bytes the model does not account for", data=data,
            )]
        slope = float(d.a)
        if slope > coeff * (1.0 + REL_TOL):
            return [self._finding(
                ir, "SA-SYM-DAV", "error",
                f"symbolic DAV {d.describe()} exceeds the closed form "
                f"{coeff:g}*s for {kind}/{algorithm} at p={p} — "
                "redundant movement at every size in the region",
                data=data,
            )]
        if slope < coeff * (1.0 - REL_TOL):
            return [self._finding(
                ir, "SA-SYM-DAV-UNDER", "info",
                f"symbolic DAV {d.describe()} is under the modelled "
                f"{coeff:g}*s for {kind}/{algorithm} (moving less than "
                "modelled is not a bug)", data=data,
            )]
        return [self._finding(
            ir, "SA-SYM-DAV-OK", "info",
            f"symbolic DAV matches Theorem 3.1 as a polynomial "
            f"identity: {d.describe()} ≡ {coeff:g}*s for "
            f"{kind}/{algorithm} at p={p}", data=data,
        )]


#: refuse certification when the boundary affines cross more often
#: than this inside one region — each crossing-free segment needs a
#: concrete witness lint, and thousands of them means the region's
#: shape is churning, not invariant
MAX_WITNESSES = 64


class SymbolicBoundsPass(Pass):
    """Certificate check (c): buffer lints hold for *all* congruent
    sizes in ``[lo, hi]``, by interval arithmetic at the region edges.

    Soundness: an affine function attains its extrema at the interval
    endpoints, so a footprint bound that holds at both edges holds
    throughout.  The relational lints (overlap, uninit coverage) are
    built from comparisons of boundary affines; two affines change
    relative order only at their rational crossing point, so every
    verdict is constant on the crossing-free segments between
    consecutive interior crossings.  The pass enumerates those
    segments exactly and runs the concrete :class:`BufferPass` on one
    congruent witness size per segment (plus both edges): together the
    witnesses cover every congruent size in the interval.  A witness
    whose lint differs from the clean edges is ``SA-SYM-VARY`` — the
    region's verdicts are *not* size-invariant."""

    name = "sym-bounds"
    codes = ("SA-SYM-BOUNDS", "SA-SYM-VARY", "SA-SYM-BOUNDS-OK")

    def __init__(self, sym: SymbolicSchedule):
        self.sym = sym

    def run(self, ir: ScheduleIR) -> List[Finding]:
        sym = self.sym
        edges = (sym.lo, sym.hi)
        bounds: List[Finding] = []
        extents = {b.buf: b.nbytes for b in sym.buffers}
        for n in sym.nodes:
            for fp in n.reads + n.writes:
                cap = extents.get(fp.buf)
                for s in edges:
                    off, nb = fp.off(s), fp.nbytes(s)
                    limit = cap(s) if cap is not None else None
                    if off < 0 or nb < 0 or (limit is not None
                                             and off + nb > limit):
                        bounds.append(self._finding(
                            ir, "SA-SYM-BOUNDS", "error",
                            f"node #{n.node} footprint "
                            f"[{fp.off.describe()}, +{fp.nbytes.describe()})"
                            f" of buf{fp.buf} escapes at region edge "
                            f"s={s} (extent "
                            f"{cap.describe() if cap else '?'})",
                            nodes=(n.node,),
                            data={"s": s, "buf": fp.buf},
                        ))
                        break
        out = _cap(bounds, self, ir, "SA-SYM-BOUNDS")
        witnesses = self._witness_sizes()
        if witnesses is None:
            out.append(self._finding(
                ir, "SA-SYM-VARY", "error",
                f"boundary affines cross more than {MAX_WITNESSES} "
                f"times inside [{sym.lo}, {sym.hi}] — the region's "
                "lint verdicts churn with size; refusing to certify",
            ))
            witnesses = []
        buffer_pass = BufferPass()
        vary: List[Finding] = []
        for s in sorted({*edges, *witnesses}):
            try:
                inst = sym.instantiate(s)
            except SymbolicError as exc:
                out.append(self._finding(
                    ir, "SA-SYM-BOUNDS", "error",
                    f"cannot instantiate witness size s={s}: {exc}",
                ))
                continue
            findings = buffer_pass.run(inst)
            if s in edges:
                out.extend(findings)
                continue
            errors = [f for f in findings if f.severity == "error"]
            if errors:
                vary.append(self._finding(
                    ir, "SA-SYM-VARY", "error",
                    f"lint verdict changes inside the region: at the "
                    f"interior witness s={s}, {errors[0].code}: "
                    f"{errors[0].message}",
                    data={"s": s, "codes": sorted({f.code
                                                   for f in errors})},
                ))
        out.extend(_cap(vary, self, ir, "SA-SYM-VARY"))
        if not any(f.severity == "error" for f in out):
            out.append(self._finding(
                ir, "SA-SYM-BOUNDS-OK", "info",
                f"footprint bounds, overlap ordering and init coverage "
                f"hold for every s ≡ {sym.residue} (mod {sym.modulus}) "
                f"in [{sym.lo}, {sym.hi}] "
                f"({len(witnesses)} interior order segment(s) witnessed)",
                data={"lo": sym.lo, "hi": sym.hi,
                      "modulus": sym.modulus, "residue": sym.residue,
                      "witnesses": len(witnesses)},
            ))
        return out

    def _boundaries(self) -> Dict[int, List[Tuple[Fraction, Fraction]]]:
        """Distinct boundary affines per buffer: 0, the extent, and
        every footprint's start and end."""
        sym = self.sym
        per_buf: Dict[int, Dict[Tuple[Fraction, Fraction], None]] = {}
        for b in sym.buffers:
            per_buf.setdefault(b.buf, {})[(b.nbytes.a, b.nbytes.b)] = None
            per_buf[b.buf][(Fraction(0), Fraction(0))] = None
        for n in sym.nodes:
            for fp in n.reads + n.writes:
                bb = per_buf.setdefault(fp.buf, {})
                bb[(fp.off.a, fp.off.b)] = None
                bb[(fp.off.a + fp.nbytes.a, fp.off.b + fp.nbytes.b)] = None
        return {buf: list(affs) for buf, affs in per_buf.items()}

    def _witness_sizes(self) -> Optional[List[int]]:
        """One congruent size per crossing-free interior segment (and
        each congruent crossing point itself), or ``None`` when the
        crossing count exceeds :data:`MAX_WITNESSES`."""
        sym = self.sym
        lo, hi = Fraction(sym.lo), Fraction(sym.hi)
        cuts: set = set()
        for affs in self._boundaries().values():
            for i, (a1, b1) in enumerate(affs):
                for a2, b2 in affs[i + 1:]:
                    if a1 == a2:
                        continue
                    star = (b2 - b1) / (a1 - a2)
                    if lo < star < hi:
                        cuts.add(star)
                        if len(cuts) > MAX_WITNESSES:
                            return None
        witnesses: set = set()
        points = [lo] + sorted(cuts) + [hi]
        for left, right in zip(points, points[1:]):
            w = self._congruent_in(left, right)
            if w is not None:
                witnesses.add(w)
        for c in cuts:
            if c.denominator == 1 and sym.covers(int(c)):
                witnesses.add(int(c))
        return sorted(witnesses)

    def _congruent_in(self, left: Fraction,
                      right: Fraction) -> Optional[int]:
        """Smallest integer in the *open* interval congruent to the
        certificate's residue class, or ``None``."""
        sym = self.sym
        start = left.numerator // left.denominator + 1  # > left
        n = start + (sym.residue - start) % sym.modulus
        return n if Fraction(n) < right else None


# ---------------------------------------------------------------------------
# Guard partition check (d)
# ---------------------------------------------------------------------------


def check_guard_partition(kind: str, p: int, machine: MachineSpec, *,
                          imax: int, policy: str = "adaptive",
                          sizes: Sequence[int]) -> List[Finding]:
    """Certificate check (d): over the swept sizes, the decision guards
    are exhaustive (every size evaluates to a region) and mutually
    exclusive as *intervals* (once the sweep leaves a region it never
    re-enters it — regions partition the sorted size axis)."""
    import json as _json

    case = f"{kind} p={p}"
    out: List[Finding] = []
    seen_order: List[str] = []
    first_size: Dict[str, int] = {}
    for s in sorted(set(sizes)):
        try:
            guards = decision_guards(kind, s, p, machine, imax=imax,
                                     policy=policy)
        except (KeyError, ValueError) as exc:
            out.append(Finding(
                code="SA-SYM-GUARD", severity="error",
                message=f"guards are not exhaustive: no region for "
                        f"s={s} ({exc})",
                pass_name="sym-guards", case=case, data={"s": s},
            ))
            continue
        key = _json.dumps(guards, sort_keys=True)
        if seen_order and seen_order[-1] == key:
            continue
        if key in first_size:
            out.append(Finding(
                code="SA-SYM-GUARD", severity="error",
                message=f"guards are not exclusive as intervals: the "
                        f"region of s={first_size[key]} reappears at "
                        f"s={s} after a different region — region "
                        "boundaries are not monotone in s",
                pass_name="sym-guards", case=case,
                data={"s": s, "first": first_size[key]},
            ))
            continue
        first_size[key] = s
        seen_order.append(key)
    if not out:
        out.append(Finding(
            code="SA-SYM-GUARD-OK", severity="info",
            message=f"{len(set(sizes))} swept sizes partition into "
                    f"{len(seen_order)} contiguous decision regions",
            pass_name="sym-guards", case=case,
            data={"sizes": len(set(sizes)),
                  "regions": len(seen_order)},
        ))
    return out


# ---------------------------------------------------------------------------
# Region certification driver
# ---------------------------------------------------------------------------


def probe_partners(kind: str, base: int, p: int, machine: MachineSpec, *,
                   imax: int, policy: str = "adaptive", need: int,
                   kmax: int = PROBE_KMAX) -> List[int]:
    """Guard-equal sizes congruent to ``base`` modulo the region
    modulus, found by probing ``base ± k * modulus``.

    Decision regions over the benchmark sweeps are often singletons
    (power-of-two sizes hop regions quickly), so certification
    synthesizes its own in-region anchors instead of relying on the
    sweep to provide two.  ``k`` runs geometrically first (1, 2, 4,
    ...): spread-out anchors both stretch the certified interval and
    make held-out validation a stronger test of the affine form, with
    a linear scan as fallback for narrow regions."""
    guards0 = decision_guards(kind, base, p, machine, imax=imax,
                              policy=policy)
    modulus = region_modulus(p, machine)

    def in_region(cand: int) -> bool:
        if cand <= 0 or cand == base:
            return False
        try:
            guards = decision_guards(kind, cand, p, machine,
                                     imax=imax, policy=policy)
        except (KeyError, ValueError):
            return False
        return guards == guards0

    out: set = set()
    k = 1
    while k <= kmax:  # full geometric ladder: stretch the interval
        for cand in (base + k * modulus, base - k * modulus):
            if in_region(cand):
                out.add(cand)
        k *= 2
    k = 1
    while len(out) < need and k <= kmax:  # linear fill: narrow regions
        for cand in (base + k * modulus, base - k * modulus):
            if in_region(cand):
                out.add(cand)
        k += 1
    cands = sorted(out)
    if len(cands) <= need:
        return cands
    # keep the extremes (widest certified span) and sample the rest
    # evenly so held-out sizes probe the whole interval
    picks = sorted({round(i * (len(cands) - 1) / (need - 1))
                    for i in range(need)})
    chosen = [cands[i] for i in picks]
    for c in cands:  # rounding collisions: fill back to `need`
        if len(chosen) >= need:
            break
        if c not in chosen:
            chosen.append(c)
    return sorted(chosen)


def capture_region_ir(spec, machine: MachineSpec, p: int,
                      nbytes: int) -> ScheduleIR:
    """One full-fidelity capture for certification: the bench cell run
    with access tracing *on* (footprints are the certified content —
    the light capture :func:`repro.bench.compiled.capture_schedule`
    uses would have nothing to certify)."""
    from repro.bench.compiled import capture_cell_ir

    cell, _, ir = capture_cell_ir(spec, machine, p, nbytes,
                                  trace_accesses=True)
    # the selected algorithm, plus what the DAV checks read
    ir.meta.update({
        "kind": spec.kind,
        "algorithm": cell.algorithm,
        "dav_algorithm": table_row(spec.kind, cell.algorithm),
        "m": machine.sockets,
    })
    return ir


CaptureFn = Callable[[object, MachineSpec, int, int], ScheduleIR]


def certify_region(spec, machine: MachineSpec, p: int, base: int, *,
                   validate: int = DEFAULT_VALIDATE,
                   capture: Optional[CaptureFn] = None,
                   ) -> Tuple[Optional[SymbolicSchedule], Report]:
    """Certify the decision region containing ``(spec, p, base)``.

    Probes ``validate + 1`` guard-equal partner sizes, captures all of
    them plus the base with access tracing, unifies the two extremes
    into a symbolic schedule and validates it against the remaining
    ``>= validate`` held-out captures, then runs the full SA-SYM-*
    pass set.  Returns ``(symbolic schedule or None, report)`` — a
    failed certification reports findings, never silently passes.
    """
    from repro.bench.runners import resolve_imax

    if capture is None:
        capture = capture_region_ir
    imax = resolve_imax(spec.imax, machine)
    policy = spec.guard_policy
    case = f"{spec.family}/{spec.kind} p={p} s={base}"
    report = Report(case=case)
    modulus = region_modulus(p, machine)
    partners = probe_partners(spec.kind, base, p, machine, imax=imax,
                              policy=policy, need=validate + 1)
    if len(partners) < validate + 1:
        report.extend("sym-certify", [Finding(
            code="SA-SYM-ANCHORS", severity="error",
            message=f"only {len(partners)} guard-equal partner size(s) "
                    f"within ±{PROBE_KMAX} modulus steps of s={base}; "
                    f"need {validate + 1} for anchored validation — "
                    "region too narrow to certify",
            pass_name="sym-certify", case=case,
            data={"base": base, "modulus": modulus,
                  "partners": partners},
        )])
        return None, report
    sizes = sorted({base, *partners})
    captures = [(s, capture(spec, machine, p, s)) for s in sizes]
    try:
        sym = unify(captures, modulus=modulus,
                    guards=decision_guards(spec.kind, base, p, machine,
                                           imax=imax, policy=policy))
    except SymbolicError as exc:
        report.extend("sym-certify", [Finding(
            code=exc.code, severity="error", message=str(exc),
            pass_name="sym-certify", case=case,
            data={"sizes": sizes},
        )])
        return None, report
    report.signature = sym.signature()
    anchor_ir = captures[0][1]
    for pass_obj in (SymbolicExactnessPass(sym, captures),
                     SymbolicDavPass(sym),
                     SymbolicBoundsPass(sym)):
        report.extend(pass_obj.name, pass_obj.run(anchor_ir))
    return (sym if report.ok else None), report


#: default base-size ceiling for matrix certification: regions above
#: this ship DAGs with hundreds of pipeline rounds (capture cost grows
#: with op count, not bytes) and are certified on demand by the bench
#: ``--poly`` path instead; skipped bases are *reported*, never
#: silently dropped
DEFAULT_MAX_BASE = 4 * 1024 * 1024


def certify_matrix(machine: MachineSpec, *,
                   kinds: Optional[Sequence[str]] = None,
                   ps: Sequence[int] = (2, 4),
                   validate: int = DEFAULT_VALIDATE,
                   max_base: int = DEFAULT_MAX_BASE,
                   sweep: Optional[Dict[str, Sequence[int]]] = None,
                   capture: Optional[CaptureFn] = None,
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> List[Report]:
    """Certify every decision region the default sweeps touch, for
    every ``(collective, p)`` cell of the adaptive library matrix.

    For each cell: one guard-partition report over the *full* sweep,
    then one certification report per distinct region whose first
    swept size is at most ``max_base`` (``0`` disables the cap).
    Regions above the cap are listed in the guard report — the cap is
    a time budget, not a silent truncation.  This is the ``python -m
    repro lint --certify-regions`` and CI ``certify-regions``
    workload."""
    from repro.bench.runners import resolve_imax
    from repro.bench.sizes import SIZES_ALLGATHER, SIZES_LARGE
    from repro.bench.spec import yhccl_spec
    from repro.models.nt_model import KNOWN_KINDS

    reports: List[Report] = []
    for kind in (KNOWN_KINDS if kinds is None else kinds):
        spec = yhccl_spec(kind)
        sizes = (sweep or {}).get(kind) or (
            SIZES_ALLGATHER if kind == "allgather" else SIZES_LARGE)
        for p in ps:
            imax = resolve_imax(spec.imax, machine)
            case = f"{kind} p={p}"
            guard_report = Report(case=f"{case} guards")
            guard_report.extend("sym-guards", check_guard_partition(
                kind, p, machine, imax=imax, policy="adaptive",
                sizes=sizes))
            bases: List[int] = []
            skipped: List[int] = []
            seen: List[dict] = []
            for s in sorted(set(sizes)):
                guards = decision_guards(kind, s, p, machine,
                                         imax=imax, policy="adaptive")
                if guards in seen:
                    continue
                seen.append(guards)
                if max_base and s > max_base:
                    skipped.append(s)
                else:
                    bases.append(s)
            if skipped:
                guard_report.extend("sym-certify", [Finding(
                    code="SA-SYM-CAPPED", severity="info",
                    message=f"{len(skipped)} region(s) above the "
                            f"{max_base} B certification cap not "
                            f"certified here (bases {skipped}); the "
                            "bench --poly path certifies them on "
                            "demand",
                    pass_name="sym-certify", case=case,
                    data={"max_base": max_base, "bases": skipped},
                )])
            reports.append(guard_report)
            for base in bases:
                if progress is not None:
                    progress(f"[certify] {kind} p={p} region@{base} ...")
                _, report = certify_region(spec, machine, p, base,
                                           validate=validate,
                                           capture=capture)
                reports.append(report)
    return reports
