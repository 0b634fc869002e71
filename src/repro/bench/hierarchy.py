"""Hierarchy-family bench cells: composed multi-node collectives.

A ``family="hierarchy"`` runner prices a whole cluster collective as a
two-level stack from :mod:`repro.library.hierarchy`: intra-node leaf
phases driven by the simulated engine, an inter-node exchange priced on
the network cost model.  The cell's ``counters`` field carries the full
``repro-hier/1`` per-level breakdown instead of a ``repro-obs/1``
snapshot — per-level times and traffic land in the ``repro-bench/1``
cells, and the per-level ``bytes_on_wire`` / ``messages`` sum exactly
to the document's ``network`` totals.

Two leaf drivers share one composition:

* the **coroutine** path runs each leaf on a fresh
  :class:`~repro.library.communicator.Communicator` at the bench
  iteration discipline — exactly what a ``yhccl``/``vendor`` family
  cell of the same kind and size would execute;
* the **compiled** path (``bench --compiled``) replays each leaf from
  the content-addressed schedule cache via the same sub-cell identity.
  Leaf schedule descriptors carry no node count, so one capture per
  (machine, p, kind, size) serves an entire node-count sweep — that is
  what makes ≥1024-node scans cheap.

Replayed leaf results are bitwise-equal to coroutine ones by the
compiled evaluator's contract, and the network stages are pure float
math shared by both paths, so hierarchy cells keep the suite's
coroutine-vs-compiled byte-identical JSON property.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Optional

from repro.bench.runners import ITERATIONS, CellResult
from repro.library.hierarchy import (
    EXCHANGES,
    MODE_KINDS,
    Hierarchy,
    allreduce_stages,
    implementation_policy,
    pipeline_chunks,
)
from repro.machine.network import INFINIBAND_EDR, NETWORKS, Network


@dataclass(frozen=True)
class HierConfig:
    """Resolved cluster configuration of one hierarchy cell."""

    implementation: str
    nnodes: int
    mode: str
    lanes: Optional[int]
    network: str
    exchange: str
    pipelined: bool
    adaptive: bool

    @property
    def vendor(self) -> str:
        """The node-model vendor backing non-YHCCL leaves."""
        return implementation_policy(self.implementation).vendor


def resolve_config(implementation: str, params: dict) -> HierConfig:
    """Fill the per-implementation defaults of a hierarchy cell."""
    policy = implementation_policy(implementation)
    nnodes = int(params.get("nnodes", 0))
    if nnodes < 1:
        raise ValueError(
            "hierarchy cell needs nnodes >= 1 (set it on the spec or "
            "use a sweep with axis='nodes')")
    mode = params.get("mode") or policy.mode
    if mode not in MODE_KINDS:
        raise ValueError(f"unknown hierarchy mode {mode!r}")
    network = params.get("network") or INFINIBAND_EDR.name
    if network not in NETWORKS:
        raise ValueError(
            f"unknown network preset {network!r}; "
            f"choose from {sorted(NETWORKS)}")
    exchange = params.get("exchange", "")
    if exchange and exchange not in EXCHANGES:
        raise ValueError(f"unknown exchange stage {exchange!r}")
    lanes = params.get("lanes")
    return HierConfig(
        implementation=implementation,
        nnodes=nnodes,
        mode=mode,
        lanes=None if lanes is None else int(lanes),
        network=network,
        exchange=exchange,
        pipelined=bool(params.get("pipelined", True)),
        adaptive=bool(params.get("adaptive", policy.adaptive)),
    )


@dataclass(frozen=True)
class _Leaf:
    """Minimal leaf result both drivers produce — identical fields so
    the coroutine and compiled paths compose bitwise-equal documents."""

    time: float
    dav: int
    algorithm: str


LeafOp = Callable[[int], _Leaf]


def run_hierarchy(cfg: HierConfig, machine_name: str, p: int, nbytes: int,
                  leaf_ops: "Dict[str, LeafOp]") -> dict:
    """Compose one hierarchy cell result from per-leaf drivers.

    Returns the JSON-safe cell dict (``time`` / ``dav`` / ``algorithm``
    / ``counters``) with the ``repro-hier/1`` document as counters.
    """
    stages = allreduce_stages(
        SimpleNamespace(**leaf_ops),
        net=Network(NETWORKS[cfg.network]),
        nnodes=cfg.nnodes,
        nranks_per_node=p,
        mode=cfg.mode,
        lanes=cfg.lanes,
        exchange=cfg.exchange,
        adaptive=cfg.adaptive,
    )
    hierarchy = Hierarchy(
        stages,
        name=f"{cfg.implementation}-{cfg.mode}",
        nnodes=cfg.nnodes,
        nranks=cfg.nnodes * p,
    )
    chunks = (pipeline_chunks(cfg.mode, cfg.nnodes, nbytes)
              if cfg.pipelined else 1)
    res = hierarchy.run(nbytes, chunks=chunks)
    doc = res.to_doc()
    doc["implementation"] = cfg.implementation
    doc["machine"] = machine_name
    doc["ranks_per_node"] = p
    inter = next((s.algorithm for s in res.stages if s.level == "inter"), "")
    algorithm = f"{cfg.implementation}:{inter}"
    if res.pipelined:
        algorithm += "+pipelined"
    return {
        "time": res.time,
        "dav": res.dav,
        "algorithm": algorithm,
        "counters": doc,
    }


# ---------------------------------------------------------------------------
# Coroutine leaf driver (the default bench path)
# ---------------------------------------------------------------------------


def _coroutine_leaf_ops(cfg: HierConfig, machine,
                        p: int) -> "Dict[str, LeafOp]":
    """Each leaf runs on a fresh communicator at the bench iteration
    discipline — matching what the compiled path captures."""
    from repro.library.communicator import Communicator

    policy = implementation_policy(cfg.implementation)

    def make(kind: str) -> LeafOp:
        def op(nbytes: int) -> _Leaf:
            lib = policy.library(
                Communicator(p, machine=machine, functional=False))
            res = getattr(lib, kind)(nbytes, iterations=ITERATIONS)
            return _Leaf(time=res.time, dav=res.dav,
                         algorithm=res.algorithm)

        return op

    return {kind: make(kind) for kind in MODE_KINDS[cfg.mode]}


def hierarchy_cell(implementation: str, params: dict):
    """Cell runner factory for ``RunnerSpec.resolve``; ``comm`` supplies
    the per-node shape (machine preset, ranks per node)."""
    def run(comm, nbytes) -> CellResult:
        cfg = resolve_config(implementation, params)
        ops = _coroutine_leaf_ops(cfg, comm.machine, comm.nranks)
        out = run_hierarchy(cfg, comm.machine.name, comm.nranks,
                            nbytes, ops)
        return CellResult(time=out["time"], dav=out["dav"],
                          algorithm=out["algorithm"],
                          counters=out["counters"])

    return run


# ---------------------------------------------------------------------------
# Compiled leaf driver (bench --compiled)
# ---------------------------------------------------------------------------


def exec_hierarchy_compiled(payload: dict) -> dict:
    """Worker entry for a compiled hierarchy cell.

    Each leaf resolves through the compiled schedule cache under its
    own sub-cell identity — the ``yhccl``/``vendor`` cell that kind and
    size would be — and replays bitwise.  ``poly`` / ``perturb``
    flags are ignored for hierarchy cells: the leaves are
    exact replays already and the network stage is closed-form.
    """
    from repro.bench.cache import descriptor_key
    from repro.bench.compiled import _load_schedule, schedule_descriptor
    from repro.bench.spec import RunnerSpec

    runner = payload["runner"]
    cfg = resolve_config(runner["vendor"],
                         dict(tuple(kv) for kv in runner.get("params", ())))
    machine_name = payload["machine"]
    p = payload["p"]
    captured = []

    def make(kind: str) -> LeafOp:
        if cfg.implementation == "YHCCL":
            sub_runner = RunnerSpec(family="yhccl", kind=kind)
        else:
            sub_runner = RunnerSpec(family="vendor", kind=kind,
                                    vendor=cfg.vendor)

        def op(nbytes: int) -> _Leaf:
            from repro.bench.compiled import replay_cell

            sub = {
                "machine": machine_name,
                "p": p,
                "nbytes": nbytes,
                "runner": sub_runner.describe(),
            }
            if payload.get("results_dir"):
                sub["results_dir"] = payload["results_dir"]
            key = descriptor_key(schedule_descriptor(sub))
            cs, fresh = _load_schedule(sub, key)
            if fresh:
                captured.append(kind)
            res = replay_cell(cs)
            return _Leaf(time=res["time"], dav=res["dav"],
                         algorithm=res["algorithm"])

        return op

    ops = {kind: make(kind) for kind in MODE_KINDS[cfg.mode]}
    result = run_hierarchy(cfg, machine_name, p, payload["nbytes"], ops)
    if captured:
        result["captured"] = True  # transient: stripped before caching
    return result
