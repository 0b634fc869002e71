"""The four workloads: fixed unit lists over the coroutine, capture and
replay paths.

A *unit* is one bench cell (run through
:func:`repro.bench.executor.exec_payload`) or one perturbation ensemble
(:func:`repro.sim.perturb.run_ensemble`).  Its ``key`` names the result
it must reproduce in ``golden.json``; units of different workloads that
compute the same cell share a key, which is how the bitwise
coroutine ≡ compiled-replay contract is checked on every pass.

Every unit starts from the same state (compiled units clear the
in-process schedule memo first; capture units get a fresh, empty
schedule directory), so neither its result nor its cost depends on the
order the seed shuffles the units into.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

# the modules units reach lazily are imported here too, so that set-up
# (not the first unit to need one) pays every first import
import repro.analysis.static.extract  # noqa: F401
import repro.analysis.static.symbolic  # noqa: F401
import repro.bench.hierarchy  # noqa: F401
import repro.library.mpi  # noqa: F401
import repro.library.yhccl  # noqa: F401
from repro.bench import compiled, executor
from repro.bench.cache import descriptor_key
from repro.bench.jsonio import canonical_dumps
from repro.bench.spec import (
    hierarchy_spec,
    reduce_spec,
    vendor_spec,
    yhccl_spec,
)
from repro.sim import perturb

KB = 1024
MB = 1024 * KB

#: (machine, ranks, size) of the latency-bound cells: sweep_small runs
#: every runner on them and the compiled workloads capture and replay
#: them, so each exact compiled result has a coroutine twin
SMALL_GEOMETRY = (("NodeA", 64, 64 * KB), ("NodeB", 48, 64 * KB),
                  ("NodeB", 48, 256 * KB))
#: (machine, ranks, size) of the bandwidth-bound cells
LARGE_GEOMETRY = tuple((m, p, n) for m, p in (("NodeA", 64), ("NodeB", 48))
                       for n in (2 * MB, 8 * MB))

#: perturbation ensembles: rows, seed and model are fixed here rather
#: than derived from the cell key, which embeds the source version
ENSEMBLE = {"n": 256, "seed": 2023, "model": "mixed"}


@dataclass(frozen=True)
class Unit:
    key: str
    payload: dict
    ensemble: bool = False


#: sweep_small runners: the YHCCL stack, the research baselines (all
#: allreduce, published-baseline memmove copies) and the vendor models
SMALL_RUNNERS = (
    ("yhccl-allreduce", yhccl_spec("allreduce")),
    ("yhccl-reduce", yhccl_spec("reduce")),
    ("yhccl-reduce_scatter", yhccl_spec("reduce_scatter")),
    ("yhccl-bcast", yhccl_spec("bcast")),
    ("yhccl-allgather", yhccl_spec("allgather")),
    ("rg2-allreduce", reduce_spec("rg", "allreduce", branch=2,
                                  slice_size=128 * KB)),
    ("rabenseifner-allreduce", reduce_spec("rabenseifner", "allreduce")),
    ("ring-allreduce", reduce_spec("ring", "allreduce")),
    ("dpml-allreduce", reduce_spec("dpml", "allreduce")),
    ("ompi-allreduce", vendor_spec("Open MPI", "allreduce")),
    ("mpich-allreduce", vendor_spec("MPICH", "allreduce")),
    ("impi-allreduce", vendor_spec("Intel MPI", "allreduce")),
    ("mvapich2-allreduce", vendor_spec("MVAPICH2", "allreduce")),
)
LARGE_RUNNERS = (
    ("socket-ma-allreduce", reduce_spec("socket-ma", "allreduce",
                                        "adaptive")),
    ("ma-allreduce", reduce_spec("ma", "allreduce", "adaptive")),
    ("socket-ma-reduce_scatter", reduce_spec("socket-ma", "reduce_scatter",
                                             "adaptive")),
    ("ma-reduce", reduce_spec("ma", "reduce", "adaptive")),
    ("ring-allreduce", reduce_spec("ring", "allreduce")),
    ("rabenseifner-allreduce", reduce_spec("rabenseifner", "allreduce")),
    ("yhccl-allreduce", yhccl_spec("allreduce")),
    ("yhccl-bcast", yhccl_spec("bcast")),
    ("ompi-allreduce", vendor_spec("Open MPI", "allreduce")),
)


#: sweep_small runners whose capture is cheap enough for a capture pass
#: (the CMA-ring models and Ring itself cost ~1.3 s per capture at p=64)
CAPTURED = ("yhccl-allreduce", "yhccl-reduce", "yhccl-reduce_scatter",
            "yhccl-bcast", "yhccl-allgather", "rg2-allreduce",
            "rabenseifner-allreduce", "dpml-allreduce", "mpich-allreduce",
            "mvapich2-allreduce")
#: socket-MA p=8 certified regions: (kind, base size, in-span sizes).
#: The two bases of a kind lie in different decision regions
#: (320-1088 KB and 1088-2112 KB), so one shared schedule directory
#: holds a capture anchored at each base.
POLY = (
    ("allreduce", 512 * KB, (480 * KB, 544 * KB)),
    ("allreduce", 1536 * KB, (1504 * KB, 1568 * KB)),
    ("reduce_scatter", 512 * KB, (480 * KB, 544 * KB)),
    ("reduce_scatter", 1536 * KB, (1504 * KB, 1568 * KB)),
    ("reduce", 512 * KB, (480 * KB, 544 * KB)),
    ("reduce", 1536 * KB, (1504 * KB, 1568 * KB)),
)
HIER_SIZE = 4 * MB
HIER_IMPLS = ("YHCCL", "OMPI-hcoll")
HIER_NODES = (16, 256, 2048)
#: exact cells whose schedules also drive a perturbation ensemble
ENSEMBLE_CELLS = (
    ("NodeA", 64, 64 * KB, "yhccl-allreduce"),
    ("NodeA", 64, 64 * KB, "dpml-allreduce"),
    ("NodeA", 64, 64 * KB, "mvapich2-allreduce"),
    ("NodeA", 64, 64 * KB, "rabenseifner-allreduce"),
    ("NodeB", 48, 256 * KB, "yhccl-allreduce"),
    ("NodeB", 48, 256 * KB, "yhccl-allgather"),
    ("NodeB", 48, 256 * KB, "dpml-allreduce"),
    ("NodeB", 48, 256 * KB, "mpich-allreduce"),
)


def _cell(machine: str, p: int, nbytes: int, runner, **flags) -> dict:
    payload = {"type": "cell", "machine": machine, "p": p,
               "nbytes": nbytes, "runner": runner.describe()}
    payload.update(flags)
    return payload


def cell_key(machine: str, p: int, nbytes: int, label: str) -> str:
    return f"{machine}/p{p}/{nbytes}/{label}"


# ---------------------------------------------------------------------------
# Unit lists
# ---------------------------------------------------------------------------


def _sweep_units(runners, geometry) -> List[Unit]:
    return [Unit(cell_key(m, p, n, label), _cell(m, p, n, runner))
            for m, p, n in geometry for label, runner in runners]


def _exact_units() -> List[Unit]:
    runners = dict(SMALL_RUNNERS)
    return [Unit(cell_key(m, p, n, label),
                 _cell(m, p, n, runners[label], compiled=True))
            for m, p, n in SMALL_GEOMETRY for label in CAPTURED]


def _poly_unit(kind: str, nbytes: int) -> Unit:
    label = f"socket-ma-{kind}"
    runner = reduce_spec("socket-ma", kind, "adaptive")
    return Unit("poly:" + cell_key("NodeA", 8, nbytes, label),
                _cell("NodeA", 8, nbytes, runner, compiled=True, poly=True,
                      certified=True))


def _hier_unit(impl: str, nodes: int) -> Unit:
    label = f"hier-{impl}-n{nodes}"
    return Unit(cell_key("NodeB", 48, HIER_SIZE, label),
                _cell("NodeB", 48, HIER_SIZE,
                      hierarchy_spec(impl, nnodes=nodes), compiled=True))


def capture_units() -> List[Unit]:
    return (_exact_units()
            + [_poly_unit(k, base) for k, base, _ in POLY]
            + [_hier_unit(impl, HIER_NODES[0]) for impl in HIER_IMPLS])


def replay_units() -> List[Unit]:
    runners = dict(SMALL_RUNNERS)
    ensembles = [
        Unit("ensemble:" + cell_key(m, p, n, label),
             _cell(m, p, n, runners[label]), ensemble=True)
        for m, p, n, label in ENSEMBLE_CELLS
    ]
    return (_exact_units()
            + [_poly_unit(k, n) for k, base, spans in POLY
               for n in (base, *spans)]
            + ensembles
            + [_hier_unit(impl, nodes) for impl in HIER_IMPLS
               for nodes in HIER_NODES])


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class Workload:
    """A unit list plus how each unit runs.

    ``setup`` prepares the state every pass starts from; ``prepare``
    returns the zero-argument call that is timed; ``release`` undoes
    per-unit state outside the timed region.
    """

    name = ""
    why = ""

    def __init__(self, work: Path):
        self.work = work
        self.units = self.build()

    def build(self) -> List[Unit]:
        raise NotImplementedError

    def setup(self) -> None:
        """Bring the workload to the state every pass starts from."""

    def prepare(self, unit: Unit) -> Callable[[], dict]:
        payload = unit.payload
        return lambda: executor.exec_payload(payload)

    def release(self) -> None:
        """Drop per-unit state (untimed)."""


class SweepSmall(Workload):
    name = "sweep_small"
    why = ("latency-bound coroutine cells: engine scheduling, sync and "
           "rank programs dominate; the memory model sees few accesses")

    def build(self):
        return _sweep_units(SMALL_RUNNERS, SMALL_GEOMETRY)


class SweepLarge(Workload):
    name = "sweep_large"
    why = ("bandwidth-bound coroutine cells: the memory and cache model "
           "dominate, with temporal and NT stores both exercised")

    def build(self):
        return _sweep_units(LARGE_RUNNERS, LARGE_GEOMETRY)


class CompiledCapture(Workload):
    name = "compiled_capture"
    why = ("cold schedule cache: tracing, IR lift, lowering, schedule "
           "storage and certification carry the work")

    def build(self):
        return capture_units()

    def prepare(self, unit):
        compiled.clear_schedule_memo()
        self._dir = self.work / "unit"
        shutil.rmtree(self._dir, ignore_errors=True)
        self._dir.mkdir(parents=True)
        payload = dict(unit.payload, results_dir=str(self._dir))
        return lambda: executor.exec_payload(payload)

    def release(self):
        shutil.rmtree(self._dir, ignore_errors=True)


class CompiledReplay(Workload):
    name = "compiled_replay"
    why = ("warm schedule cache: deserialization, evaluate, "
           "evaluate_batch and the hierarchy roll-up carry the work")

    def build(self):
        return replay_units()

    def setup(self):
        """Capture every schedule and certificate the units replay."""
        compiled.clear_schedule_memo()
        self.cache = self.work / "cache"
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)
        for unit in capture_units():
            executor.exec_payload(
                dict(unit.payload, results_dir=str(self.cache)))

    def prepare(self, unit):
        compiled.clear_schedule_memo()
        payload = dict(unit.payload, results_dir=str(self.cache))
        if unit.ensemble:
            return lambda: self._ensemble(payload)
        return lambda: executor.exec_payload(payload)

    @staticmethod
    def _ensemble(payload: dict) -> dict:
        key = descriptor_key(compiled.schedule_descriptor(payload))
        doc = compiled.CompiledScheduleCache(
            Path(payload["results_dir"]) / "compiled").get(key)
        if doc is None:
            raise RuntimeError(f"schedule {key[:12]} missing from the cache")
        cs = compiled.schedule_from_doc(doc)
        return perturb.run_ensemble(
            cs, ENSEMBLE["n"], seed=ENSEMBLE["seed"],
            model=ENSEMBLE["model"]).to_dict()


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (SweepSmall, SweepLarge, CompiledCapture,
                        CompiledReplay)
}


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------


def digest(result: dict) -> str:
    """sha256 of a unit's canonical result.

    ``captured`` says whether this run captured (a run artifact) and
    ``poly.region`` is a schedule key that embeds the source version;
    both are dropped so the digest names the simulated output only.
    """
    doc = {k: v for k, v in result.items() if k != "captured"}
    if isinstance(doc.get("poly"), dict):
        doc["poly"] = {k: v for k, v in doc["poly"].items() if k != "region"}
    return hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()


@dataclass
class Tally:
    """Unit executions attempted and failed, with the first reason per
    failing unit."""

    attempted: int = 0
    failed: int = 0
    reasons: Dict[str, str] = field(default_factory=dict)

    def check(self, unit: Unit, result, golden: Dict[str, str],
              error: str = "") -> bool:
        self.attempted += 1
        if not error:
            want = golden.get(unit.key)
            got = digest(result)
            if want is None:
                error = "no golden digest"
            elif got != want:
                error = f"digest {got[:12]} != golden {want[:12]}"
        if error:
            self.failed += 1
            self.reasons.setdefault(unit.key, error)
            return False
        return True
