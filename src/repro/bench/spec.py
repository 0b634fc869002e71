"""Declarative benchmark specifications.

A benchmark module declares *data*: which machine, how many ranks,
which implementations (by registry name) and which sizes.  Everything
here is an immutable, picklable value — the execution layer turns specs
into cells, hashes them for the persistent cache, and ships them to
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Tuple

from repro.bench.registry import resolve_algorithm
from repro.bench.runners import (
    CellResult,
    algorithm_cell,
    vendor_cell,
    yhccl_cell,
)
from repro.collectives.common import KINDS
from repro.copyengine.primitives import POLICIES

#: the collective kinds each runner family may run
FAMILY_KINDS = {
    "reduce": ("reduce_scatter", "reduce", "allreduce"),
    "bcast": ("bcast",),
    "allgather": ("allgather",),
    "yhccl": KINDS,
    "vendor": KINDS,
    "hierarchy": ("allreduce",),
}
#: runner families a spec may name
FAMILIES = tuple(FAMILY_KINDS)


@dataclass(frozen=True)
class RunnerSpec:
    """One implementation column of a sweep, as pure data.

    ``family`` selects the driver:

    * ``"reduce"`` / ``"bcast"`` / ``"allgather"`` — drive one algorithm
      (named in ``algorithm``, resolved via the registry; ``params``
      feeds parameterized constructors such as RG's branch/slice).
    * ``"yhccl"`` — the full library stack (switching + adaptive copy).
    * ``"vendor"`` — a vendor model (``vendor`` names it).
    * ``"hierarchy"`` — a composed multi-node hierarchy (``vendor``
      names the implementation; ``params`` holds the cluster config:
      ``nnodes``, ``mode``, ``lanes``, ``network``, ``pipelined``).

    ``kind`` is the collective ("allreduce", "bcast", ...), one the
    family runs (:data:`FAMILY_KINDS`).  ``policy`` is a store-path rule
    of :data:`repro.copyengine.primitives.POLICIES`.  ``imax`` of
    ``None`` means the per-platform tuned slice cap.
    """

    family: str
    kind: str
    algorithm: str = ""
    policy: str = "memmove"
    imax: Optional[int] = None
    root: int = 0
    vendor: str = ""
    params: Tuple = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown runner family {self.family!r}; "
                f"choose from {FAMILIES}"
            )
        kinds = FAMILY_KINDS[self.family]
        if self.kind not in kinds:
            raise ValueError(
                f"runner family {self.family!r} cannot run kind "
                f"{self.kind!r}; it runs {', '.join(kinds)}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown copy policy {self.policy!r}; "
                f"choose from {', '.join(POLICIES)}"
            )

    @property
    def guard_policy(self) -> str:
        """The copy policy this column's decision guards are evaluated
        under: the library stack always runs the adaptive switch;
        algorithm cells pin theirs."""
        return "adaptive" if self.family == "yhccl" else self.policy

    def describe(self) -> dict:
        """Stable dict form — the cache-key and wire representation."""
        return {
            "family": self.family,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "policy": self.policy,
            "imax": self.imax,
            "root": self.root,
            "vendor": self.vendor,
            "params": [list(kv) for kv in self.params],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunnerSpec":
        d = dict(d)
        d["params"] = tuple(tuple(kv) for kv in d.get("params", ()))
        return cls(**d)

    def with_param(self, **kv) -> "RunnerSpec":
        """A copy with ``params`` entries merged in (sorted-key form is
        preserved, so cache descriptors stay canonical)."""
        merged = dict(self.params)
        merged.update(kv)
        return replace(self, params=tuple(sorted(merged.items())))

    def resolve(self) -> Callable[[object, int], CellResult]:
        """Build the executable cell runner for this spec."""
        if self.family == "yhccl":
            return yhccl_cell(self.kind)
        if self.family == "vendor":
            return vendor_cell(self.vendor, self.kind)
        if self.family == "hierarchy":
            from repro.bench.hierarchy import hierarchy_cell

            return hierarchy_cell(self.vendor, dict(self.params))
        alg = resolve_algorithm(self.algorithm, self.kind, self.params)
        return algorithm_cell(alg, self.policy, self.imax, self.root)


def reduce_spec(algorithm: str, kind: str, policy: str = "memmove", *,
                imax: Optional[int] = None, root: int = 0,
                **params) -> RunnerSpec:
    return RunnerSpec(family="reduce", kind=kind, algorithm=algorithm,
                      policy=policy, imax=imax, root=root,
                      params=tuple(sorted(params.items())))


def bcast_spec(algorithm: str, policy: str = "memmove", *,
               imax: Optional[int] = None, root: int = 0,
               **params) -> RunnerSpec:
    return RunnerSpec(family="bcast", kind="bcast", algorithm=algorithm,
                      policy=policy, imax=imax, root=root,
                      params=tuple(sorted(params.items())))


def allgather_spec(algorithm: str, policy: str = "memmove", *,
                   imax: Optional[int] = None, **params) -> RunnerSpec:
    return RunnerSpec(family="allgather", kind="allgather",
                      algorithm=algorithm, policy=policy, imax=imax,
                      params=tuple(sorted(params.items())))


def yhccl_spec(kind: str) -> RunnerSpec:
    return RunnerSpec(family="yhccl", kind=kind)


def vendor_spec(vendor: str, kind: str) -> RunnerSpec:
    return RunnerSpec(family="vendor", kind=kind, vendor=vendor)


def hierarchy_spec(implementation: str, *, nnodes: int = 0,
                   mode: str = "", lanes: Optional[int] = None,
                   network: str = "", exchange: str = "",
                   pipelined: bool = True) -> RunnerSpec:
    """A composed multi-node hierarchy column.

    ``implementation`` is ``"YHCCL"`` or a vendor name (as resolved by
    :func:`~repro.library.hierarchy.implementation_policy`).  ``nnodes``
    may stay 0 when the sweep's axis is ``"nodes"`` — each cell then
    injects its node count.  ``exchange`` names an
    :data:`~repro.library.hierarchy.EXCHANGES` entry overriding the
    implementation's native inter-node stage (``"ring"`` / ``"tree"`` /
    ``"rabenseifner"``).  Only non-default config values enter
    ``params`` so cache descriptors stay minimal and stable.
    """
    kept: dict = {}
    if nnodes:
        kept["nnodes"] = nnodes
    if mode:
        kept["mode"] = mode
    if lanes is not None:
        kept["lanes"] = lanes
    if network:
        kept["network"] = network
    if exchange:
        kept["exchange"] = exchange
    if not pipelined:
        kept["pipelined"] = False
    return RunnerSpec(family="hierarchy", kind="allreduce",
                      vendor=implementation,
                      params=tuple(sorted(kept.items())))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: machine × implementations × x-axis.

    ``axis`` is ``"size"`` (x values are message sizes at fixed rank
    count ``p``), ``"ranks"`` (x values are rank counts at fixed
    message size ``fixed_size`` — the scalability figures) or
    ``"nodes"`` (x values are cluster node counts at fixed message
    size and fixed per-node rank count ``p`` — the multi-node
    hierarchy sweeps; each cell injects its node count into the
    runner's ``nnodes`` param).
    """

    name: str
    title: str
    machine: str  # preset name, resolved via repro.machine.spec.PRESETS
    p: int
    sizes: Tuple[int, ...]
    impls: Tuple[Tuple[str, RunnerSpec], ...]
    baseline: str = ""
    axis: str = "size"
    fixed_size: int = 0

    def __post_init__(self) -> None:
        if self.axis not in ("size", "ranks", "nodes"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if self.axis in ("ranks", "nodes") and self.fixed_size <= 0:
            raise ValueError(
                f"axis={self.axis!r} requires a positive fixed_size")

    def cells(self) -> Iterator[dict]:
        """Cell descriptors in deterministic declaration order."""
        for label, spec in self.impls:
            for x in self.sizes:
                p = x if self.axis == "ranks" else self.p
                nbytes = x if self.axis == "size" else self.fixed_size
                runner = (spec.with_param(nnodes=x)
                          if self.axis == "nodes" else spec)
                yield {
                    "impl": label,
                    "x": x,
                    "machine": self.machine,
                    "p": p,
                    "nbytes": nbytes,
                    "runner": runner.describe(),
                }


@dataclass(frozen=True)
class Benchmark:
    """A benchmark module's declaration.

    Either ``sweeps`` (declarative: parallelized and cached per cell)
    or ``custom`` (the name of a module-level zero-argument function:
    executed as a single cached cell; its sanitized return value is the
    JSON payload).  ``module`` is filled in by discovery.
    """

    name: str
    sweeps: Tuple[SweepSpec, ...] = ()
    custom: str = ""
    module: str = ""

    def __post_init__(self) -> None:
        if bool(self.sweeps) == bool(self.custom):
            raise ValueError(
                f"benchmark {self.name!r} must declare exactly one of "
                "sweeps or custom"
            )

    def sweep(self, name: str) -> SweepSpec:
        for s in self.sweeps:
            if s.name == name:
                return s
        raise KeyError(
            f"{self.name} has no sweep {name!r}; "
            f"sweeps: {[s.name for s in self.sweeps]}"
        )

    def with_module(self, module: str) -> "Benchmark":
        return replace(self, module=module)
