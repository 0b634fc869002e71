"""YHCCL algorithm switching (Section 5.1 and Figure 4).

YHCCL composes the paper's two optimizations and switches algorithms by
message size:

* **small messages** (``s <= small_threshold``, default 256 KB): the MA
  pipeline's per-round synchronization dominates, so YHCCL switches to
  the *two-level parallel reduction* — the DPML structure (one barrier
  per phase) upgraded with socket awareness and the cache hierarchy.
* **large messages**: socket-aware movement-avoiding reduction with the
  adaptive non-temporal copy (``copy_policy="adaptive"``).

Broadcast and all-gather always use the pipelined shared-memory
algorithms with adaptive copies; their slice size is the platform-tuned
``Imax``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.allgather import PIPELINED_ALLGATHER
from repro.collectives.bcast import PIPELINED_BCAST
from repro.collectives.dpml import DPML2_ALLREDUCE, DPML_REDUCE, DPML_REDUCE_SCATTER
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE, MA_REDUCE_SCATTER
from repro.collectives.ops import is_commutative
from repro.collectives.ordered import (
    ORDERED_ALLREDUCE,
    ORDERED_REDUCE,
    ORDERED_REDUCE_SCATTER,
)
from repro.collectives.socket_aware import (
    SOCKET_MA_ALLREDUCE,
    SOCKET_MA_REDUCE,
    SOCKET_MA_REDUCE_SCATTER,
)

KB = 1024

#: "the message is too small (e.g., s <= 256 KB) to benefit from MA
#: reduction at the algorithm level" — Section 5.1
SMALL_THRESHOLD = 256 * KB


@dataclass(frozen=True)
class Selection:
    """One routing decision: algorithm + copy policy."""

    algorithm: object
    copy_policy: str
    reason: str


def platform_imax(machine) -> int:
    """The paper's tuned MA slice caps: 256 KB NodeA, 128 KB NodeB (and
    any other machine); 256 KB when there is no machine model."""
    if machine is None:
        return 256 * KB
    return {"NodeA": 256 * KB, "NodeB": 128 * KB}.get(machine.name, 128 * KB)


@dataclass
class YHCCLConfig:
    """Tuning knobs mirroring the paper's per-platform settings."""

    imax: int = 256 * KB  # MA slice cap: 256 KB NodeA, 128 KB NodeB
    small_threshold: int = SMALL_THRESHOLD
    socket_aware: bool = True
    adaptive_copy: bool = True

    @property
    def policy(self) -> str:
        return "adaptive" if self.adaptive_copy else "t"


def select(kind: str, s: int, config: YHCCLConfig | None = None, *,
           op: str = "sum") -> Selection:
    """Route one collective call to the algorithm YHCCL would use."""
    cfg = config or YHCCLConfig()
    policy = cfg.policy
    if kind == "bcast":
        return Selection(PIPELINED_BCAST, policy, "pipelined + adaptive copy")
    if kind == "allgather":
        return Selection(PIPELINED_ALLGATHER, policy,
                         "pipelined + adaptive copy")
    if kind not in ("allreduce", "reduce", "reduce_scatter"):
        raise ValueError(f"unknown collective kind {kind!r}")
    if not is_commutative(op):
        # reordering algorithms (MA/DPML) would evaluate the operator
        # out of rank order; fall back to the order-preserving chain
        alg = {
            "allreduce": ORDERED_ALLREDUCE,
            "reduce": ORDERED_REDUCE,
            "reduce_scatter": ORDERED_REDUCE_SCATTER,
        }[kind]
        return Selection(alg, policy,
                         "non-commutative operator: ordered left fold")
    if s <= cfg.small_threshold:
        if kind == "allreduce":
            return Selection(DPML2_ALLREDUCE, policy,
                             "small message: two-level parallel reduction")
        alg = {
            "reduce": DPML_REDUCE,
            "reduce_scatter": DPML_REDUCE_SCATTER,
        }[kind]
        return Selection(alg, policy, "small message: parallel reduction")
    if cfg.socket_aware:
        alg = {
            "allreduce": SOCKET_MA_ALLREDUCE,
            "reduce": SOCKET_MA_REDUCE,
            "reduce_scatter": SOCKET_MA_REDUCE_SCATTER,
        }[kind]
        return Selection(alg, policy, "large message: socket-aware MA")
    alg = {
        "allreduce": MA_ALLREDUCE,
        "reduce": MA_REDUCE,
        "reduce_scatter": MA_REDUCE_SCATTER,
    }[kind]
    return Selection(alg, policy, "large message: MA reduction")
