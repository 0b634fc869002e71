"""Closed-form data-access-volume formulas (Tables 1, 2 and 3).

Two families of formulas live here:

* ``*_paper`` — the table rows exactly as printed in the paper;
* ``*_impl`` — what this package's implementations actually move,
  which the simulator's traffic counters must match **exactly**
  (integration tests enforce equality).

For most rows the two agree; the documented exceptions are constant
``O(s)`` terms where the paper's arithmetic is internally inconsistent
(re-derivable from its own Section 3 accounting):

===============  ======================  ==============================
algorithm        paper                   implementation
===============  ======================  ==============================
DPML allreduce   ``s(7p - 1)``           ``s(7p - 3)``
DPML reduce      ``s(5p + 1)``           ``s(5p - 1)``
Ring allreduce   ``7s(p - 1)``           ``7s(p-1) + 2s`` (own-chunk
                                         copy-out)
Rabenseifner RS  ``5sp * sum``           ``5s(p-1) + 2s + 2 staged``
                                         (block delivery)
Rabenseifner AR  ``7sp * sum``           ``7s(p-1) + 4s`` (result
                                         delivery)
===============  ======================  ==============================

``sum`` is ``1/2 + 1/4 + ... + 1/p`` over the power of two below
``p``.  At a power-of-two ``p`` the paper rows equal ``5s(p-1)`` and
``7s(p-1)``; otherwise they miss the non-power-of-two preamble, where
each of the ``p - 2^k`` folded ranks stages its full vector (2s) into
a partner that reduces it (3s) — Jocksch et al. (arXiv:2006.13112)
treat that case separately.  ``staged`` (:func:`_rabenseifner_staged`)
counts the result bytes that reach their owner through a staging copy:
0 at a power of two with aligned ``s``.

All formulas take the per-rank message size ``s`` in bytes and return
bytes per node.  :func:`predicted_dav` is the oracle the analyzers pin
traced runs against: these implementation rows plus locally derived
rows for the collectives the tables omit.

The other side of that comparison is tallied here too:
:func:`op_touched_bytes` is Theorem 3.1's count for one engine
operation, which the obs counters, the schedule IR, the symbolic
domain and the compiled evaluator all sum; :func:`table_row` names the
row that models an algorithm.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

#: relative tolerance for float formula vs integer byte counters
REL_TOL = 1e-9


def op_touch_factor(kind: str) -> int:
    """Theorem 3.1 byte multiplier of one engine operation: a copy
    touches ``2n`` bytes (load + store), a reduce ``3n`` (two loads +
    store), a touch ``n``; synchronization and compute move nothing.
    The compiled evaluator vectorizes this table over its int8 op-kind
    codes (:data:`repro.sim.compiled.KIND_CODES`)."""
    if kind == "copy":
        return 2
    if kind.startswith("reduce"):
        return 3
    if kind == "touch":
        return 1
    return 0


def op_touched_bytes(kind: str, nbytes: int) -> int:
    """Theorem 3.1 accounting for one engine operation —
    :func:`op_touch_factor` times the byte count."""
    return op_touch_factor(kind) * nbytes


def table_row(kind: str, algorithm: str) -> str:
    """The row name (``dpml2``) of the algorithm named ``algorithm``
    (``dpml2-allreduce``): its name without the kind suffix.  bcast
    and allgather key on kind alone, so the pipelined designs map to
    ``""``; a name that is no row makes :func:`predicted_dav` return
    ``None``."""
    suffix = "-" + kind.replace("_", "-")
    name = algorithm[:-len(suffix)] if algorithm.endswith(suffix) \
        else algorithm
    return "" if name == "pipelined" else name


def _harmonic_halving(p: int) -> float:
    """``1/2 + 1/4 + ... + 1/p`` for power-of-two ``p`` (= 1 - 1/p);
    generalized via the power-of-two below ``p`` otherwise."""
    total = 0.0
    k = 2
    while k <= p:
        total += 1.0 / k
        k *= 2
    return total


def _rabenseifner_staged(s: int, p: int) -> int:
    """Bytes of each rank's ``partition(s, p)`` block outside its own
    post-halving ``participant_range``, summed over ranks.  Those bytes
    reach their owner through a staging copy (2s more each); a rank the
    non-power-of-two preamble folded away owns nothing, so its whole
    block is staged."""
    from repro.collectives.common import partition
    from repro.collectives.rabenseifner import Plan, participant_range

    plan = Plan(p)
    staged = 0
    for r, (off, n) in enumerate(partition(s, p)):
        nr = plan.newrank[r]
        if nr < 0:
            staged += n
            continue
        lo, hi = participant_range(plan, nr, s)
        staged += n - max(0, min(off + n, hi) - max(off, lo))
    return staged


def _rg_levels(p: int, k: int):
    """Survivor counts per level of a (k+1)-ary reduction tree."""
    counts = []
    n = p
    while n > 1:
        groups = math.ceil(n / (k + 1))
        counts.append((n, groups))
        n = groups
    return counts


# ---------------------------------------------------------------------------
# Table 1: reduce-scatter
# ---------------------------------------------------------------------------


def dav_reduce_scatter(algorithm: str, s: int, p: int, *, m: int = 2,
                       k: int = 2, paper: bool = True) -> float:
    """DAV of a reduce-scatter algorithm (Table 1)."""
    if algorithm == "ring":
        return 5.0 * s * (p - 1)
    if algorithm == "rabenseifner":
        if paper:
            return 5.0 * s * p * _harmonic_halving(p)
        return (5.0 * s * (p - 1) + 2.0 * s
                + 2.0 * _rabenseifner_staged(s, p))
    if algorithm == "dpml":
        return s * (5.0 * p - 1.0)
    if algorithm == "ma":
        return s * (3.0 * p - 1.0)
    if algorithm == "socket-ma":
        return s * (3.0 * p + 2.0 * m - 3.0)
    raise ValueError(f"unknown reduce-scatter algorithm {algorithm!r}")


# ---------------------------------------------------------------------------
# Table 2: allreduce
# ---------------------------------------------------------------------------


def dav_allreduce(algorithm: str, s: int, p: int, *, m: int = 2, k: int = 2,
                  paper: bool = True) -> float:
    """DAV of an allreduce algorithm (Table 2)."""
    if algorithm == "ring":
        base = 7.0 * s * (p - 1)
        return base if paper else base + 2.0 * s
    if algorithm == "rabenseifner":
        if paper:
            return 7.0 * s * p * _harmonic_halving(p)
        return 7.0 * s * (p - 1) + 4.0 * s
    if algorithm == "dpml":
        return s * (7.0 * p - 1.0) if paper else s * (7.0 * p - 3.0)
    if algorithm == "dpml2":
        # two-level socket-aware DPML (YHCCL's small-message switch):
        # full copy-in/out like DPML, a partitioned reduction inside
        # each socket, and an (m-1)-way cross-socket combine.  Ranks
        # follow the compact binding's ceil split of p over m sockets;
        # a singleton socket copies its full buffer instead of
        # reducing, so the count only coincides with the flat dpml
        # row (7p - 3) when every socket holds at least two ranks.
        per = -(-p // m)
        sizes = [min(per, p - i * per) for i in range(m) if p - i * per > 0]
        level1 = sum(3.0 * s * (g - 1) if g > 1 else 2.0 * s
                     for g in sizes)
        level2 = 3.0 * s * (len(sizes) - 1) if len(sizes) > 1 else 2.0 * s
        return 2.0 * s * p + level1 + level2 + 2.0 * s * p
    if algorithm == "rg":
        total = _rg_tree_dav(s, p, k, paper)
        return total + 2.0 * s * p
    if algorithm == "ma":
        return s * (5.0 * p - 1.0)
    if algorithm == "socket-ma":
        return s * (5.0 * p + 2.0 * m - 3.0)
    if algorithm == "xpmem":
        return 5.0 * s * (p - 1)
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def _rg_tree_dav(s: int, p: int, k: int, paper: bool) -> float:
    """Tree-phase DAV of the RG design: leaf level pays copy-in plus
    reduce (5s per child), inner levels reduce in place (3s per child).
    The implementation additionally copies a level-0 singleton parent's
    slice into its slot (2s) when ``p mod (k+1) == 1``."""
    total = 0.0
    for level, (n, groups) in enumerate(_rg_levels(p, k)):
        children = n - groups
        total += (5.0 if level == 0 else 3.0) * s * children
    if not paper and p > 1 and p % (k + 1) == 1:
        total += 2.0 * s
    return total


# ---------------------------------------------------------------------------
# Table 3: reduce
# ---------------------------------------------------------------------------


def dav_reduce(algorithm: str, s: int, p: int, *, m: int = 2, k: int = 2,
               paper: bool = True) -> float:
    """DAV of a rooted reduce algorithm (Table 3)."""
    if algorithm == "dpml":
        return s * (5.0 * p + 1.0) if paper else s * (5.0 * p - 1.0)
    if algorithm == "rg":
        return _rg_tree_dav(s, p, k, paper)
    if algorithm == "ma":
        return s * (3.0 * p + 1.0)
    if algorithm == "socket-ma":
        return s * (3.0 * p + 2.0 * m - 1.0)
    raise ValueError(f"unknown reduce algorithm {algorithm!r}")


#: (kind, algorithm) -> formula, for table-driven tests and benches
DAV_FORMULAS = {
    "reduce_scatter": dav_reduce_scatter,
    "allreduce": dav_allreduce,
    "reduce": dav_reduce,
}


def implementation_dav(kind: str, algorithm: str, s: int, p: int, *,
                       m: int = 2, k: int = 2) -> float:
    """DAV this package's implementation is expected to count."""
    return DAV_FORMULAS[kind](algorithm, s, p, m=m, k=k, paper=False)


# Formulas for collectives outside Tables 1-3, derived from this
# package's implementations the same way the *_impl rows were (each
# term is one copy/reduce pass over s or s/p bytes):
#   bcast             root writes shm (2s), p-1 readers copy out (2s each)
#   allgather         p ranks copy in s (2s each), p copy out ps (2ps each)
#   reduce_scatter_v  the MA pipeline on ragged counts; total is still s,
#                     so Table 1's MA row applies verbatim
#   allgather_v       total contribution s copied in once, s copied out
#                     by each of p ranks
_EXTRA_DAV: Dict[str, Callable[[int, int], float]] = {
    "bcast": lambda s, p: 2.0 * s * p,
    "allgather": lambda s, p: 2.0 * s * p + 2.0 * s * p * p,
    "reduce_scatter_v": lambda s, p: s * (3.0 * p - 1.0),
    "allgather_v": lambda s, p: 2.0 * s * (p + 1.0),
}


def predicted_dav(kind: str, algorithm: str, s: int, p: int, *,
                  m: int = 2, k: int = 2) -> Optional[float]:
    """Expected DAV, or ``None`` when no model covers the collective."""
    if kind in _EXTRA_DAV:
        return _EXTRA_DAV[kind](s, p)
    try:
        return implementation_dav(kind, algorithm, s, p, m=m, k=k)
    except (KeyError, ValueError):
        return None
