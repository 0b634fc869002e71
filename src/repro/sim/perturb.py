"""Perturbation ensembles for compiled schedules.

The compiled evaluator replays a captured schedule under *modified*
inputs — per-op durations and per-rank release times — without re-running
the coroutine engine.  This module supplies the modified inputs: seeded
samplers for the noise sources that dominate collective tail latency on
real shared-memory nodes, and a driver that pushes a whole ensemble
through :meth:`~repro.sim.compiled.CompiledSchedule.evaluate_batch` and
summarizes the tail (p50/p99/p999).

Noise models (all multiplicative/additive on the captured *busy* ops —
data movement and compute; synchronization ops have zero captured cost
and stay zero):

* :class:`OsNoise` — rare long interruptions: each busy op is hit with
  probability ``prob`` by an exponentially distributed delay of mean
  ``mean`` seconds (OS jitter, interrupts, SMM).
* :class:`Straggler` — ``count`` culprit ranks per sample run all their
  busy ops ``slowdown``× slower (a descheduled or thermally throttled
  core).
* :class:`FrequencySkew` — every rank draws a persistent log-normal
  frequency factor (``sigma``): cores legitimately differ in sustained
  clocks under vector load.
* :class:`ArrivalSkew` — ranks enter the collective at exponentially
  distributed offsets of scale ``scale`` seconds (compute imbalance in
  the caller), applied through ``start_times``.

Everything is driven by one :class:`numpy.random.Generator` seeded by
the caller, so ensembles are reproducible: same schedule + same seed +
same model → bitwise-identical statistics.  Chunked evaluation (see
:func:`run_ensemble`) only bounds peak memory; chunk size does not
affect the sampled values or the replayed times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sim.compiled import KIND_CODES, CompiledSchedule

#: evaluate_batch rows per chunk in :func:`run_ensemble`; purely a
#: memory/throughput trade-off (bit-identical for any value).
CHUNK = 256

#: percentiles reported by :class:`PerturbStats`
TAIL_PERCENTILES = (50.0, 99.0, 99.9)

_BUSY_MAX = KIND_CODES["compute"]  # codes <= this do timed work


@dataclass
class Ensemble:
    """A batch of perturbed evaluator inputs.

    ``dur`` is ``(B, n_ops)`` perturbed durations; ``start_times`` is
    ``(B, nranks)`` release offsets (``None`` → all-zero).  Models
    mutate these in place via :meth:`apply`.
    """

    dur: np.ndarray
    start_times: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.dur.shape[0]


def _busy_mask(cs: CompiledSchedule) -> np.ndarray:
    """Ops that consume rank time: owned data-movement/compute ops."""
    return (cs.kind <= _BUSY_MAX) & (cs.rank >= 0)


@dataclass(frozen=True)
class OsNoise:
    """Sporadic OS interruptions: additive exponential delays."""

    prob: float = 0.02
    mean: float = 2e-6  # seconds

    def apply(self, cs: CompiledSchedule, ens: Ensemble,
              rng: np.random.Generator) -> None:
        busy = _busy_mask(cs)
        hit = rng.random(ens.dur.shape) < self.prob
        delay = rng.exponential(self.mean, size=ens.dur.shape)
        ens.dur += np.where(hit & busy[None, :], delay, 0.0)


@dataclass(frozen=True)
class Straggler:
    """Per-sample culprit ranks whose busy ops all run slower."""

    count: int = 1
    slowdown: float = 2.0

    def apply(self, cs: CompiledSchedule, ens: Ensemble,
              rng: np.random.Generator) -> None:
        busy = _busy_mask(cs)
        nr = max(cs.nranks, 1)
        k = min(self.count, nr)
        for b in range(len(ens)):
            culprits = rng.choice(nr, size=k, replace=False)
            slow = busy & np.isin(cs.rank, culprits)
            ens.dur[b, slow] *= self.slowdown


@dataclass(frozen=True)
class FrequencySkew:
    """Persistent per-rank clock-speed spread (log-normal factor)."""

    sigma: float = 0.05

    def apply(self, cs: CompiledSchedule, ens: Ensemble,
              rng: np.random.Generator) -> None:
        busy = _busy_mask(cs)
        nr = max(cs.nranks, 1)
        factors = np.exp(rng.normal(0.0, self.sigma, size=(len(ens), nr)))
        rank_ix = np.where(cs.rank >= 0, cs.rank, 0)
        per_op = factors[:, rank_ix]  # (B, n_ops)
        ens.dur = np.where(busy[None, :], ens.dur * per_op, ens.dur)


@dataclass(frozen=True)
class ArrivalSkew:
    """Ranks enter the collective late (exponential offsets)."""

    scale: float = 5e-6  # seconds

    def apply(self, cs: CompiledSchedule, ens: Ensemble,
              rng: np.random.Generator) -> None:
        nr = max(cs.nranks, 1)
        skew = rng.exponential(self.scale, size=(len(ens), nr))
        if ens.start_times is None:
            ens.start_times = skew
        else:
            ens.start_times = ens.start_times + skew


#: named perturbation models for the CLI (``--perturb-model``)
MODELS: Dict[str, Tuple] = {
    "os-noise": (OsNoise(),),
    "straggler": (Straggler(),),
    "freq-skew": (FrequencySkew(),),
    "arrival": (ArrivalSkew(),),
    "mixed": (OsNoise(), Straggler(), FrequencySkew(), ArrivalSkew()),
}


def sample_ensemble(cs: CompiledSchedule, n: int, *, seed: int,
                    model: str = "mixed",
                    dur: Optional[np.ndarray] = None) -> Ensemble:
    """Draw ``n`` perturbed input rows for ``cs`` under ``model``.

    ``dur`` substitutes base per-op durations to perturb around (the
    size-polymorphic path passes certified model durations; default
    is the captured ones)."""
    if n < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n}")
    try:
        stages = MODELS[model]
    except KeyError:
        raise ValueError(
            f"unknown perturbation model {model!r}; "
            f"choices: {', '.join(sorted(MODELS))}"
        ) from None
    base = cs.dur if dur is None else np.asarray(dur, dtype=float)
    if base.shape != cs.dur.shape:
        raise ValueError("dur must match the schedule's node count")
    rng = np.random.default_rng(seed)
    ens = Ensemble(dur=np.tile(base, (n, 1)))
    for stage in stages:
        stage.apply(cs, ens, rng)
    return ens


@dataclass
class PerturbStats:
    """Tail summary of one perturbation ensemble."""

    model: str
    n: int
    seed: int
    base: float           # unperturbed compiled time
    p50: float
    p99: float
    p999: float
    mean: float
    worst: float
    rank_p99: list = field(default_factory=list)  # per-rank p99 finish

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "seed": self.seed,
            "base": self.base,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "mean": self.mean,
            "worst": self.worst,
            "rank_p99": list(self.rank_p99),
        }


def run_ensemble(cs: CompiledSchedule, n: int, *, seed: int,
                 model: str = "mixed", chunk: int = CHUNK,
                 dur: Optional[np.ndarray] = None) -> PerturbStats:
    """Sample, replay and summarize an ``n``-row ensemble.

    The whole ensemble is sampled up front (sampling order defines the
    seeded stream), then replayed through ``evaluate_batch`` in
    ``chunk``-row slabs to bound the ``(B, n_ops)`` working set.
    ``dur`` overrides the base durations (see :func:`sample_ensemble`);
    the reported ``base`` time is the unperturbed replay of the same
    durations.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    ens = sample_ensemble(cs, n, seed=seed, model=model, dur=dur)
    times = np.empty(n)
    rank_times = np.empty((n, cs.nranks))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        st = None if ens.start_times is None else ens.start_times[lo:hi]
        res = cs.evaluate_batch(start_times=st, dur=ens.dur[lo:hi])
        times[lo:hi] = res.times
        rank_times[lo:hi] = res.rank_times
    p50, p99, p999 = np.percentile(times, TAIL_PERCENTILES)
    return PerturbStats(
        model=model,
        n=n,
        seed=seed,
        base=cs.evaluate(dur=dur).time,
        p50=float(p50),
        p99=float(p99),
        p999=float(p999),
        mean=float(times.mean()),
        worst=float(times.max()),
        rank_p99=[float(v) for v in np.percentile(rank_times, 99.0, axis=0)],
    )
