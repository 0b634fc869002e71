"""Model validation: the algebraic timing model vs the event simulator.

`repro.models.timing.predict_time` estimates completion time from the
DAV closed forms, a store-path traffic multiplier and a sync-step
count — no event simulation, no cache state.  This bench quantifies how
far that first-order estimate lands from the simulator across
algorithms and sizes: a coarse-model sanity report in the spirit of the
paper's own analytical tables.
"""

import pytest

from repro.collectives.common import run_collective
from repro.collectives.ma import MA_ALLREDUCE
from repro.collectives.ring import RING_ALLREDUCE
from repro.collectives.socket_aware import SOCKET_MA_ALLREDUCE
from repro.machine.spec import KB, MB, NODE_A
from repro.models.timing import predict_time
from repro.sim.engine import Engine

from repro.bench import Benchmark

from harness import RESULTS_DIR, fmt_size

BENCH = Benchmark(name="model_validation", custom="run_validation")

SIZES = [256 * KB, 2 * MB, 16 * MB, 64 * MB]
CASES = [
    ("ma", MA_ALLREDUCE, True),
    ("socket-ma", SOCKET_MA_ALLREDUCE, True),
    ("ring", RING_ALLREDUCE, False),
]


def run_validation():
    out = {}
    for name, alg, nt in CASES:
        out[name] = {}
        for s in SIZES:
            eng = Engine(64, machine=NODE_A, functional=False)
            sim = run_collective(
                alg, eng, s,
                copy_policy="adaptive" if nt else "memmove",
                imax=256 * KB, iterations=2,
            ).time
            model = predict_time("allreduce", name, s, 64, NODE_A,
                                 imax=256 * KB, nt_stores=nt)
            out[name][s] = (sim, model)
    return out


def test_model_validation(benchmark):
    rows = benchmark.pedantic(run_validation, rounds=1, iterations=1)
    lines = [
        "Model validation: algebraic estimate vs event simulator "
        "(NodeA allreduce, p=64)",
        "=" * 72,
        "",
        f"{'algorithm':<12}{'size':>8}{'simulated':>13}{'model':>13}"
        f"{'model/sim':>11}",
    ]
    for name, _, _ in CASES:
        for s in SIZES:
            sim, model = rows[name][s]
            lines.append(
                f"{name:<12}{fmt_size(s):>8}{sim * 1e6:>11.1f}us"
                f"{model * 1e6:>11.1f}us{model / sim:>11.2f}"
            )
    lines += [
        "",
        "the first-order model carries the DAV ordering but no cache",
        "state; agreement within ~4x on bandwidth-bound sizes is its",
        "design target (see repro/models/timing.py)",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "model_validation.txt").write_text(text + "\n")
    print("\n" + text)
    for name, _, _ in CASES:
        for s in SIZES:
            sim, model = rows[name][s]
            ratio = model / sim
            assert 0.2 < ratio < 5.0, (name, fmt_size(s), ratio)
    # the model must preserve the headline ordering at large sizes
    s = 64 * MB
    assert rows["ma"][s][1] < rows["ring"][s][1]
