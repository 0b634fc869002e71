"""Property-based DAV exactness: for *random* message sizes, rank
counts and slice caps, the simulator's counted traffic equals the
closed-form implementation formulas byte-for-byte.

This is the strongest fidelity contract in the suite: any accounting
slip, mis-sized copy, or duplicated/missing operation in any algorithm
breaks an equality here.
"""

from hypothesis import given, settings, strategies as st

from repro.collectives.common import run_collective
from repro.collectives.dpml import DPML_ALLREDUCE, DPML_REDUCE, DPML_REDUCE_SCATTER
from repro.collectives.ma import MA_ALLREDUCE, MA_REDUCE, MA_REDUCE_SCATTER
from repro.collectives.rg import RGAllreduce, RGReduce
from repro.collectives.ring import RING_ALLREDUCE, RING_REDUCE_SCATTER
from repro.collectives.socket_aware import (
    SOCKET_MA_ALLREDUCE,
    SOCKET_MA_REDUCE,
    SOCKET_MA_REDUCE_SCATTER,
)
from repro.machine.spec import CacheSpec, MachineSpec, SocketSpec, GB_S
from repro.models.dav import implementation_dav
from repro.sim.engine import Engine

KB = 1024


def machine_for(p: int) -> MachineSpec:
    """A 2-socket machine with exactly ``p`` cores (p even)."""
    return MachineSpec(
        name=f"prop{p}",
        sockets=2,
        socket=SocketSpec(
            cores=p // 2,
            l2_per_core=CacheSpec(size=64 * KB),
            l3=CacheSpec(size=1 << 20, inclusive=False),
            mem_bandwidth=10.0 * GB_S,
        ),
    )


CASES = [
    ("reduce_scatter", "ma", MA_REDUCE_SCATTER),
    ("allreduce", "ma", MA_ALLREDUCE),
    ("reduce", "ma", MA_REDUCE),
    ("reduce_scatter", "socket-ma", SOCKET_MA_REDUCE_SCATTER),
    ("allreduce", "socket-ma", SOCKET_MA_ALLREDUCE),
    ("reduce", "socket-ma", SOCKET_MA_REDUCE),
    ("reduce_scatter", "ring", RING_REDUCE_SCATTER),
    ("allreduce", "ring", RING_ALLREDUCE),
    ("reduce_scatter", "dpml", DPML_REDUCE_SCATTER),
    ("allreduce", "dpml", DPML_ALLREDUCE),
    ("reduce", "dpml", DPML_REDUCE),
]


@given(
    case=st.integers(0, len(CASES) - 1),
    p_half=st.integers(1, 4),
    s_units=st.integers(1, 800),
    imax_units=st.integers(8, 64),
)
@settings(max_examples=80, deadline=None)
def test_dav_exact_for_random_shapes(case, p_half, s_units, imax_units):
    kind, name, alg = CASES[case]
    p = 2 * p_half
    s = 8 * s_units
    eng = Engine(p, machine=machine_for(p), functional=False)
    res = run_collective(alg, eng, s, imax=8 * imax_units)
    assert res.dav == implementation_dav(kind, name, s, p, m=2)


@given(
    p_half=st.integers(1, 4),
    s_units=st.integers(1, 400),
    k=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_rg_dav_exact_for_random_shapes(p_half, s_units, k):
    p = 2 * p_half
    s = 8 * s_units
    for kind, alg in (
        ("allreduce", RGAllreduce(branch=k, slice_size=512)),
        ("reduce", RGReduce(branch=k, slice_size=512)),
    ):
        eng = Engine(p, machine=machine_for(p), functional=False)
        res = run_collective(alg, eng, s)
        assert res.dav == implementation_dav(kind, "rg", s, p, k=k)
