"""Bitwise pins of the applications' multi-node timings.

The floats were recorded from the original two-level allreduce model
on the tiny test machine (p=8); the hierarchy layer must reproduce
them exactly, so the comparisons are ``==``, never ``approx``.
"""

import pytest

from repro.apps.cnn import CNNTrainer, resnet50
from repro.apps.miniamr import MiniAMR, MiniAMRConfig
from repro.library.communicator import Communicator

from tests.conftest import TINY

#: (implementation, nnodes) -> (total_time, comm_time)
MINIAMR = {
    ("YHCCL", 1): (0.1402577696, 0.009185769600000004),
    ("YHCCL", 4): (0.1564691616, 0.025397161599999996),
    ("Open MPI", 1): (0.1382696256, 0.0071976256),
    ("Open MPI", 4): (0.1576057216, 0.026533721600000004),
}

#: (implementation, nnodes) -> (iter_time, comm_time)
CNN = {
    ("YHCCL", 1): (30.912, 0.23753214695000047),
    ("YHCCL", 4): (30.912, 0.16486793288749982),
    ("Open MPI", 1): (39.940232372, 9.028232372000002),
    ("Open MPI", 4): (40.305625329, 9.393625329),
}


def comm8():
    return Communicator(8, machine=TINY, functional=False)


@pytest.mark.parametrize("impl,nnodes", sorted(MINIAMR))
def test_miniamr_times_pinned(impl, nnodes):
    cfg = MiniAMRConfig(block_size=8, blocks_per_rank=4, num_refine=400,
                        num_tsteps=4, simulated_refines=20)
    res = MiniAMR(comm8(), cfg, implementation=impl, nnodes=nnodes).run()
    assert (res.total_time, res.comm_time) == MINIAMR[impl, nnodes]


@pytest.mark.parametrize("impl,nnodes", sorted(CNN))
def test_cnn_times_pinned(impl, nnodes):
    res = CNNTrainer(comm8(), resnet50(), implementation=impl,
                     nnodes=nnodes).iteration()
    assert (res.iter_time, res.comm_time) == CNN[impl, nnodes]
