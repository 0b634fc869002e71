"""Vendor baseline model tests: functional correctness everywhere plus
the mechanism-level properties the paper attributes to each."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.baselines import (
    CMABcast,
    CMARingAllreduce,
    MPICHAllreduce,
    XPMEMAllreduce,
    XPMEMReduceScatter,
    make_vendor_suites,
)
from repro.collectives.common import run_collective
from repro.sim.engine import Engine

from tests.conftest import TINY

KB = 1024


class TestVendorSuitesFunctional:
    @pytest.mark.parametrize("vendor", sorted(make_vendor_suites()))
    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_all_collectives_correct(self, vendor, p):
        suite = make_vendor_suites()[vendor]
        for alg, policy in suite.values():
            eng = Engine(p, functional=True)
            run_collective(alg, eng, 8 * 250, copy_policy=policy, imax=512)

    @pytest.mark.parametrize("vendor", sorted(make_vendor_suites()))
    def test_with_machine(self, vendor):
        suite = make_vendor_suites()[vendor]
        for alg, policy in suite.values():
            eng = Engine(8, machine=TINY, functional=True)
            run_collective(alg, eng, 8 * KB, copy_policy=policy, imax=KB)

    def test_suites_cover_all_five_collectives(self):
        for vendor, suite in make_vendor_suites().items():
            assert set(suite) == {
                "reduce_scatter", "reduce", "allreduce", "bcast", "allgather"
            }, vendor


class TestXPMEMProperties:
    def test_lowest_dav_of_all_reductions(self):
        """Direct access: no staging copies at all for reduce-scatter."""
        s = 32 * KB
        eng = Engine(8, machine=TINY, functional=False)
        res = run_collective(XPMEMReduceScatter(), eng, s)
        # 3I per reduce, p-1 reduces per partition: 3s(p-1) + nothing
        assert res.dav == 3 * s * 7

    def test_cross_socket_loads_hit_numa(self):
        eng = Engine(8, machine=TINY, functional=False)
        s = 256 * KB  # per-rank buffers exceed TINY's cache
        res = run_collective(XPMEMReduceScatter(), eng, s)
        assert res.traffic.numa_bytes + res.traffic.c2c_bytes > 0

    def test_allreduce_memmove_crossover(self):
        """NT engages only once s/p crosses the memmove threshold: the
        Figure 15 crossover mechanism."""
        p = 8
        thr = TINY.memmove_nt_threshold  # 256 KB
        small = Engine(p, machine=TINY, functional=False, trace=True)
        run_collective(XPMEMAllreduce(), small, p * thr // 2)
        assert small.trace.copy_bytes(nt=True) == 0
        big = Engine(p, machine=TINY, functional=False, trace=True)
        run_collective(XPMEMAllreduce(), big, p * thr)
        assert big.trace.copy_bytes(nt=True) > 0

    @given(p=st.integers(2, 6), s_units=st.integers(1, 200))
    @settings(max_examples=15, deadline=None)
    def test_property_correct(self, p, s_units):
        eng = Engine(p, functional=True)
        run_collective(XPMEMAllreduce(), eng, 8 * s_units)


class TestCMAProperties:
    def test_kernel_copies_never_nt(self):
        eng = Engine(8, machine=TINY, functional=False, trace=True)
        run_collective(CMARingAllreduce(), eng, 4 << 20)
        assert eng.trace.copy_bytes(nt=True) == 0

    def test_one_to_all_contention(self):
        """CMA bcast contends on the root's page locks (Table 5) — the
        page-walk serialization grows with the message size."""
        s = 4 << 20
        eng1 = Engine(8, machine=TINY, functional=False)
        t_cma = run_collective(CMABcast(), eng1, s).time
        from repro.collectives.bcast import PIPELINED_BCAST

        eng2 = Engine(8, machine=TINY, functional=False)
        t_shm = run_collective(PIPELINED_BCAST, eng2, s,
                               copy_policy="adaptive",
                               imax=64 * KB).time
        assert t_cma > 1.3 * t_shm

    def test_intel_faster_than_openmpi(self):
        """Intel MPI = same mechanism, tighter kernel tuning."""
        s = 1 << 20
        eng1 = Engine(8, machine=TINY, functional=False)
        t_ompi = run_collective(
            CMARingAllreduce("o", kernel_factor=1.0), eng1, s).time
        eng2 = Engine(8, machine=TINY, functional=False)
        t_impi = run_collective(
            CMARingAllreduce("i", kernel_factor=0.5), eng2, s).time
        assert t_impi < t_ompi


class TestMPICHProperties:
    def test_cell_overhead_slows_it_down(self):
        from repro.collectives.rabenseifner import RABENSEIFNER_ALLREDUCE

        s = 1 << 20
        eng1 = Engine(8, machine=TINY, functional=False)
        t_plain = run_collective(RABENSEIFNER_ALLREDUCE, eng1, s).time
        eng2 = Engine(8, machine=TINY, functional=False)
        t_mpich = run_collective(MPICHAllreduce(), eng2, s).time
        assert t_mpich > t_plain
