"""Machine specification tests: presets, topology, cache capacity."""

import dataclasses
import importlib

import pytest

from repro.bench.discover import benchmarks_dir, ensure_importable
from repro.machine.spec import (
    CLUSTER_C,
    NODE_A,
    NODE_B,
    PRESETS,
    CacheSpec,
    SocketSpec,
    available_cache_capacity,
    GB_S,
    KB,
    MB,
    US,
)
from tests.conftest import TINY


class TestCacheSpec:
    def test_line_count(self):
        c = CacheSpec(size=1 * MB, line_size=64)
        assert c.n_lines == 16384

    def test_sets(self):
        c = CacheSpec(size=1 * MB, line_size=64, associativity=16)
        assert c.n_sets == 1024

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            CacheSpec(size=0)

    def test_rejects_unaligned_size(self):
        with pytest.raises(ValueError):
            CacheSpec(size=100, line_size=64)


class TestSocketSpec:
    def test_effective_capacity_inclusive(self):
        s = CLUSTER_C.socket
        assert s.l3.inclusive
        assert s.effective_cache_capacity == s.l3.size

    def test_effective_capacity_non_inclusive(self):
        s = NODE_A.socket
        assert not s.l3.inclusive
        assert s.effective_cache_capacity == s.l3.size + 32 * 512 * KB

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            SocketSpec(cores=0, l2_per_core=CacheSpec(size=64 * KB),
                       l3=CacheSpec(size=1 * MB), mem_bandwidth=GB_S)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            SocketSpec(cores=2, l2_per_core=CacheSpec(size=64 * KB),
                       l3=CacheSpec(size=1 * MB), mem_bandwidth=0.0)


class TestPresets:
    @pytest.mark.parametrize("machine,cores", [
        (NODE_A, 64), (NODE_B, 48), (CLUSTER_C, 24),
    ])
    def test_total_cores(self, machine, cores):
        assert machine.total_cores == cores

    def test_node_a_matches_paper(self):
        # 2x 32-core EPYC 7452, 256 MB non-inclusive L3, 512 KB L2
        assert NODE_A.sockets == 2
        assert NODE_A.socket.l3.size == 256 * MB
        assert not NODE_A.socket.l3.inclusive
        assert NODE_A.socket.l2_per_core.size == 512 * KB

    def test_node_b_matches_paper(self):
        assert NODE_B.socket.cores == 24
        assert NODE_B.socket.l3.size == 66 * MB
        assert NODE_B.socket.l2_per_core.size == 1 * MB

    def test_cluster_c_inclusive_l3(self):
        assert CLUSTER_C.socket.l3.inclusive


class TestTopology:
    def test_compact_binding_fills_sockets_in_order(self):
        # 64 ranks on NodeA: first 32 on socket 0
        assert NODE_A.socket_of_rank(0, 64) == 0
        assert NODE_A.socket_of_rank(31, 64) == 0
        assert NODE_A.socket_of_rank(32, 64) == 1
        assert NODE_A.socket_of_rank(63, 64) == 1

    def test_partial_occupancy_spreads(self):
        # 8 ranks on NodeA spread 4+4 (ceil split)
        socks = [NODE_A.socket_of_rank(r, 8) for r in range(8)]
        assert socks == [0] * 4 + [1] * 4

    def test_ranks_on_socket_partitions_all(self):
        for p in (7, 48):
            all_ranks = sorted(
                sum((NODE_B.ranks_on_socket(p, s) for s in range(2)), [])
            )
            assert all_ranks == list(range(p))

    def test_validate_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            NODE_A.validate_nranks(65)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            NODE_A.socket_of_rank(-1, 4)


class TestAvailableCacheCapacity:
    def test_node_a_paper_value(self):
        # Section 5.4: C = 294912 KB on NodeA with p=64
        assert available_cache_capacity(NODE_A, 64) == 294912 * KB

    def test_node_b_paper_value(self):
        # Section 5.4: C = 116736 KB on NodeB with p=48
        assert available_cache_capacity(NODE_B, 48) == 116736 * KB

    def test_inclusive_llc_is_just_l3(self):
        assert available_cache_capacity(CLUSTER_C, 24) == CLUSTER_C.socket.l3.size

    def test_with_override(self):
        m = NODE_A.with_(sync_latency_intra=1e-6)
        assert m.sync_latency_intra == 1e-6
        assert m.socket is NODE_A.socket


class TestBindingPolicies:
    def test_scatter_round_robins(self):
        m = NODE_A.with_(binding="scatter")
        assert [m.socket_of_rank(r, 8) for r in range(8)] == [0, 1] * 4

    def test_compact_fills_in_order(self):
        assert [NODE_A.socket_of_rank(r, 8) for r in range(8)] == \
            [0] * 4 + [1] * 4

    def test_unknown_binding_rejected(self):
        with pytest.raises(ValueError, match="binding"):
            NODE_A.with_(binding="random")

    def test_scatter_keeps_socket_populations_balanced(self):
        m = NODE_A.with_(binding="scatter")
        for p in (7, 48, 64):
            counts = [len(m.ranks_on_socket(p, s)) for s in range(2)]
            assert abs(counts[0] - counts[1]) <= 1

    def test_node_d_preset(self):
        from repro.machine.spec import NODE_D

        assert NODE_D.sockets == 4
        assert NODE_D.total_cores == 64
        assert not NODE_D.socket.l3.inclusive


class TestMachineConstants:
    @pytest.mark.parametrize("field,value", [
        ("cache_bandwidth_core", 0.0),
        ("cache_bandwidth_core", -1.0),
        ("numa_bandwidth", 0.0),
        ("numa_bandwidth", -1.0),
        ("numa_latency_factor", 0.0),
        ("numa_latency_factor", -1.0),
        ("kernel_page_size", 0),
        ("kernel_page_size", -4096),
        ("sync_latency_intra", -1e-6),
        ("sync_latency_inter", -1e-6),
        ("op_overhead", -1e-6),
        ("kernel_page_overhead", -1e-6),
        ("kernel_syscall_overhead", -1e-6),
        ("xpmem_attach_overhead", -1e-6),
    ])
    def test_impossible_constant_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(NODE_A, **{field: value})

    def test_zero_latencies_and_overheads_allowed(self):
        m = NODE_A.with_(sync_latency_intra=0.0, sync_latency_inter=0.0,
                         op_overhead=0.0, kernel_page_overhead=0.0,
                         kernel_syscall_overhead=0.0,
                         xpmem_attach_overhead=0.0)
        assert m.op_overhead == 0.0

    def test_shipped_machines_construct(self):
        machines = [*PRESETS.values(), TINY]
        ensure_importable(benchmarks_dir())
        sync = importlib.import_module("bench_ablation_sync")
        binding = importlib.import_module("bench_ablation_binding")
        machines += [NODE_A.with_(sync_latency_intra=lat * US,
                                  sync_latency_inter=2.5 * lat * US)
                     for lat in sync.LATENCIES_US]
        machines += [NODE_A.with_(binding=b) for b in binding.BINDINGS]
        for m in machines:
            assert dataclasses.replace(m) == m
