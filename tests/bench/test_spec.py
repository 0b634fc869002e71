"""Declarative specs, registry resolution and the slice-cap/size fixes."""

import pytest

from repro.bench import (
    Benchmark,
    RunnerSpec,
    SweepSpec,
    allgather_spec,
    bcast_spec,
    reduce_spec,
    resolve_imax,
    vendor_spec,
    yhccl_spec,
)
from repro.bench.registry import resolve_algorithm
from repro.bench.spec import FAMILY_KINDS
from repro.bench.sizes import quick_subsample
from repro.collectives.switching import platform_imax
from repro.copyengine.primitives import POLICIES
from repro.machine.spec import KB, MB, NODE_A, NODE_B


class TestRunnerSpec:
    @pytest.mark.parametrize("spec", [
        reduce_spec("ma", "allreduce"),
        reduce_spec("rg", "reduce", branch=2, slice_size=128 * KB),
        bcast_spec("pipelined", "adaptive", imax=1 * MB),
        allgather_spec("pipelined", "nt"),
        yhccl_spec("reduce_scatter"),
        vendor_spec("Intel MPI", "bcast"),
    ])
    def test_describe_roundtrip(self, spec):
        assert RunnerSpec.from_dict(spec.describe()) == spec

    def test_describe_is_pure_data(self):
        import json

        spec = reduce_spec("rg", "allreduce", branch=2)
        json.dumps(spec.describe())

    def test_params_order_canonical(self):
        a = reduce_spec("rg", "reduce", branch=2, slice_size=1)
        b = reduce_spec("rg", "reduce", slice_size=1, branch=2)
        assert a == b

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown runner family"):
            RunnerSpec(family="alltoall", kind="alltoall")

    @pytest.mark.parametrize("family,kind", [
        ("bcast", "allreduce"),
        ("reduce", "bcast"),
        ("allgather", "reduce_scatter"),
        ("hierarchy", "bcast"),
        ("yhccl", "alltoall"),
        ("vendor", "alltoall"),
    ])
    def test_family_contradicting_kind_rejected(self, family, kind):
        """A spec may not name a kind its family does not run (a bcast
        spec of kind allreduce used to resolve to ma-allreduce)."""
        with pytest.raises(ValueError, match="cannot run kind") as exc:
            RunnerSpec(family=family, kind=kind, algorithm="ma")
        for allowed in FAMILY_KINDS[family]:
            assert allowed in str(exc.value)

    @pytest.mark.parametrize("family,kind,policy", [
        ("reduce", "allreduce", "bogus"),
        ("reduce", "allreduce", "kernel"),
        ("bcast", "bcast", ""),
        ("yhccl", "allreduce", "NT"),
    ])
    def test_unknown_policy_rejected(self, family, kind, policy):
        """A spec may not carry a copy policy no store-path rule decides
        (it used to enter describe() and fail at the cell's first copy)."""
        with pytest.raises(ValueError, match="unknown copy policy") as exc:
            RunnerSpec(family=family, kind=kind, algorithm="ma",
                       policy=policy)
        for allowed in POLICIES:
            assert allowed in str(exc.value)

    def test_known_policies_keep_their_descriptor(self):
        for policy in POLICIES:
            spec = reduce_spec("ma", "allreduce", policy)
            assert spec.describe()["policy"] == policy
            assert RunnerSpec.from_dict(spec.describe()) == spec

    def test_guard_policy(self):
        # the library stack always runs the adaptive switch
        assert yhccl_spec("allreduce").guard_policy == "adaptive"
        assert reduce_spec("ma", "allreduce", "nt").guard_policy == "nt"
        assert bcast_spec("pipelined").guard_policy == "memmove"


class TestRegistry:
    def test_resolves_known_algorithm(self):
        alg = resolve_algorithm("ma", "allreduce")
        assert alg.name == "ma-allreduce"

    def test_rg_params_build_constructor(self):
        alg = resolve_algorithm(
            "rg", "reduce", (("branch", 2), ("slice_size", 128 * KB)))
        assert "rg" in alg.name

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="ring"):
            resolve_algorithm("quantum", "allreduce")

    def test_unknown_kind_lists_variants(self):
        with pytest.raises(KeyError, match="variant"):
            resolve_algorithm("ring", "alltoall")


class TestResolveImax:
    """An explicit imax of 0 is an error, not the platform default."""

    def test_none_selects_platform_default(self):
        assert resolve_imax(None, NODE_A) == platform_imax(NODE_A)
        assert resolve_imax(None, NODE_B) == 128 * KB

    def test_explicit_value_passes_through(self):
        assert resolve_imax(64 * KB, NODE_A) == 64 * KB

    @pytest.mark.parametrize("bad", [0, -1, -64 * 1024])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="positive"):
            resolve_imax(bad, NODE_A)

    @pytest.mark.parametrize("bad", [True, 1.5, "256K"])
    def test_non_int_rejected(self, bad):
        with pytest.raises(ValueError, match="int or None"):
            resolve_imax(bad, NODE_A)


class TestQuickSubsample:
    """Smoke grids must keep both sweep endpoints."""

    def test_keeps_first_and_last(self):
        sizes = list(range(0, 11))
        assert quick_subsample(sizes) == [0, 3, 6, 9, 10]

    def test_no_duplicate_when_last_already_kept(self):
        assert quick_subsample([1, 2, 3, 4]) == [1, 4]
        assert quick_subsample([1, 2, 3, 4, 5, 6, 7]) == [1, 4, 7]

    def test_largest_size_always_survives(self):
        from repro.bench import sizes as sz

        for grid in ([64 * KB, 1 * MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB],
                     [8 * KB] * 5 + [8 * MB]):
            assert quick_subsample(grid)[-1] == grid[-1]
        # the module-level grids end at the paper's largest sizes
        assert max(sz.SIZES_LARGE) == 256 * MB
        assert max(sz.SIZES_WIDE) == 256 * MB
        assert max(sz.SIZES_ALLGATHER) == 8 * MB

    def test_degenerate_grids(self):
        assert quick_subsample([]) == []
        assert quick_subsample([7]) == [7]


class TestSweepSpec:
    def test_size_axis_cells(self, tiny_sweep):
        cells = list(tiny_sweep.cells())
        assert len(cells) == 4
        assert [c["impl"] for c in cells] == ["MA", "MA", "Ring", "Ring"]
        assert all(c["p"] == 8 for c in cells)
        assert cells[0]["nbytes"] == cells[0]["x"] == 64 * KB

    def test_ranks_axis_cells(self):
        spec = SweepSpec(
            name="scal", title="scal", machine="NodeA", p=0,
            sizes=(2, 4, 8), impls=(("Y", yhccl_spec("allreduce")),),
            axis="ranks", fixed_size=64 * MB,
        )
        cells = list(spec.cells())
        assert [c["p"] for c in cells] == [2, 4, 8]
        assert all(c["nbytes"] == 64 * MB for c in cells)
        assert [c["x"] for c in cells] == [2, 4, 8]

    def test_ranks_axis_requires_fixed_size(self):
        with pytest.raises(ValueError, match="fixed_size"):
            SweepSpec(name="s", title="s", machine="NodeA", p=0,
                      sizes=(2,), impls=(), axis="ranks")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(name="s", title="s", machine="NodeA", p=8,
                      sizes=(1,), impls=(), axis="cores")


class TestBenchmark:
    def test_requires_exactly_one_shape(self):
        with pytest.raises(ValueError, match="exactly one"):
            Benchmark(name="none")
        with pytest.raises(ValueError, match="exactly one"):
            Benchmark(name="both", custom="run",
                      sweeps=(SweepSpec(name="s", title="s", machine="NodeA",
                                        p=8, sizes=(1,), impls=()),))

    def test_sweep_lookup(self, tiny_bench):
        assert tiny_bench.sweep("tiny_allreduce").p == 8
        with pytest.raises(KeyError, match="tiny_allreduce"):
            tiny_bench.sweep("missing")
