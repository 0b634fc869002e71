"""Symbolic-size schedule certification: the piecewise-affine domain,
structural unification, the four certificate checks, and the
collective × p matrix the CI ``certify-regions`` step gates on."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.analysis.static.ir import ir_to_json
from repro.analysis.static.symbolic import (
    DEFAULT_VALIDATE,
    Affine,
    SymbolicError,
    SymbolicSchedule,
    capture_region_ir,
    certify_matrix,
    certify_region,
    check_guard_partition,
    unify,
)
from repro.bench.spec import yhccl_spec
from repro.machine.spec import NODE_A

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_symbolic.json").read_text())

KINDS = ("allgather", "allreduce", "bcast", "reduce", "reduce_scatter")


class TestAffine:
    def test_fit_inverts_exactly(self):
        f = Affine.fit(8192, 3 * 8192 + 64, 16384, 3 * 16384 + 64)
        assert f.a == 3 and f.b == 64
        assert f.at(8192) == 3 * 8192 + 64
        assert f.at(10 ** 9) == 3 * 10 ** 9 + 64

    def test_const(self):
        f = Affine.const(42)
        assert f.is_const and f.at(1) == f.at(10 ** 12) == 42

    def test_describe(self):
        assert Affine(Fraction(21), Fraction(0)).describe() == "21*s"
        assert Affine(Fraction(3, 4), Fraction(16)).describe() == \
            "3/4*s + 16"
        assert Affine.const(5).describe() == "5"

    def test_json_round_trip(self):
        f = Affine(Fraction(5, 8), Fraction(-3))
        assert Affine.from_json(f.to_json()) == f

    def test_non_integral_evaluation_rejected(self):
        f = Affine(Fraction(1, 3), Fraction(0))
        with pytest.raises(SymbolicError) as exc:
            f.at(8)
        assert exc.value.code == "SA-SYM-EXACT"

    def test_fit_needs_two_distinct_sizes(self):
        with pytest.raises(SymbolicError) as exc:
            Affine.fit(8, 1, 8, 2)
        assert exc.value.code == "SA-SYM-SHAPE"


@pytest.fixture(scope="module")
def small_allreduce_cert():
    """One certified region reused across the doc/instantiation tests
    (certification captures five engine runs — do it once)."""
    sym, report = certify_region(yhccl_spec("allreduce"), NODE_A, 2, 8192)
    assert report.ok, [f.message for f in report.errors]
    # the p=2 dpml2 cell is the regression case for DAV-row mapping:
    # its 15s count only matches the two-level "dpml2" model row — the
    # flat dpml row predicts 11s, and an unmapped bench label would
    # skip the identity check entirely
    assert sym.meta["dav_algorithm"] == "dpml2"
    codes = [f.code for f in report.findings]
    assert "SA-SYM-DAV-OK" in codes, codes
    assert "SA-SYM-DAV-SKIP" not in codes
    return sym


class TestGoldenSignatures:
    """Certify the p={2,4} region at base 8 KB for every collective
    family and pin the symbolic signature — DAV slope, DAG census,
    variable-footprint counts.  A drifting signature means either the
    algorithms changed shape or the symbolic lift broke."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", [2, 4])
    def test_signature_matches_golden(self, kind, p):
        sym, report = certify_region(yhccl_spec(kind), NODE_A, p, 8192)
        assert report.ok, [f.message for f in report.errors]
        assert sym.signature() == GOLDEN[f"{kind}/p{p}"]
        # at least DEFAULT_VALIDATE held-out sizes verified bitwise
        # (the exactness pass already asserted the match; pin the count)
        assert len(sym.validated) >= DEFAULT_VALIDATE


class TestHeldOutExactness:
    """Acceptance: symbolic DAV and byte footprints evaluated at sizes
    *not* used for unification match a fresh engine capture bitwise."""

    def test_fresh_capture_matches_symbolic(self, small_allreduce_cert):
        sym = small_allreduce_cert
        held_out = [s for s in sym.validated
                    if s not in sym.anchors][:DEFAULT_VALIDATE]
        assert len(held_out) >= 3
        for s in held_out:
            cap = capture_region_ir(yhccl_spec("allreduce"), NODE_A, 2, s)
            inst = sym.instantiate(s)
            assert [  # footprints, bitwise
                (n.kind, n.nbytes, n.reads, n.writes) for n in inst.nodes
            ] == [
                (n.kind, n.nbytes, n.reads, n.writes) for n in cap.nodes
            ]
            assert inst.static_dav() == cap.static_dav()
            assert sym.dav().at(s) == cap.static_dav()

    def test_instantiate_outside_residue_class_rejected(
            self, small_allreduce_cert):
        sym = small_allreduce_cert
        with pytest.raises(SymbolicError) as exc:
            sym.instantiate(sym.lo + 8)  # breaks s ≡ residue (mod M)
        assert exc.value.code == "SA-SYM-RANGE"


class TestUnify:
    def test_mis_unified_shapes_rejected(self):
        # 8 KB (one 8 KB reduction block) and 16 KB (two) are congruent
        # mod the region modulus but execute differently-shaped DAGs:
        # unification must fail with SA-SYM-SHAPE, never interpolate
        spec = yhccl_spec("allreduce")
        a = capture_region_ir(spec, NODE_A, 2, 8192)
        b = capture_region_ir(spec, NODE_A, 2, 16384)
        with pytest.raises(SymbolicError) as exc:
            unify([(8192, a), (16384, b)], modulus=256)
        assert exc.value.code == "SA-SYM-SHAPE"

    def test_non_congruent_sizes_rejected(self):
        spec = yhccl_spec("allreduce")
        a = capture_region_ir(spec, NODE_A, 2, 8192)
        b = capture_region_ir(spec, NODE_A, 2, 8200)
        with pytest.raises(SymbolicError) as exc:
            unify([(8192, a), (8200, b)], modulus=256)
        assert exc.value.code == "SA-SYM-RANGE"

    def test_needs_two_distinct_sizes(self):
        spec = yhccl_spec("allreduce")
        a = capture_region_ir(spec, NODE_A, 2, 8192)
        with pytest.raises(SymbolicError):
            unify([(8192, a)], modulus=256)


class TestGuardPartition:
    """Satellite: guard predicates are mutually exclusive and
    exhaustive over the default size sweeps (property test — no
    captures, pure guard evaluation)."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("p", [2, 4])
    def test_default_sweep_partitions(self, kind, p):
        from repro.bench.runners import resolve_imax
        from repro.bench.sizes import SIZES_ALLGATHER, SIZES_LARGE

        sizes = SIZES_ALLGATHER if kind == "allgather" else SIZES_LARGE
        findings = check_guard_partition(
            kind, p, NODE_A, imax=resolve_imax(None, NODE_A),
            policy="adaptive", sizes=sizes)
        errors = [f for f in findings if f.severity == "error"]
        assert errors == []
        assert any(f.code == "SA-SYM-GUARD-OK" for f in findings)

    def test_unknown_kind_is_a_finding_not_a_crash(self):
        findings = check_guard_partition(
            "alltoall", 4, NODE_A, imax=256 * 1024,
            policy="adaptive", sizes=[1024])
        assert any(f.code == "SA-SYM-GUARD" and f.severity == "error"
                   for f in findings)


class TestCertificateDoc:
    def test_round_trip_preserves_schedule(self, small_allreduce_cert):
        sym = small_allreduce_cert
        clone = SymbolicSchedule.from_doc(sym.to_doc())
        assert clone.signature() == sym.signature()
        assert clone.anchors == sym.anchors
        assert clone.modulus == sym.modulus
        s = sym.anchors[0]
        assert (ir_to_json(clone.instantiate(s))
                == ir_to_json(sym.instantiate(s)))
        assert clone.compiled_nbytes(s) == sym.compiled_nbytes(s)

    def test_unknown_schema_rejected_naming_supported(
            self, small_allreduce_cert):
        doc = small_allreduce_cert.to_doc()
        doc["schema"] = "repro-symcert/99"
        with pytest.raises(SymbolicError, match="repro-symcert/1") as exc:
            SymbolicSchedule.from_doc(doc)
        assert exc.value.code == "SA-SYM-SCHEMA"


class TestCertifyMatrix:
    def test_small_matrix_certifies(self):
        reports = certify_matrix(
            NODE_A, kinds=["bcast"], ps=(2,),
            sweep={"bcast": [8192, 16384]})
        assert reports and all(r.ok for r in reports)
        # one guard report + one certification per distinct region
        assert any("guards" in r.case for r in reports)

    def test_cap_reports_skipped_regions(self):
        # 16 MB sits above an 8 KB cap in its own region: it must be
        # *reported* as capped, and must not get a certification report
        reports = certify_matrix(
            NODE_A, kinds=["bcast"], ps=(2,), max_base=8192,
            sweep={"bcast": [8192, 16 * 1024 * 1024]})
        guard = next(r for r in reports if "guards" in r.case)
        capped = [f for f in guard.findings if f.code == "SA-SYM-CAPPED"]
        assert capped and 16 * 1024 * 1024 in capped[0].data["bases"]
        assert all("s=16777216" not in r.case for r in reports)
