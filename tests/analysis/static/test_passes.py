"""Static pass verdicts: seeded bugs, matrix invariants, DPOR agreement.

The acceptance bar for the analyzer: on every registered collective the
static DAV matches Theorem 3.1 byte-exactly and the deadlock pass
agrees with the DPOR checker, and all four PR-3 seeded-bug fixtures
are flagged *statically* — the only execution is the one extraction
trace per fixture.
"""

import pytest

from repro.analysis.mc import verify_case
from repro.analysis.runner import cases
from repro.analysis.static.extract import extract_case, extract_program
from repro.analysis.static.ir import Edge, OpNode, ScheduleIR
from repro.analysis.static.passes import (
    DEFAULT_PASSES,
    NUMA_CROSS_THRESHOLD,
    BufferPass,
    DeadlockPass,
    LocalityPass,
    run_passes,
)
from tests.analysis.mc.test_verify import (
    oversized_slice,
    partial_post_deadlock,
    racy_ma_reduce,
    uninit_read,
)

ALL_CASES = cases("all")


def _codes(report):
    return {f.code for f in report.findings}


@pytest.fixture(scope="module")
def matrix_reports():
    """One extraction + pass run per registered case (shared)."""
    out = []
    for case in ALL_CASES:
        ir = extract_case(case)
        out.append((case, ir, run_passes(ir)))
    return out


class TestSeededBugs:
    """All four PR-3 fixtures, flagged from one extraction trace each."""

    def test_racy_ma_reduce_flagged_by_overlap_lint(self):
        ir = extract_program(racy_ma_reduce, nranks=3, label="racy-ma")
        report = run_passes(ir)
        assert not report.ok
        codes = _codes(report)
        # rank 0 reads the shm slices while writers may still copy:
        # an unordered read-write (and the uninit reachability fires
        # too — nothing orders the producers before the consumer)
        assert "SA-BUF-RACE" in codes
        races = [f for f in report.findings if f.code == "SA-BUF-RACE"]
        assert any("rank 0 reads" in f.message for f in races)

    def test_partial_post_deadlock_flagged_by_deadlock_pass(self):
        ir = extract_program(partial_post_deadlock, nranks=2,
                             label="partial-post")
        report = run_passes(ir)
        assert not report.ok
        unsat = [f for f in report.findings if f.code == "SA-DL-UNSAT"]
        assert len(unsat) == 1
        assert "1 post(s) of 2 required" in unsat[0].message
        assert "never arrive" in unsat[0].message

    def test_oversized_slice_flagged_as_extraction_error(self):
        ir = extract_program(oversized_slice, nranks=1,
                             label="oversize")
        report = run_passes(ir)
        assert not report.ok
        errs = [f for f in report.findings
                if f.code == "SA-EXTRACT-ERROR"]
        assert len(errs) == 1
        assert "escapes" in errs[0].message

    def test_uninit_read_flagged_by_reachability(self):
        ir = extract_program(uninit_read, nranks=1, label="uninit")
        report = run_passes(ir)
        assert not report.ok
        uninit = [f for f in report.findings
                  if f.code == "SA-BUF-UNINIT"]
        assert len(uninit) == 1
        assert "no happens-before-ordered write" in uninit[0].message


# ---- shared-memory discipline, one small program per rule -----------------


def _uninit_shm_read(eng):
    shm = eng.alloc_shared(64)
    dst = eng.alloc(0, 64, fill=0.0)

    def prog(ctx):
        ctx.copy(dst.view(), shm.view())  # nobody wrote shm

    eng.run(prog, ranks=[0])


def _read_after_post_wait(eng):
    shm = eng.alloc_shared(64)
    src = eng.alloc(0, 64, fill=2.0)
    dst = eng.alloc(1, 64, fill=0.0)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.copy(shm.view(), src.view())
            ctx.post(("done",))
        else:
            yield ctx.wait(("done",))
            ctx.copy(dst.view(), shm.view())

    eng.run(prog)


def _partial_write(eng):
    shm = eng.alloc_shared(128)
    src = eng.alloc(0, 64, fill=1.0)
    dst = eng.alloc(0, 128, fill=0.0)

    def prog(ctx):
        ctx.copy(shm.view(0, 64), src.view())  # low half only
        ctx.copy(dst.view(), shm.view())       # reads all 128

    eng.run(prog, ranks=[0])


def _fill_and_random_inputs(eng):
    a = eng.alloc(0, 64, fill=1.5)
    b = eng.alloc(0, 64, random=True)
    out = eng.alloc(0, 64, fill=0.0)

    def prog(ctx):
        ctx.reduce_out(out.view(), a.view(), b.view())

    eng.run(prog, ranks=[0])


def _two_writers(eng, nbytes=64):
    shm = eng.alloc_shared(nbytes)
    srcs = [eng.alloc(r, 64, fill=float(r)) for r in range(2)]
    return shm, srcs


def _unsynchronized_writes(eng):
    shm, srcs = _two_writers(eng)

    def prog(ctx):
        ctx.copy(shm.view(), srcs[ctx.rank].view())

    eng.run(prog)


def _post_wait_separated_writes(eng):
    shm, srcs = _two_writers(eng)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.copy(shm.view(), srcs[0].view())
            ctx.post(("turn",))
        else:
            yield ctx.wait(("turn",))
            ctx.copy(shm.view(), srcs[1].view())

    eng.run(prog)


def _barrier_separated_writes(eng):
    shm, srcs = _two_writers(eng)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.copy(shm.view(), srcs[0].view())
        yield ctx.barrier((0, 1))
        if ctx.rank == 1:
            ctx.copy(shm.view(), srcs[1].view())

    eng.run(prog)


def _disjoint_writes(eng):
    shm, srcs = _two_writers(eng, nbytes=128)

    def prog(ctx):
        ctx.copy(shm.view(ctx.rank * 64, 64), srcs[ctx.rank].view())

    eng.run(prog)


def _same_rank_rewrites(eng):
    shm, srcs = _two_writers(eng)

    def prog(ctx):
        ctx.copy(shm.view(), srcs[0].view())
        ctx.copy(shm.view(), srcs[0].view())

    eng.run(prog, ranks=[0])


class TestBufferVerdicts:
    """Each program's buffer-pass verdict from its one lifted run: the
    codes it raises and where the first finding points."""

    @pytest.mark.parametrize("program,codes,where", [
        pytest.param(_uninit_shm_read, {"SA-BUF-UNINIT"}, "shm[0, 64)",
                     id="uninit_shm_read"),
        pytest.param(_read_after_post_wait, set(), "",
                     id="read_after_post_wait"),
        pytest.param(_partial_write, {"SA-BUF-UNINIT"}, "shm[64, 128)",
                     id="partial_write"),
        pytest.param(_fill_and_random_inputs, set(), "",
                     id="fill_and_random_inputs"),
        pytest.param(_unsynchronized_writes, {"SA-BUF-OVERLAP"},
                     "shm[0, 64)", id="unsynchronized_writes"),
        pytest.param(_post_wait_separated_writes, set(), "",
                     id="post_wait_separated_writes"),
        pytest.param(_barrier_separated_writes, set(), "",
                     id="barrier_separated_writes"),
        pytest.param(_disjoint_writes, set(), "", id="disjoint_writes"),
        pytest.param(_same_rank_rewrites, set(), "",
                     id="same_rank_rewrites"),
    ])
    def test_buffer_pass_verdict(self, program, codes, where):
        findings = BufferPass().run(extract_program(program, nranks=2))
        assert {f.code for f in findings} == codes
        if findings:
            assert where in findings[0].message


class TestMatrixInvariants:
    """Whole registered matrix, one extraction per case."""

    def test_every_schedule_lints_clean(self, matrix_reports):
        for case, _, report in matrix_reports:
            assert report.ok, (case.label, report.describe())

    def test_static_dav_byte_exact_everywhere(self, matrix_reports):
        """Acceptance: SA-DAV-OK (byte-exact Theorem 3.1 match) on
        every case with a model row; never EXCESS/UNDER/OBS."""
        for case, _, report in matrix_reports:
            codes = _codes(report)
            assert not codes & {"SA-DAV-EXCESS", "SA-DAV-UNDER",
                                "SA-DAV-OBS"}, case.label
            if case.dav_algorithm or case.collective in (
                    "bcast", "allgather"):
                assert "SA-DAV-OK" in codes, case.label

    def test_static_dav_matches_obs_counters(self, matrix_reports):
        for case, ir, _ in matrix_reports:
            obs = ir.meta["counters"]["totals"]["trace_dav"]
            assert ir.static_dav() == obs, case.label

    def test_critical_path_is_a_lower_bound(self, matrix_reports):
        for case, ir, report in matrix_reports:
            assert "SA-CP-INCONSISTENT" not in _codes(report), case.label
            (bound,) = [f for f in report.findings
                        if f.code == "SA-CP-BOUND"]
            assert 0 < bound.data["bound"] <= ir.meta["sim_time"], \
                case.label

    def test_single_rank_schedule_lints_clean(self):
        """p=1 has no sync slack, so the first-order op-cost model can
        land a few percent above the engine's memory-level timing; the
        CP_REL_TOL model tolerance must absorb that instead of warning
        SA-CP-INCONSISTENT on a degenerate-but-correct schedule."""
        case = next(c for c in cases("ma") if c.kind == "reduce_scatter")
        report = run_passes(extract_case(case, nranks=1))
        assert report.ok, report.describe()
        assert "SA-CP-INCONSISTENT" not in _codes(report)

    def test_locality_flags_naive_and_passes_socket_aware(
            self, matrix_reports):
        flagged = {case.collective
                   for case, _, report in matrix_reports
                   if "SA-LOC-NUMA" in _codes(report)}
        assert "ma" in flagged
        assert "socket_aware" not in flagged
        assert "ring" not in flagged

    def test_deadlock_pass_clean_everywhere(self, matrix_reports):
        dl = DeadlockPass()
        for case, ir, _ in matrix_reports:
            assert dl.run(ir) == [], case.label


class TestDporAgreement:
    """Deadlock-pass verdicts agree with exhaustive DPOR verification
    on both clean and deadlocking schedules."""

    @pytest.mark.parametrize("name", ["ma", "socket_aware"])
    def test_clean_cases_agree(self, name):
        for case in cases(name):
            dynamic = verify_case(case, nranks=3, s=384,
                                  max_schedules=400)
            ir = extract_case(case, nranks=3, s=384)
            static_ok = not DeadlockPass().run(ir)
            assert static_ok == dynamic.ok, case.label

    def test_deadlocking_program_agrees(self):
        from repro.analysis.mc import verify_program

        dynamic = verify_program(partial_post_deadlock, nranks=2,
                                 label="partial-post")
        ir = extract_program(partial_post_deadlock, nranks=2,
                             label="partial-post")
        static = DeadlockPass().run(ir)
        assert not dynamic.ok
        assert dynamic.certificate.failure == "deadlock"
        assert any(f.code == "SA-DL-UNSAT" for f in static)


class TestLocalityEscalation:
    def test_socket_contract_escalates_to_error(self):
        """A schedule declaring locality='socket' that still crosses
        sockets fails the lint outright."""
        case = [c for c in ALL_CASES if c.collective == "ma"][0]
        ir = extract_case(case)
        ir.meta["locality"] = "socket"
        findings = LocalityPass().run(ir)
        numa = [f for f in findings if f.code == "SA-LOC-NUMA"]
        assert numa and numa[0].severity == "error"
        assert "locality='socket'" in numa[0].message

    def test_threshold_separates_the_families(self, matrix_reports):
        """The calibration invariant behind NUMA_CROSS_THRESHOLD: the
        naive flat baselines sit above it, socket-aware MA below."""
        fractions = {}
        lp = LocalityPass()
        for case, ir, _ in matrix_reports:
            machine = ir.meta["machine"]
            homes = lp._byte_homes(ir, machine, ir.nranks)
            fs = lp._numa(ir, machine, ir.nranks, homes)
            fractions[case.label] = (
                fs[0].data["fraction"] if fs else 0.0)
        assert fractions["ma/allreduce"] > NUMA_CROSS_THRESHOLD
        assert fractions["socket_aware/allreduce"] == 0.0 or \
            fractions["socket_aware/allreduce"] <= NUMA_CROSS_THRESHOLD


class TestCriticalPathSocketTopology:
    """The critical-path pass prices sync edges and barrier trees from
    the machine meta's *actual* socket topology (regression: pairs were
    all priced intra-socket and the inter latency never read)."""

    INTRA, INTER = 1e-6, 7e-6

    #: 2 sockets x 2 cores, 4 compact-bound ranks: 0/1 on socket 0,
    #: 2/3 on socket 1
    MACHINE = {
        "cache_bandwidth_core": 35e9,
        "op_overhead": 0.0,
        "sync_latency_intra": INTRA,
        "sync_latency_inter": INTER,
        "sockets": 2,
        "cores_per_socket": 2,
        "binding": "compact",
    }

    def _bound(self, ir):
        from repro.analysis.static.passes import CriticalPathPass

        (finding,) = CriticalPathPass().run(ir)
        return finding.data["bound"]

    def _pair_ir(self, waiter):
        ir = ScheduleIR(meta={"nranks": 4, "machine": self.MACHINE})
        ir.add_node(OpNode(node=0, rank=0, kind="post", tag="f"))
        ir.add_node(OpNode(node=1, rank=waiter, kind="wait", tag="f",
                           count=1))
        ir.add_edge(0, 1, "sync")
        return ir

    def test_cross_socket_pair_pays_inter_latency(self):
        assert self._bound(self._pair_ir(waiter=3)) == self.INTER
        assert self._bound(self._pair_ir(waiter=1)) == self.INTRA

    def test_cross_socket_barrier_pays_inter_tree(self):
        def barrier_ir(group):
            ir = ScheduleIR(meta={"nranks": 4, "machine": self.MACHINE})
            ir.add_node(OpNode(node=0, rank=-1, kind="barrier",
                               group=group))
            return ir

        # one round over two members: 2 * 1 * latency
        assert self._bound(barrier_ir((0, 3))) == 2 * self.INTER
        assert self._bound(barrier_ir((0, 1))) == 2 * self.INTRA


class TestCyclicIR:
    def test_cycle_reported_and_pipeline_survives(self):
        nodes = [
            OpNode(node=0, rank=0, kind="wait", tag="a", count=1),
            OpNode(node=1, rank=0, kind="post", tag="b"),
            OpNode(node=2, rank=1, kind="wait", tag="b", count=1),
            OpNode(node=3, rank=1, kind="post", tag="a"),
        ]
        edges = [Edge(0, 1), Edge(2, 3),
                 Edge(1, 2, "sync"), Edge(3, 0, "sync")]
        ir = ScheduleIR(meta={"label": "cross-wait", "nranks": 2},
                        nodes=nodes, edges=edges)
        report = run_passes(ir)
        assert not report.ok
        codes = _codes(report)
        assert "SA-DL-CYCLE" in codes
        # order-dependent passes skip instead of crashing
        assert "SA-IR-INVALID" in codes
        assert len(report.passes) == len(DEFAULT_PASSES)
