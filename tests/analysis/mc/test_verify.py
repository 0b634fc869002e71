"""End-to-end verification: seeded-bug fixtures must each produce a
replayable failing schedule certificate; the registered collectives
must verify clean with full exploration at p=3."""

import pytest

from repro.__main__ import main
from repro.analysis.mc import (
    replay_certificate,
    verify_case,
    verify_collective,
    verify_program,
)
from repro.analysis.mc.verify import BUFFER_FAILURES
from repro.analysis.runner import cases
from repro.analysis.static.passes import BufferPass
from repro.sim.replay import certificate_from_json, certificate_to_json

#: a certificate exactly as earlier writers of ``repro-schedule/1``
#: emitted it, with the retired ``sanitize`` field
LEGACY_CERT = """{
  "schema": "repro-schedule/1",
  "case": "ma/reduce",
  "collective": "ma",
  "kind": "reduce",
  "nranks": 2,
  "s": 1023,
  "choices": [],
  "failure": "error",
  "detail": "ValueError: 1023 bytes is not a whole number of float64 elements",
  "seed": 12345,
  "sanitize": false
}"""


# ---- seeded-bug fixtures ---------------------------------------------------


def racy_ma_reduce(eng):
    """An MA-style reduce with the consumer's waits removed: rank 0
    reduces the shm slices while the writers may still be copying."""
    p, s = eng.nranks, 192
    shm = eng.alloc_shared(p * s)
    sends = [eng.alloc(r, s, random=True, name=f"send[{r}]")
             for r in range(p)]
    recv = eng.alloc(0, s, fill=0.0, name="recv")

    def prog(ctx):
        r = ctx.rank
        ctx.copy(shm.view(r * s, s), sends[r].view())
        ctx.post(("in", r))
        if r == 0:
            # BUG: should wait(("in", src)) before reading each slice
            acc = recv.view()
            ctx.copy(acc, shm.view(0, s))
            for src in range(1, p):
                ctx.reduce_acc(acc, shm.view(src * s, s))
        yield ctx.barrier(tuple(range(p)))

    eng.run(prog)


def partial_post_deadlock(eng):
    """Rank 0 posts once; rank 1 waits for two posts."""

    def prog(ctx):
        if ctx.rank == 0:
            ctx.post(("chunk",))
        else:
            yield ctx.wait(("chunk",), 2)

    eng.run(prog)


def oversized_slice(eng):
    """A sub-slice that escapes its view (the satellite bounds check)."""
    buf = eng.alloc(0, 128, fill=1.0)
    out = eng.alloc(0, 128, fill=0.0)

    def prog(ctx):
        v = buf.view(64, 64)
        ctx.copy(out.view(0, 64), v.sub(32, 64))  # escapes by 32 bytes
        yield ctx.barrier((0,))

    eng.run(prog, ranks=[0])


def uninit_read(eng):
    """Reads a shared region nobody produced.  The segment is
    zero-filled, so the output is right, but no write or fill is
    ordered before the read."""
    shm = eng.alloc_shared(64)
    out = eng.alloc(0, 64, fill=0.0)

    def prog(ctx):
        ctx.copy(out.view(), shm.view())
        yield ctx.barrier((0,))

    eng.run(prog, ranks=[0])


class TestSeededBugs:
    def test_racy_reduce_yields_race_certificate(self):
        res = verify_program(racy_ma_reduce, nranks=3, label="racy-ma")
        assert not res.ok
        cert = res.certificate
        assert cert.failure in ("race", "divergence")
        assert cert.case == "racy-ma"
        # the witness prefix is minimized: shorter than a full schedule
        sched_len = res.schedules  # at least one execution happened
        assert sched_len >= 1

    def test_racy_reduce_divergence_found(self):
        """Some interleaving must actually change the reduced output."""
        res = verify_program(racy_ma_reduce, nranks=3, label="racy-ma",
                             max_schedules=200)
        assert not res.ok

    def test_partial_post_deadlock_certificate(self):
        res = verify_program(partial_post_deadlock, nranks=2,
                             label="partial-post")
        assert not res.ok
        assert res.certificate.failure == "deadlock"
        # satellite (b): the diagnosis names the have/required counts
        assert "1 post(s) of 2 required" in res.certificate.detail
        assert "never arrive" in res.certificate.detail

    def test_oversized_slice_certificate(self):
        res = verify_program(oversized_slice, nranks=1, label="oversize")
        assert not res.ok
        assert res.certificate.failure == "error"
        assert "escapes view" in res.certificate.detail

    def test_uninit_read_certificate(self):
        res = verify_program(uninit_read, nranks=1, label="uninit")
        assert not res.ok
        assert res.certificate.failure == "uninit"
        assert "1 uninitialized read(s)" in res.certificate.detail
        assert "shm[0, 64)" in res.certificate.detail

    def test_buffer_failures_cover_every_buffer_pass_code(self):
        covered = [c for _, codes, _ in BUFFER_FAILURES for c in codes]
        assert sorted(covered) == sorted(BufferPass.codes)


class TestCertificates:
    def test_round_trip_json(self):
        res = verify_program(partial_post_deadlock, nranks=2,
                             label="partial-post")
        cert = res.certificate
        restored = certificate_from_json(certificate_to_json(cert))
        assert restored == cert

    def test_bad_schema_rejected(self):
        text = certificate_to_json(
            verify_program(partial_post_deadlock, nranks=2,
                           label="x").certificate
        ).replace("repro-schedule/1", "repro-schedule/99")
        with pytest.raises(ValueError,
                           match=r"schema.*supported.*repro-schedule/1"):
            certificate_from_json(text)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            certificate_from_json("[]")

    def test_missing_schema_names_supported_versions(self):
        with pytest.raises(ValueError, match="repro-schedule/1"):
            certificate_from_json("{}")

    def test_legacy_certificate_loads_and_replays(self, tmp_path, capsys):
        cert = certificate_from_json(LEGACY_CERT)
        assert (cert.case, cert.failure) == ("ma/reduce", "error")
        assert "sanitize" not in certificate_to_json(cert)
        path = tmp_path / "ma_reduce.cert.json"
        path.write_text(LEGACY_CERT)
        assert main(["verify", "--replay", str(path)]) == 0
        assert "certificate reproduced: [error]" in capsys.readouterr().out

    def test_unknown_field_still_rejected(self):
        text = LEGACY_CERT.replace('"sanitize"', '"sanitise"')
        with pytest.raises(ValueError, match="unknown certificate fields"):
            certificate_from_json(text)

    def test_registered_case_certificate_replays(self):
        """A certificate for a registered collective re-runs through
        replay_certificate and reproduces its failure kind."""
        # build a failing certificate by verifying a racy variant under
        # the registered ma/reduce label so replay can find the case
        ma = [c for c in cases("ma") if c.kind == "reduce"][0]
        res = verify_case(ma, nranks=3, s=192)
        assert res.ok  # the real ma/reduce is clean
        # replay of a clean case's empty-prefix "certificate" reports
        # non-reproduction rather than crashing
        from repro.sim.replay import ScheduleCertificate

        fake = ScheduleCertificate(case="ma/reduce", collective="ma",
                                   kind="reduce", nranks=3, s=192,
                                   choices=[], failure="race", detail="")
        outcome = replay_certificate(fake)
        assert not outcome.reproduced


class TestRegisteredCollectives:
    @pytest.mark.parametrize("name,kind,budget", [
        ("ma", "reduce", 200),
        ("rg", "allreduce", 100),
    ])
    def test_acceptance_cases_fully_explored(self, name, kind, budget):
        case = [c for c in cases(name) if c.kind == kind][0]
        res = verify_case(case, nranks=3, s=192, max_schedules=budget)
        assert res.ok, res.describe()
        assert res.complete, "exploration should exhaust within budget"
        assert res.schedules > 1, "conflicting steps must fork schedules"

    def test_exploration_pinned_at_p3(self):
        """The whole matrix at p=3, s=256 explores exactly these
        schedule counts (the CI ``verify-exhaustive`` step).  A count
        moves if any step footprint or sync tag that feeds the DPOR
        conflict relation moves."""
        results = verify_collective("all", nranks=3, s=256,
                                    max_schedules=300)
        assert all(r.ok and r.complete for r in results)
        assert {r.label: r.schedules for r in results} == {
            "ma/reduce_scatter": 49, "ma/allreduce": 98, "ma/reduce": 49,
            "socket_aware/reduce_scatter": 8,
            "socket_aware/allreduce": 16, "socket_aware/reduce": 8,
            "ring/reduce_scatter": 23, "ring/allreduce": 124,
            "rabenseifner/reduce_scatter": 6,
            "rabenseifner/allreduce": 6,
            "dpml/reduce_scatter": 2, "dpml/allreduce": 4,
            "dpml/reduce": 2, "dpml2/allreduce": 28,
            "rg/allreduce": 12, "rg/reduce": 2,
            "bcast/bcast": 4, "allgather/allgather": 2,
            "ordered/allreduce": 33, "ordered/reduce": 33,
            "vector/reduce_scatter_v": 49, "vector/allgather_v": 2,
        }

    def test_verify_collective_all_kinds(self):
        results = verify_collective("dpml", nranks=3, s=192,
                                    max_schedules=50)
        assert results and all(r.ok for r in results)

    def test_unknown_collective_rejected(self):
        with pytest.raises(ValueError, match="unknown collective"):
            verify_collective("nope")
