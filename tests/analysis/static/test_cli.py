"""The ``python -m repro lint`` CLI, its ``--json`` document and the
``YHCCL.lint()`` surface."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.static.ir import ir_from_json


class TestLintCLI:
    def test_single_collective_exit_zero(self, capsys):
        rc = main(["lint", "socket_aware"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "socket_aware/allreduce" in out
        assert "3/3 schedules lint clean" in out

    def test_all_matrix_clean(self, capsys):
        rc = main(["lint", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "22/22 schedules lint clean" in out

    def test_naive_ma_warns_numa_but_exits_zero(self, capsys):
        rc = main(["lint", "ma"])
        out = capsys.readouterr().out
        assert rc == 0  # warnings never fail the lint
        assert "SA-LOC-NUMA" in out

    def test_json_output_schema(self, capsys):
        rc = main(["lint", "ma", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["schema"] == "repro-lint/1"
        assert doc["ok"] is True
        assert len(doc["cases"]) == 3
        case = doc["cases"][0]
        assert case["signature"]["static_dav"] > 0
        for f in case["findings"]:
            assert {"code", "severity", "message", "pass",
                    "case", "nodes"} <= set(f)

    def test_ir_out_round_trips(self, tmp_path, capsys):
        rc = main(["lint", "ma", "--ir-out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        files = sorted(tmp_path.glob("*.ir.json"))
        assert len(files) == 3
        ir = ir_from_json(files[0].read_text())
        assert ir.meta["collective"] == "ma"
        assert ir.static_dav() > 0

    def test_machine_none_skips_machine_passes(self, capsys):
        rc = main(["lint", "ma", "--machine", "none", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        codes = {f["code"] for c in doc["cases"] for f in c["findings"]}
        assert "SA-LOC-NUMA" not in codes
        assert "SA-DAV-OK" in codes  # byte accounting needs no machine

    def test_unknown_collective_exit_two(self, capsys):
        rc = main(["lint", "nosuch"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown collective" in err


class TestCertifyRegionsCLI:
    def test_unknown_kind_exit_two(self, capsys):
        rc = main(["lint", "nosuch", "--certify-regions"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown collective kind" in err
        assert "allreduce" in err  # names the known kinds

    def test_machine_none_exit_two(self, capsys):
        rc = main(["lint", "all", "--certify-regions",
                   "--machine", "none"])
        assert rc == 2
        assert "machine preset" in capsys.readouterr().err

    def test_bad_p_list_exit_two(self, capsys):
        rc = main(["lint", "all", "--certify-regions",
                   "--certify-p", "two"])
        assert rc == 2

    def test_one_kind_json_certifies(self, capsys, monkeypatch):
        # pin a tiny sweep so the CLI test stays fast; the CI
        # certify-regions step runs the real default matrix
        import repro.analysis.static.symbolic as symbolic

        real = symbolic.certify_matrix

        def small(machine, **kw):
            kw["sweep"] = {"bcast": [8192, 16384]}
            kw["ps"] = (2,)
            return real(machine, **kw)

        monkeypatch.setattr(symbolic, "certify_matrix", small)
        rc = main(["lint", "bcast", "--certify-regions", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["ok"] is True
        codes = {f["code"] for c in doc["cases"] for f in c["findings"]}
        assert "SA-SYM-GUARD-OK" in codes
        assert "SA-SYM-EXACT-OK" in codes
        assert "SA-SYM-DAV-OK" in codes or "SA-SYM-DAV-SKIP" in codes
        assert "SA-SYM-BOUNDS-OK" in codes


class TestAnalyzeJson:
    def test_findings_on_stdout_progress_on_stderr(self, capsys):
        rc = main(["lint", "ma", "-n", "4", "-s", "2048", "--machine",
                   "none", "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(captured.out)  # stdout is the document alone
        assert doc["schema"] == "repro-lint/1"
        assert doc["ok"] is True
        assert {c["case"] for c in doc["cases"]} == {
            "ma/reduce_scatter", "ma/allreduce", "ma/reduce"}
        assert captured.err == ""

    def test_dav_findings_share_shape_with_lint(self, capsys):
        rc = main(["lint", "ma", "-n", "4", "-s", "2048", "--machine",
                   "none", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        davs = [f for c in doc["cases"] for f in c["findings"]
                if f["code"] == "SA-DAV-OK"]
        assert len(davs) == 3
        assert davs[0]["data"]["measured"] == davs[0]["data"]["predicted"]


class TestYhcclLint:
    @pytest.fixture()
    def lib(self):
        from repro.library.communicator import Communicator
        from repro.library.yhccl import YHCCL
        from repro.machine.spec import PRESETS

        return YHCCL(Communicator(4, machine=PRESETS["NodeA"]))

    def test_selected_schedule_lints_clean(self, lib):
        report = lib.lint("allreduce", 8192)
        assert report.ok, report.describe()
        assert {"extract", "deadlock", "dav", "buffers", "locality",
                "critical-path"} <= set(report.passes)

    def test_socket_aware_selection_keeps_contract(self, lib):
        # large messages select the socket-aware hierarchy; its
        # locality contract must hold statically
        report = lib.lint("reduce_scatter", 1 << 20)
        assert report.ok, report.describe()

    @pytest.mark.parametrize(
        "kind,nbytes",
        [("reduce_scatter", 1 << 20), ("allreduce", 8192),
         ("allreduce", 1 << 22), ("reduce", 1 << 20),
         ("bcast", 65536), ("allgather", 65536)],
    )
    def test_dav_checked_not_skipped(self, lib, kind, nbytes):
        # the registry identity lookup must recover the Table 1-3 row
        # for whatever the switching logic selects — a SKIP here means
        # the DAV contract silently stopped being enforced
        report = lib.lint(kind, nbytes)
        codes = [f.code for f in report.findings if f.pass_name == "dav"]
        assert codes == ["SA-DAV-OK"], report.describe()
