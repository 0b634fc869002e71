"""The analysis matrix, linted case by case, and the ``python -m repro
lint`` CLI over it."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.runner import collectives
from repro.analysis.static.lint import (
    lint_all,
    lint_collective,
    render_reports,
)
from repro.machine.spec import PRESETS


class TestMatrix:
    def test_registry_covers_issue_matrix(self):
        names = set(collectives())
        assert {"ma", "ring", "rabenseifner", "rg", "dpml", "socket_aware",
                "bcast", "allgather", "ordered", "vector"} <= names

    @pytest.mark.parametrize("name", ["ma", "ring", "bcast", "vector"])
    def test_collective_analyzes_clean(self, name):
        reports = lint_collective(name, nranks=4, s=2048, machine=None)
        assert reports
        for report in reports:
            assert report.ok, f"{report.case}:\n{report.describe()}"

    def test_all_sweeps_whole_matrix(self):
        reports = lint_all(nranks=4, s=2048, machine=None)
        assert len(reports) >= 20
        assert all(r.ok for r in reports)

    def test_machine_preset_run(self):
        reports = lint_collective("socket_aware", machine=PRESETS["NodeB"],
                                  nranks=6, s=2048)
        assert all(r.ok for r in reports)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown collective"):
            lint_collective("nosuch")

    def test_render_mentions_every_case(self):
        reports = lint_collective("ma", nranks=4, s=2048, machine=None)
        text = render_reports(reports)
        for report in reports:
            assert report.case in text
        assert "3/3 schedules lint clean" in text


class TestNonPowerOfTwo:
    """Both Rabenseifner rows and the two-level DPML row hold at rank
    counts where the halving preamble folds ranks or a socket holds a
    single rank."""

    @pytest.mark.parametrize("p", [2, 3, 5, 6, 7])
    @pytest.mark.parametrize("name", ["rabenseifner", "dpml2"])
    def test_dav_rows_exact(self, name, p):
        for report in lint_collective(name, nranks=p, s=2048,
                                      machine=None):
            assert report.ok, report.describe()
            codes = [f.code for f in report.findings
                     if f.pass_name == "dav"]
            assert codes == ["SA-DAV-OK"], report.describe()


class TestCLI:
    def test_analyze_clean_exit_zero(self, capsys):
        rc = main(["lint", "ma", "-n", "4", "-s", "2048",
                   "--machine", "none"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ma/allreduce" in out
        assert "3/3 schedules lint clean" in out

    def test_analyze_machine_preset(self, capsys):
        rc = main(["lint", "bcast", "-n", "4", "-s", "2048",
                   "--machine", "NodeB", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        (bound,) = [f for c in doc["cases"] for f in c["findings"]
                    if f["code"] == "SA-CP-BOUND"]
        assert bound["data"]["simulated"] > 0  # timed on the NodeB model

    def test_analyze_unknown_collective_exit_two(self, capsys):
        rc = main(["lint", "nosuch"])
        assert rc == 2
        assert "unknown collective" in capsys.readouterr().err
