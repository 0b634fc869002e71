"""The ``python -m repro trace`` command and its case resolution."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.obs import validate_chrome_trace
from repro.obs.cli import resolve_case


class TestResolveCase:
    def test_exact_label(self):
        case = resolve_case("ma/reduce_scatter")
        assert case.collective == "ma" and case.kind == "reduce_scatter"

    def test_underscore_form(self):
        case = resolve_case("ma_reduce_scatter")
        assert case.collective == "ma" and case.kind == "reduce_scatter"

    def test_bare_collective_picks_first_kind(self):
        assert resolve_case("ma").collective == "ma"
        assert resolve_case("bcast").kind == "bcast"

    def test_bare_kind_prefers_ma(self):
        case = resolve_case("allreduce")
        assert case.collective == "ma" and case.kind == "allreduce"

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="ma/reduce_scatter"):
            resolve_case("alltoallw")


class TestTraceCommand:
    def test_exports_valid_trace_with_dav_check(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli_main(["trace", "ma_reduce_scatter", "--out", str(out),
                       "-n", "4", "-s", "4096"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "SA-DAV-OK" in text and "perfetto" in text
        doc = json.loads(out.read_text())
        validate_chrome_trace(doc)
        assert doc["otherData"]["collective"] == "ma/reduce_scatter"
        assert doc["otherData"]["counters"]["nranks"] == 4

    def test_machine_preset_and_timeline(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli_main(["trace", "allreduce", "--out", str(out),
                       "-n", "4", "--machine", "NodeA", "--timeline"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "timeline:" in text and "rank   0" in text

    def test_unknown_collective_fails_cleanly(self, tmp_path, capsys):
        rc = cli_main(["trace", "nope", "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "unknown collective" in capsys.readouterr().err
