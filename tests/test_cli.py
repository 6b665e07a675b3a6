"""Tests for the areplica CLI."""

import pytest

from repro.cli import build_parser, main, parse_size


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("512", 512),
            ("1KB", 1024),
            ("8MB", 8 * 1024**2),
            ("1.5GB", int(1.5 * 1024**3)),
            ("1 TB", 1024**4),
            ("100b", 100),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize(
        "text", ["", "abc", "12XB", "MB", "-5MB", "-1", "infGB", "nanMB"])
    def test_invalid(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_size(text)


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("replicate", "plan", "profile", "trace", "compare"):
            args = parser.parse_args([cmd] if cmd != "trace" else [cmd])
            assert args.command == cmd

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_zero_requests_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--requests", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["plan", "--seed", "-1"],
        ["plan", "--dst", "azure:nowhere"],
        ["plan", "--profile-samples", "1"],
        ["plan", "--slo", "-5"],
        ["plan", "--percentile", "1.5"],
        ["drill-all", "--seed", "-1"],
    ])
    def test_bad_input_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_regions_resolve_to_catalog_keys(self):
        args = build_parser().parse_args(["plan", "--src", "us-east-1"])
        assert args.src == "aws:us-east-1"


class TestCommands:
    def test_replicate(self, capsys):
        rc = main(["replicate", "--size", "1MB", "--dst", "aws:us-east-2",
                   "--profile-samples", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delay:" in out and "cost:" in out

    def test_plan_with_slo(self, capsys):
        rc = main(["plan", "--size", "128MB", "--slo", "30",
                   "--profile-samples", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parallelism:" in out
        assert "candidates:" in out

    def test_profile(self, capsys):
        rc = main(["profile", "--dst", "aws:us-east-2",
                   "--profile-samples", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "C  (per chunk)" in out

    def test_trace_small(self, capsys):
        rc = main(["trace", "--requests", "300", "--dst", "aws:us-east-2",
                   "--profile-samples", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p99.99" in out

    def test_trace_out_writes_the_chrome_export(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        rc = main(["trace", "--requests", "300", "--dst", "aws:us-east-2",
                   "--profile-samples", "4", "--trace-out", str(path),
                   "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        phases = [e["ph"] for e in json.loads(path.read_text())["traceEvents"]]
        assert report["trace_out"] == str(path)
        assert report["trace_spans"] == phases.count("X") > 0
        assert report["trace_events"] == phases.count("i") > 0
        assert report["delay_breakdown"]["C"]["count"] > 0

    def test_compare_includes_proprietary_on_aws(self, capsys):
        rc = main(["compare", "--size", "1MB", "--src", "aws:us-east-1",
                   "--dst", "aws:us-east-2", "--profile-samples", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Skyplane" in out and "S3 RTC" in out

    def test_compare_cross_cloud_no_proprietary(self, capsys):
        rc = main(["compare", "--size", "1MB", "--src", "aws:us-east-1",
                   "--dst", "gcp:us-east1", "--profile-samples", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S3 RTC" not in out and "AZ Rep" not in out

    @pytest.mark.chaos
    def test_chaos_soak_converges(self, capsys):
        rc = main(["chaos-soak", "--requests", "150",
                   "--dst", "aws:us-east-2", "--profile-samples", "4"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "RESULT: CONVERGED" in out
        assert "injected faults:" in out
        assert "dead-letter drain: converged" in out

    @pytest.mark.outage
    def test_outage_drill_passes(self, capsys):
        rc = main(["outage-drill", "--seed", "0", "--requests", "150",
                   "--profile-samples", "4"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "RESULT: PASS" in out
        assert "degraded operation:" in out
        assert "repair scan rule1: clean" in out

    @pytest.mark.outage
    def test_outage_drill_json_report(self, capsys):
        import json

        rc = main(["outage-drill", "--seed", "0", "--requests", "150",
                   "--profile-samples", "4", "--json"])
        out = capsys.readouterr().out
        assert rc == 0, out
        report = json.loads(out)
        assert report["result"] == "PASS"
        assert report["degradation_engaged"] is True
        assert report["convergence"]["converged"] is True
        assert report["repair"]["clean"] is True
        assert report["parked_backlog"] == 0
        assert "health" in report and "engine_stats" in report


class TestDrillAll:
    """``drill-all`` aggregation semantics, with the real drills stubbed
    out: one drill reporting ``pass: false`` — or crashing outright —
    must surface as a FAIL row and a nonzero exit, never as a pass by
    omission or an aborted roster.  (``repro.cli.run_drill`` resolves as
    a module global at call time, so monkeypatching it swaps in a fast
    fake for every scenario.)"""

    ROSTER = ("chaos-soak", "outage-drill", "corruption-drill",
              "hedge-drill", "lifecycle-evacuate", "lifecycle-rolling",
              "lifecycle-switchover", "tenant-drill", "autopilot-drill")

    @staticmethod
    def _stub(monkeypatch, **misbehaving):
        """Every scenario passes, except those named (underscored) in
        ``misbehaving``, which return the given report or raise the
        given exception."""
        from types import SimpleNamespace

        def run_drill(spec, *, seed):
            outcome = misbehaving.get(spec.name.replace("-", "_"))
            if isinstance(outcome, Exception):
                raise outcome
            # No "scenario" key by default: the aggregator falls back to
            # its own roster name for the row, which the tests below
            # assert against.
            return SimpleNamespace(
                report=outcome or {"seed": seed, "pass": True})

        monkeypatch.setattr("repro.cli.run_drill", run_drill)

    def test_all_pass_exits_zero_and_covers_the_roster(self, monkeypatch,
                                                       capsys):
        import json

        self._stub(monkeypatch)
        rc = main(["drill-all", "--seed", "3", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["pass"] is True
        assert [d["scenario"] for d in report["drills"]] == list(self.ROSTER)
        assert all(d["pass"] for d in report["drills"])
        assert all(d["seed"] == 3 for d in report["drills"])

    def test_pass_false_report_fails_the_aggregate(self, monkeypatch,
                                                   capsys):
        import json

        self._stub(monkeypatch, tenant_drill={
            "scenario": "tenant-drill", "seed": 0, "pass": False})
        rc = main(["drill-all", "--seed", "0", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["pass"] is False
        verdicts = {d["scenario"]: d["pass"] for d in report["drills"]}
        assert verdicts.pop("tenant-drill") is False
        assert all(verdicts.values()), "an unrelated drill got blamed"

    def test_raising_drill_is_a_fail_row_not_a_crash(self, monkeypatch,
                                                     capsys):
        import json

        self._stub(monkeypatch, outage_drill=RuntimeError("boom"))
        rc = main(["drill-all", "--seed", "0", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["pass"] is False
        # The crash neither aborted the roster nor lost its own row.
        assert len(report["drills"]) == len(self.ROSTER)
        verdicts = {d["scenario"]: d["pass"] for d in report["drills"]}
        assert verdicts["outage-drill"] is False
        assert sum(1 for v in verdicts.values() if not v) == 1
        failed = [r for r in report["reports"]
                  if r.get("scenario") == "outage-drill"]
        assert failed and "RuntimeError: boom" in failed[0]["error"]

    def test_text_mode_prints_fail_verdict(self, monkeypatch, capsys):
        self._stub(monkeypatch, hedge_drill={"pass": False})
        rc = main(["drill-all", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "RESULT: FAIL" in out
        assert out.count("PASS") == len(self.ROSTER) - 1
