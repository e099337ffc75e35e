"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import topology
from repro.experiments.faults import (
    FAULT_TIMEOUT,
    CampaignInterrupted,
    UnitFailure,
    UnitTimeout,
)

#: The committed ``benchmarks/out`` tables and the report built from them.
OUT_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "out"
REPORT_MD = OUT_DIR.parents[1] / "REPORT.md"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "magic"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "ebsn"
        assert args.packet_size is None  # the WAN's 576, or the LAN's 1536
        assert not args.lan

    @pytest.mark.parametrize(
        "argv",
        [
            ["handoff", "--seeds", "0"],
            ["congestion", "--seeds", "0"],
            ["validate", "--seeds", "0"],
            ["csdp", "--connections", "0"],
            ["sweep", "--replications", "0"],
            ["handoff", "--interval", "1", "--disconnect", "2"],
            ["run", "--transfer-kb", "0"],
            ["sweep", "--transfer-kb", "0"],
            ["profile", "--transfer-kb", "0"],
            ["csdp", "--transfer-kb", "-5"],
            ["handoff", "--transfer-kb", "0"],
            ["run", "--packet-size", "30"],
            ["profile", "--packet-size", "30"],
            ["run", "--lan", "--packet-size", "30", "--transfer-kb", "64"],
            ["profile", "--lan", "--packet-size", "99999"],
            ["run", "--bad-period", "0"],
            ["sweep", "--bad-period", "0"],
            ["run", "--lan", "--bad-period", "-1"],
            ["handoff", "--interval", "nan"],
            ["handoff", "--interval", "inf", "--seeds", "1"],
            ["profile", "--top", "-3"],
            ["profile", "--top", "0"],
            ["handoff", "--disconnect", "nan"],
            ["validate", "--scale", "0"],
            ["validate", "--scale", "-1"],
            ["validate", "--scale", "nan"],
            ["validate", "--scale", "inf"],
            ["trace", "--width", "9"],
            ["trace", "--t-max", "0"],
            ["run", "--bad-period", "inf"],
            ["sweep", "--workers", "-3"],
            ["figure", "8", "--workers", "-1"],
        ],
    )
    def test_bad_counts_and_configs_are_usage_errors(self, argv, capsys):
        """Zero counts and invalid study configs exit 2 before simulating."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"repro {argv[0]}: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--timeout", "-1"],
            ["--timeout", "0"],
            ["--timeout", "nan"],
            ["--retries", "-3"],
        ],
    )
    @pytest.mark.parametrize("command", [["sweep"], ["figure", "8"]])
    def test_bad_timeout_and_retries_are_usage_errors(self, command, flags, capsys):
        """A non-positive budget or a negative retry count exits 2
        before any unit runs."""
        with pytest.raises(SystemExit) as exc:
            main(command + flags)
        assert exc.value.code == 2
        assert f"argument {flags[0]}:" in capsys.readouterr().err

    def test_zero_retries_is_accepted(self):
        args = build_parser().parse_args(["sweep", "--retries", "0"])
        assert args.retries == 0


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "--scheme", "basic", "--transfer-kb", "10", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput" in out
        assert "goodput" in out

    def test_run_lan(self, capsys):
        code = main(
            ["run", "--lan", "--scheme", "ebsn", "--transfer-kb", "256",
             "--bad-period", "0.8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Mbps" in out


class TestTrace:
    def test_trace_renders(self, capsys):
        code = main(["trace", "--scheme", "basic", "--width", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "timeouts" in out
        assert "|" in out  # the plot body

    def test_trace_seed_reaches_the_run(self, capsys):
        """``--seed`` seeds the trace run's ARQ backoff streams: seed 3
        times out where the Fig 4 run (seed 1) does not."""
        code = main(["trace", "--scheme", "local_recovery", "--seed", "3"])
        header = capsys.readouterr().out.splitlines()[1]
        assert code == 0
        assert "timeouts=5  source retransmissions=84" in header


def swept(argv, replications, base_seed=1):
    """The sweep ``argv`` describes, as printed: the sweep spec's table,
    then the uncached campaign's completeness report."""
    from repro.cli import sweep_table
    from repro.experiments.points import run_specs

    spec = sweep_table(build_parser().parse_args(argv))
    results, campaign = run_specs({None: spec}, replications, base_seed)
    return f"{spec.render(results[None])}\n\n{campaign.report.describe()}\n"


class TestSweep:
    def test_wan_sweep(self, capsys):
        argv = ["sweep", "--scheme", "basic", "--transfer-kb", "10",
                "--replications", "1", "--no-cache"]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out == swept(argv, 1)
        assert "size(B)" in out
        assert "1536" in out
        assert "campaign: 9/9 units completed" in out

    def test_lan_sweep(self, capsys):
        argv = ["sweep", "--lan", "--transfer-kb", "64", "--replications", "1",
                "--no-cache"]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out == swept(argv, 1)
        assert "tput(Mbps)" in out
        assert "   1.6 " in out
        assert "campaign: 7/7 units completed" in out

    def test_fault_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.timeout is None
        assert args.retries is None
        assert args.resume is None
        assert args.fail_fast is False
        args = build_parser().parse_args(
            ["figure", "7", "--timeout", "30", "--retries", "1",
             "--resume", "camp.journal", "--fail-fast"]
        )
        assert args.timeout == 30.0
        assert args.retries == 1
        assert args.resume == "camp.journal"
        assert args.fail_fast is True

    def test_resume_journals_then_skips(self, capsys, tmp_path):
        journal = tmp_path / "camp.journal"
        argv = ["sweep", "--scheme", "basic", "--transfer-kb", "10",
                "--replications", "1", "--no-cache", "--resume", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "9 simulated" in first
        assert journal.is_file()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 simulated" in second
        assert "9 from journal" in second

    @pytest.mark.parametrize(
        "command", [["sweep", "--transfer-kb", "10"], ["figure", "8"]]
    )
    def test_resume_naming_a_directory_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--no-cache", "--resume", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot open journal {tmp_path}: Is a directory" in err
        assert "Traceback" not in err

    def test_partial_campaign_reports_and_exits_one(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path / "bundles"))
        original = topology.run_scenario

        def broken_seed(cfg, **kwargs):
            if cfg.seed == 2:
                raise ValueError("chaos")
            return original(cfg, **kwargs)

        monkeypatch.setattr(topology, "run_scenario", broken_seed)
        code = main(
            ["sweep", "--scheme", "basic", "--transfer-kb", "10",
             "--replications", "2", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "PARTIAL" in out

    def test_interrupt_exits_130_with_resume_hint(self, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise CampaignInterrupted(2, 3, 18, "camp.journal")

        monkeypatch.setattr("repro.experiments.points.sweep_campaign", interrupted)
        code = main(["sweep", "--replications", "2", "--no-cache"])
        err = capsys.readouterr().err
        assert code == 130
        assert "SIGINT" in err
        assert "--resume camp.journal" in err

    def test_fail_fast_abort_exits_four(self, capsys, monkeypatch):
        failure = UnitFailure(
            index=0, key=None, seed=1, scheme="basic", kind=FAULT_TIMEOUT,
            message="wall-clock budget exceeded", attempts=3,
        )

        def aborted(*args, **kwargs):
            raise UnitTimeout(failure)

        monkeypatch.setattr("repro.experiments.points.sweep_campaign", aborted)
        code = main(
            ["sweep", "--replications", "2", "--no-cache", "--fail-fast"]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "campaign aborted" in err
        assert "timeout" in err


class TestFigure:
    def test_trace_figure(self, capsys):
        code = main(["figure", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 4" in out

    @pytest.mark.parametrize(
        "number, name",
        [
            (3, "fig3_trace_basic"),
            (4, "fig4_trace_local_recovery"),
            (5, "fig5_trace_ebsn"),
        ],
    )
    def test_trace_figure_prints_the_committed_table(self, capsys, number, name):
        code = main(["figure", str(number)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (OUT_DIR / f"{name}.txt").read_text()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--replications", "3"],
            ["--workers", "2"],
            ["--no-cache"],
            ["--timeout", "5"],
            ["--retries", "1"],
            ["--resume", "j.journal"],
            ["--fail-fast"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_trace_figure_rejects_campaign_flags(self, flag, tmp_path, monkeypatch, capsys):
        """A trace figure is one run: a campaign flag is a usage error,
        not silently ignored, and ``--resume`` creates no journal."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["figure", "4", *flag])
        assert exc.value.code == 2
        assert f"error: {flag[0]}: figure 4" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "99"])
        assert exc.value.code == 2

    def test_unknown_figure_leaves_no_journal(self, tmp_path, capsys):
        """The number is rejected before ``--resume`` creates the journal."""
        journal = tmp_path / "j.journal"
        with pytest.raises(SystemExit) as exc:
            main(["figure", "6", "--resume", str(journal)])
        assert exc.value.code == 2
        assert not journal.exists()


def rendered(spec, replications, base_seed=1):
    """``spec``'s table over ``replications`` seeds, as printed."""
    from repro.experiments.points import run_specs

    results, _ = run_specs({None: spec}, replications, base_seed)
    return spec.render(results[None]) + "\n"


class TestCsdp:
    def test_csdp_table(self, capsys):
        """The command prints the benchmark table's renderer over the
        configs its flags select."""
        from repro.experiments.tables import csdp_table

        code = main(
            ["csdp", "--connections", "2", "--transfer-kb", "10", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == rendered(csdp_table(10 * 1024, 1, connections=2), 1, 3)
        assert "fifo" in out and "csdp" in out


class TestHandoffCommand:
    def test_handoff_table(self, capsys):
        from repro.experiments.tables import handoff_table

        code = main(["handoff", "--transfer-kb", "20", "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == rendered(handoff_table(20 * 1024, (8.0,), 0.3), 1)
        assert "fast_rtx" in out

    def test_unfinished_runs_are_not_averaged(self, capsys):
        """At a 1 s interval (it divides the sender's 64 s RTO cap) the
        baseline's retransmission always meets an outage and the run
        never finishes: the command aborts with one line instead of
        printing it."""
        code = main(
            ["handoff", "--interval", "1", "--transfer-kb", "6", "--seeds", "1"]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == (
            "campaign aborted: unit 0 (seed 1, scheme baseline): unfinished "
            "after 1 attempt(s) — HandoffConfig run did not complete within "
            "its simulated-time limit\n"
        )
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestCongestionCommand:
    def test_congestion_table(self, capsys):
        from repro.experiments.tables import congestion_table

        code = main(["congestion", "--seeds", "1", "--load", "0.8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == rendered(congestion_table(load=0.8), 1)
        assert "ECN" in out and "ebsn" in out


def report_names():
    """Every committed table's name, in report order."""
    from repro.experiments.figures import TRACES
    from repro.experiments.tables import TABLES

    return [*TRACES, *TABLES]


class TestReportCommand:
    @pytest.fixture
    def report(self, monkeypatch, tmp_path):
        """``repro report`` into ``tmp_path`` over the texts it is handed
        in place of a regeneration; returns the ``render_all`` calls."""
        from repro.experiments import tables

        calls = []

        def run(texts):
            def render_all(*args, **campaign):
                calls.append((args, campaign))
                return texts

            monkeypatch.setattr(tables, "render_all", render_all)
            code = main(
                ["report", "--out-dir", str(tmp_path / "out"),
                 "--output", str(tmp_path / "REPORT.md")]
            )
            assert code == 0
            return calls

        return run

    def test_report_writes_every_table_and_the_report(
        self, report, capsys, tmp_path
    ):
        from repro.experiments.tables import REPLICATIONS

        texts = {name: f"{name} table\n" for name in report_names()}
        calls = report(texts)
        assert calls == [((1.0, REPLICATIONS), {"workers": 0})]
        written = {p.stem: p.read_text() for p in (tmp_path / "out").glob("*")}
        assert written == texts
        lines = (tmp_path / "REPORT.md").read_text().splitlines()
        assert lines[2] == "Regenerated by `python -m repro report`."
        sections = [line[3:] for line in lines if line.startswith("## ")]
        assert sections == report_names()
        assert lines[lines.index("## fig7_wan_basic") + 3] == "fig7_wan_basic table"
        out = capsys.readouterr().out
        assert "s wall" in out and "s CPU" in out

    def test_report_rebuilds_the_committed_report(self, report, tmp_path):
        """``repro report`` over the committed tables' texts writes the
        committed REPORT.md, byte for byte."""
        report({name: (OUT_DIR / f"{name}.txt").read_text() for name in report_names()})
        assert (tmp_path / "REPORT.md").read_bytes() == REPORT_MD.read_bytes()

    def test_a_quarantined_unit_writes_nothing(self, capsys, monkeypatch, tmp_path):
        """The regeneration is fail-fast: an aborted campaign exits 4
        before any table or REPORT.md is written."""
        failure = UnitFailure(
            index=0, key=None, seed=1, scheme="basic", kind=FAULT_TIMEOUT,
            message="wall-clock budget exceeded", attempts=3,
        )

        def aborted(*args, **kwargs):
            raise UnitTimeout(failure)

        monkeypatch.setattr("repro.experiments.points.sweep_campaign", aborted)
        code = main(
            ["report", "--out-dir", str(tmp_path / "out"),
             "--output", str(tmp_path / "REPORT.md")]
        )
        assert code == 4
        assert "campaign aborted" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_registries_own_every_committed_table(self):
        """Every committed table has a producer in a registry, and the
        committed report's sections follow the registries' order."""
        names = report_names()
        assert sorted(p.stem for p in OUT_DIR.glob("*.txt")) == sorted(names)
        sections = [
            line[3:] for line in REPORT_MD.read_text().splitlines()
            if line.startswith("## ")
        ]
        assert sections == names
