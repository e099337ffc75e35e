"""The full failure-replay loop: violation → bundle → deterministic replay.

This is the subsystem's acceptance path: an intentionally-seeded
invariant violation must be caught, produce a replay bundle, and
``repro replay <bundle>`` must reproduce the identical violation from
the bundle alone.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.config import wan_scenario
from repro.experiments.topology import Scenario, Scheme, run_scenario
from repro.metrics.eventlog import attach_to_scenario
from repro.net.packet import pinned_uids
from repro.validate.bundle import (
    LOG_TAIL_LINES,
    decode_value,
    encode_value,
    load_bundle,
    replay_bundle,
)
from repro.validate.checkers import default_checkers
from repro.validate.engine import (
    InvariantChecker,
    InvariantViolationError,
    Validator,
    Violation,
    run_validated,
)
from repro.validate.testing import (
    BackwardsAckSender,
    CwndMutatingEbsnSender,
    ResurrectedEventSender,
)

TRANSFER = 12 * 1024


@pytest.fixture
def violating_config():
    return replace(
        wan_scenario(
            scheme=Scheme.EBSN, transfer_bytes=TRANSFER, record_trace=False
        ),
        sender_factory=CwndMutatingEbsnSender,
    )


@pytest.fixture
def bundle_path(violating_config, tmp_path):
    with pytest.raises(InvariantViolationError) as excinfo:
        run_scenario(violating_config, validate=True, bundle_dir=tmp_path)
    path = excinfo.value.bundle_path
    assert path is not None
    return path


class TestBundleContents:
    def test_bundle_records_the_failure(self, bundle_path, violating_config):
        bundle = load_bundle(bundle_path)
        assert bundle.seed == violating_config.seed
        assert bundle.config == violating_config
        assert bundle.config.sender_factory is CwndMutatingEbsnSender
        assert bundle.violations
        assert bundle.violations[0].checker == "ebsn-no-window-action"
        # The event-log tail leading up to the violation came along.
        assert bundle.event_log_tail
        assert all(" " in line for line in bundle.event_log_tail)

    def test_bundle_is_plain_json(self, bundle_path):
        payload = json.loads(open(bundle_path).read())
        assert payload["kind"] == "repro-replay-bundle"
        assert payload["format"] == 1
        assert payload["digest"]
        assert payload["code_token"]

    def test_load_rejects_non_bundles(self, tmp_path):
        impostor = tmp_path / "not-a-bundle.json"
        impostor.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a replay bundle"):
            load_bundle(impostor)

    def test_load_rejects_future_formats(self, tmp_path):
        future = tmp_path / "future.json"
        future.write_text(
            json.dumps({"kind": "repro-replay-bundle", "format": 999})
        )
        with pytest.raises(ValueError, match="format 999"):
            load_bundle(future)


def single_pass(config):
    """Tail and violations of one run logged while it is validated."""
    with pinned_uids():
        scenario = Scenario(config)
        log = attach_to_scenario(scenario)
        validator = Validator(default_checkers(scenario)).attach(scenario)
        with pytest.raises(InvariantViolationError) as excinfo:
            validator.finalize(scenario.run())
    tail = [event.to_line() for event in log.events[-LOG_TAIL_LINES:]]
    return tail, excinfo.value.violations


def bundle_of(config, directory):
    with pytest.raises(InvariantViolationError) as excinfo:
        run_scenario(config, validate=True, bundle_dir=directory)
    return excinfo.value.bundle_path


class TestRebuiltTail:
    """The re-run rebuilds exactly the tail a single logged pass holds."""

    @pytest.mark.parametrize(
        "sender, scheme",
        [(CwndMutatingEbsnSender, Scheme.EBSN), (BackwardsAckSender, Scheme.BASIC)],
        ids=["cwnd-mutating-ebsn", "backwards-ack"],
    )
    def test_tail_matches_a_single_logged_pass(self, sender, scheme, tmp_path):
        config = replace(
            wan_scenario(
                scheme=scheme, transfer_bytes=TRANSFER, record_trace=False
            ),
            sender_factory=sender,
        )
        tail, violations = single_pass(config)
        payload = json.loads(Path(bundle_of(config, tmp_path)).read_text())
        assert tail
        assert payload["event_log_tail"] == tail
        assert payload["violations"] == [
            {"checker": v.checker, "time": v.time, "message": v.message}
            for v in violations
        ]

    def test_same_failure_gives_identical_bundles(self, violating_config,
                                                  tmp_path):
        first = bundle_of(violating_config, tmp_path / "a")
        second = bundle_of(violating_config, tmp_path / "b")
        assert Path(first).read_bytes() == Path(second).read_bytes()


class TestReplay:
    def test_replay_reproduces_the_violation(self, bundle_path):
        outcome = replay_bundle(load_bundle(bundle_path))
        assert outcome.reproduced
        assert outcome.code_matches
        assert outcome.violations[0].checker == "ebsn-no-window-action"
        # Determinism: the replay hits the violation at the same time
        # with the same message.
        assert outcome.violations[0] == outcome.bundle.violations[0]

    def test_replay_reproduces_a_timer_sanity_violation(self, tmp_path):
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=ResurrectedEventSender,
        )
        outcome = replay_bundle(load_bundle(bundle_of(config, tmp_path)))
        assert outcome.reproduced
        assert outcome.violations[0].checker == "timer-sanity"

    def test_replay_does_not_mint_new_bundles(self, bundle_path, tmp_path):
        before = sorted(tmp_path.glob("violation-*.json"))
        replay_bundle(load_bundle(bundle_path))
        assert sorted(tmp_path.glob("violation-*.json")) == before

    def test_clean_config_does_not_reproduce(self, bundle_path, tmp_path):
        # Doctor the bundle to a healthy sender: the replay must come
        # back clean and reproduced=False.
        payload = json.loads(open(bundle_path).read())
        payload["config"]["fields"]["sender_factory"] = None
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(payload))
        outcome = replay_bundle(load_bundle(doctored))
        assert not outcome.reproduced
        assert outcome.violations == ()


class TestReplayCli:
    def test_cli_replay_reproduces(self, bundle_path, capsys):
        from repro.cli import main

        assert main(["replay", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCED" in out
        assert "ebsn-no-window-action" in out

    def test_cli_replay_loads_the_bundle_once(self, bundle_path, monkeypatch,
                                              capsys):
        from repro.cli import main
        from repro.validate import bundle

        loads = []
        load = bundle.load_bundle

        def counting(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(bundle, "load_bundle", counting)
        assert main(["replay", str(bundle_path)]) == 0
        assert loads == [str(bundle_path)]

    def test_cli_replay_missing_bundle(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["replay", str(tmp_path / "nope.json")]) == 2

    def test_cli_replay_clean_run_exits_one(self, bundle_path, tmp_path, capsys):
        from repro.cli import main

        payload = json.loads(open(bundle_path).read())
        payload["config"]["fields"]["sender_factory"] = None
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(payload))
        assert main(["replay", str(doctored)]) == 1

    def test_cli_replay_unknown_field_exits_2(self, bundle_path, tmp_path, capsys):
        """A bundle naming a config field the code no longer has is a
        load error, not a traceback."""
        from repro.cli import main

        payload = json.loads(open(bundle_path).read())
        payload["config"]["fields"]["retired_knob"] = None
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload))
        assert main(["replay", str(stale)]) == 2
        err = capsys.readouterr().err
        assert "cannot load bundle" in err
        assert "ScenarioConfig has no field retired_knob" in err

    def test_cli_surfaces_violation_and_bundle(self, tmp_path, monkeypatch,
                                               capsys):
        """A validated CLI run that violates exits 3 and names the bundle."""
        from repro import cli

        monkeypatch.setenv("REPRO_BUNDLE_DIR", str(tmp_path))
        real = cli.run_scenario

        def sabotaged_run_scenario(config, **kwargs):
            config = replace(config, sender_factory=CwndMutatingEbsnSender)
            return real(config, **kwargs)

        monkeypatch.setattr(cli, "run_scenario", sabotaged_run_scenario)
        rc = cli.main(
            ["run", "--scheme", "ebsn", "--transfer-kb", "12", "--validate"]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "invariant violation" in err
        assert "ebsn-no-window-action" in err
        assert "replay bundle written" in err
        assert list(tmp_path.glob("violation-*.json"))


class AlwaysReports(InvariantChecker):
    """A checker that flags every run it finishes."""

    name = "always-reports"

    def finalize(self, scenario, result, report):
        report("forced violation")


class TestCongestedReplay:
    """A congested run's violation is bundled and replayed on the
    congested topology, not on the plain Fig. 2 one."""

    @pytest.fixture
    def congested_bundle(self, tmp_path):
        from repro.experiments.congestion import (
            CongestedScenario,
            CongestedScenarioConfig,
        )

        config = CongestedScenarioConfig(cross_load=0.9)
        with pytest.raises(InvariantViolationError) as excinfo:
            run_validated(
                CongestedScenario(config),
                bundle_dir=tmp_path,
                checkers=[AlwaysReports()],
            )
        assert excinfo.value.violations[0].checker == "always-reports"
        return excinfo.value.bundle_path

    def test_violation_is_bundled_with_its_config_and_log(self, congested_bundle):
        from repro.experiments.congestion import CongestedScenarioConfig

        bundle = load_bundle(congested_bundle)
        assert bundle.config == CongestedScenarioConfig(cross_load=0.9)
        assert bundle.violations[0].message == "forced violation"
        assert bundle.event_log_tail

    def test_cli_replay_runs_the_congested_topology(
        self, congested_bundle, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.experiments.congestion import CongestedScenario

        runs = []
        real_run = CongestedScenario.run

        def counted_run(scenario, **kwargs):
            runs.append(scenario)
            return real_run(scenario, **kwargs)

        monkeypatch.setattr(CongestedScenario, "run", counted_run)
        assert main(["replay", str(congested_bundle)]) == 1
        assert "no violation reproduced" in capsys.readouterr().out
        assert len(runs) == 1

    def test_cli_replay_of_a_handoff_watchdog_bundle_exits_1(self, tmp_path, capsys):
        """A study's hang bundle replays on its own topology, under the
        checkers; the clean re-run reproduces no violation."""
        from repro.cli import main
        from repro.handoff import HandoffConfig
        from repro.validate.bundle import write_bundle

        path = write_bundle(
            HandoffConfig(), [Violation("watchdog", 1.0, "hung")], None, tmp_path
        )
        assert main(["replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "seed 1, HandoffConfig" in out
        assert "no violation reproduced" in out

    def test_cli_replay_of_an_unregistered_type_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        from repro.handoff import HandoffConfig
        from repro.tcp import TcpConfig
        from repro.validate.bundle import write_bundle

        path = write_bundle(
            HandoffConfig(), [Violation("watchdog", 1.0, "hung")], None, tmp_path
        )
        payload = json.loads(path.read_text())
        payload["config"] = encode_value(TcpConfig())
        path.write_text(json.dumps(payload))
        assert main(["replay", str(path)]) == 2
        assert "TcpConfig is not a registered campaign unit" in capsys.readouterr().err


class TestEncoding:
    def test_config_round_trips(self, violating_config):
        assert decode_value(encode_value(violating_config)) == violating_config

    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "text", [1, "a"], (2, 3)):
            encoded = encode_value(value)
            decoded = decode_value(encoded)
            if isinstance(value, tuple):
                assert decoded == list(value)
            else:
                assert decoded == value

    def test_enums_round_trip_with_module(self):
        encoded = encode_value(Scheme.EBSN)
        assert "repro.experiments.topology" in encoded["__enum__"]
        assert decode_value(encoded) is Scheme.EBSN

    def test_classes_round_trip(self):
        encoded = encode_value(CwndMutatingEbsnSender)
        assert decode_value(encoded) is CwndMutatingEbsnSender

    def test_unencodable_value_is_an_error(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_value(object())
