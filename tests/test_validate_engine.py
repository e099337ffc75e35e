"""Tests for the runtime invariant-validation engine.

Two directions: clean scenarios across every scheme family must report
zero violations (validation is not allowed to cry wolf), and the
fault-injection doubles in :mod:`repro.validate.testing` must each be
caught by the checker that guards their invariant (a validator that
has never failed is untested).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.config import (
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.engine.simulator import Simulator
from repro.experiments.topology import Scenario, Scheme, run_scenario
from repro.metrics import eventlog
from repro.validate import engine
from repro.validate.engine import (
    InvariantViolationError,
    Violation,
    run_validated,
    set_default_validation,
    validation_default,
)
from repro.validate.testing import (
    BackwardsAckSender,
    CwndMutatingEbsnSender,
    ResurrectedEventSender,
)

TRANSFER = 12 * 1024


def validated(config):
    """Run one config under the engine without writing bundles."""
    return run_scenario(config, validate=True, bundle_dir=False)


class TestCleanScenarios:
    """The five paper figure scenario families validate clean."""

    @pytest.mark.parametrize("figure", [3, 4, 5])
    def test_trace_figures_validate_clean(self, figure):
        schemes = {3: Scheme.BASIC, 4: Scheme.LOCAL_RECOVERY, 5: Scheme.EBSN}
        result = validated(trace_example_scenario(schemes[figure]))
        assert result.completed

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_wan_schemes_validate_clean(self, scheme):
        result = validated(
            wan_scenario(
                scheme=scheme, transfer_bytes=TRANSFER, record_trace=False
            )
        )
        assert result.completed

    @pytest.mark.parametrize("scheme", [Scheme.BASIC, Scheme.EBSN])
    def test_lan_schemes_validate_clean(self, scheme):
        result = validated(
            lan_scenario(scheme=scheme, transfer_bytes=128 * 1024)
        )
        assert result.completed

    @pytest.mark.parametrize("variant", ["tahoe", "reno", "newreno"])
    def test_tcp_variants_validate_clean(self, variant):
        result = validated(
            wan_scenario(
                transfer_bytes=TRANSFER,
                tcp_variant=variant,
                record_trace=False,
            )
        )
        assert result.completed


class TestObserverPurity:
    """A validated run must be bit-identical to an unvalidated one."""

    @pytest.mark.parametrize(
        "scheme", [Scheme.BASIC, Scheme.EBSN, Scheme.SPLIT]
    )
    def test_validation_does_not_perturb_the_run(self, scheme):
        config = wan_scenario(
            scheme=scheme, transfer_bytes=TRANSFER, record_trace=False
        )
        plain = run_scenario(config, validate=False)
        checked = validated(config)

        def fingerprint(result):
            return (
                result.metrics.duration,
                result.metrics.segments_sent,
                result.metrics.retransmissions,
                result.metrics.timeouts,
                result.metrics.throughput_bps,
            )

        assert fingerprint(plain) == fingerprint(checked)


class TestFaultInjection:
    def test_ebsn_window_mutation_is_caught(self, tmp_path):
        config = replace(
            wan_scenario(
                scheme=Scheme.EBSN, transfer_bytes=TRANSFER, record_trace=False
            ),
            sender_factory=CwndMutatingEbsnSender,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            run_scenario(config, validate=True, bundle_dir=tmp_path)
        err = excinfo.value
        assert err.violations
        assert err.violations[0].checker == "ebsn-no-window-action"
        assert err.bundle_path is not None

    def test_backwards_ack_is_caught(self):
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=BackwardsAckSender,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            validated(config)
        assert excinfo.value.violations[0].checker == "tcp-state"

    @pytest.mark.parametrize(
        "config, when",
        [
            # No heap compaction on this WAN run: the end-of-run audit
            # catches the miscount.
            (wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
             "at end of run"),
            # Nor on this LAN run (0 compactions: timers re-arm lazily
            # and ARQ ack events are cancelled once each, so dead
            # entries never outnumber live ones).
            (lan_scenario(scheme=Scheme.EBSN, transfer_bytes=512 * 1024),
             "at end of run"),
        ],
        ids=["wan", "lan"],
    )
    def test_resurrected_cancelled_event_is_caught(self, config, when):
        config = replace(config, sender_factory=ResurrectedEventSender)
        with pytest.raises(InvariantViolationError) as excinfo:
            validated(config)
        violation = excinfo.value.violations[0]
        assert violation.checker == "timer-sanity"
        assert "cancelled-event count" in violation.message
        assert when in violation.message

    def test_bundle_dir_false_writes_nothing(self):
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=BackwardsAckSender,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            validated(config)
        assert excinfo.value.bundle_path is None


class TestValidatorMachinery:
    def test_error_survives_pickling(self):
        import pickle

        original = InvariantViolationError(
            "boom",
            violations=(Violation("tcp-state", 1.5, "snd_una went back"),),
            bundle_path="/tmp/violation-abc.json",
        )
        clone = pickle.loads(pickle.dumps(original))
        assert clone.message == "boom"
        assert clone.violations == original.violations
        assert clone.bundle_path == original.bundle_path

    def test_violation_describe_format(self):
        v = Violation("arq-rtmax", 2.25, "too many attempts")
        assert v.describe() == "[arq-rtmax] t=2.250000: too many attempts"


class TestValidationDefault:
    def test_set_default_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        previous_on = validation_default()  # conftest turned it on
        assert previous_on is True
        set_default_validation(None)
        try:
            assert validation_default() is False
            monkeypatch.setenv("REPRO_VALIDATE", "1")
            assert validation_default() is True
            set_default_validation(False)
            assert validation_default() is False
        finally:
            set_default_validation(True)  # restore the conftest default

    def test_run_scenario_consults_the_default(self):
        # conftest sets the default on; a misbehaving sender must be
        # caught even without validate=True at the call site.
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=BackwardsAckSender,
        )
        with pytest.raises(InvariantViolationError):
            run_scenario(config, bundle_dir=False)


class TestCustomCheckers:
    def test_run_validated_accepts_custom_checker_set(self):
        from repro.validate.engine import InvariantChecker

        seen = []

        class Recorder(InvariantChecker):
            name = "recorder"

            def finalize(self, scenario, result, report):
                seen.append(result.completed)

        scenario = Scenario(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False)
        )
        result = run_validated(scenario, bundle_dir=False, checkers=[Recorder()])
        assert result.completed
        assert seen == [True]


def counting_attach(monkeypatch):
    """Count calls to the event log's ``attach_to_scenario``."""
    calls = []
    real = eventlog.attach_to_scenario

    def attach(scenario):
        calls.append(scenario)
        return real(scenario)

    monkeypatch.setattr(eventlog, "attach_to_scenario", attach)
    return calls


class TestDeferredEventLog:
    """Only a bundle needs the event log, so only a bundle records one."""

    def test_clean_run_records_no_event_log(self, monkeypatch, tmp_path):
        calls = counting_attach(monkeypatch)
        config = wan_scenario(transfer_bytes=TRANSFER, record_trace=False)
        assert run_scenario(config, validate=True, bundle_dir=tmp_path).completed
        assert calls == []

    def test_bundle_dir_false_never_reruns(self, monkeypatch):
        calls = counting_attach(monkeypatch)
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=BackwardsAckSender,
        )
        with pytest.raises(InvariantViolationError):
            validated(config)
        assert calls == []

    def test_bundle_reruns_once(self, monkeypatch, tmp_path):
        calls = counting_attach(monkeypatch)
        config = replace(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False),
            sender_factory=BackwardsAckSender,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            run_scenario(config, validate=True, bundle_dir=tmp_path)
        assert len(calls) == 1
        assert excinfo.value.bundle_path is not None

    def test_rerun_uses_fresh_copies_of_custom_checkers(self, tmp_path):
        class FailAtEnd(engine.InvariantChecker):
            name = "fail-at-end"

            def __init__(self):
                self.attached = 0

            def attach(self, scenario, report):
                self.attached += 1

            def finalize(self, scenario, result, report):
                report("always")

        checker = FailAtEnd()
        scenario = Scenario(
            wan_scenario(transfer_bytes=TRANSFER, record_trace=False)
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            run_validated(scenario, bundle_dir=tmp_path, checkers=[checker])
        assert checker.attached == 1
        bundle = json.loads(Path(excinfo.value.bundle_path).read_text())
        # The copy reproduced the failure at the same (end-of-run) time.
        assert bundle["violations"] == [
            {"checker": "fail-at-end", "time": scenario.sim.now,
             "message": "always"}
        ]
        assert bundle["event_log_tail"]

    def test_rerun_out_of_budget_still_raises_the_violation(
        self, monkeypatch, tmp_path
    ):
        # The first run ends 100 s into a 50 s budget, so the re-run
        # gets none; a watchdog checked every event stops it at once.
        clock = itertools.count(0.0, 100.0)
        monkeypatch.setattr(
            engine, "time", SimpleNamespace(monotonic=lambda: next(clock))
        )
        monkeypatch.setattr(Simulator, "WATCHDOG_STRIDE", 1)
        config = replace(
            wan_scenario(
                scheme=Scheme.EBSN, transfer_bytes=TRANSFER, record_trace=False
            ),
            sender_factory=CwndMutatingEbsnSender,
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            run_scenario(
                config, validate=True, bundle_dir=tmp_path, wall_timeout=50.0
            )
        err = excinfo.value
        assert err.violations[0].checker == "ebsn-no-window-action"
        bundle = json.loads(Path(err.bundle_path).read_text())
        assert [v["checker"] for v in bundle["violations"]] == [
            "ebsn-no-window-action"
        ]
        assert len(bundle["event_log_tail"]) < 10
