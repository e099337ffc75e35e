"""Tests for the ns-style event log and analyzer."""

from __future__ import annotations

import io

import pytest

from repro.experiments.config import wan_scenario
from repro.experiments.topology import Scenario, Scheme
from repro.metrics.eventlog import (
    Event,
    EventLog,
    EventLogAnalyzer,
    EventType,
    TraceParseError,
    attach_to_scenario,
)


def instrumented_run(scheme=Scheme.BASIC, bad=1.0, seed=1, transfer=10 * 1024):
    scenario = Scenario(
        wan_scenario(
            scheme=scheme, bad_period_mean=bad, seed=seed, transfer_bytes=transfer
        )
    )
    log = attach_to_scenario(scenario)
    result = scenario.run()
    return log, result


class TestSerialization:
    def test_round_trip(self):
        log = EventLog()
        log.record(1.5, EventType.WIRED_SEND, "FH->BS", "data", 576, 42)
        log.record(2.0, EventType.CORRUPT, "channel", "frame", 128, 7)
        buffer = io.StringIO()
        assert log.write(buffer) == 2
        buffer.seek(0)
        parsed = EventLog.read(buffer)
        assert parsed.events == log.events

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            Event.from_line("not enough fields")

    def test_wrong_field_count_names_the_problem(self):
        with pytest.raises(TraceParseError, match="expected 6.*got 3"):
            Event.from_line("1.0 air_send BS->MH")

    def test_bad_time_field(self):
        with pytest.raises(TraceParseError, match="bad time field 'soon'"):
            Event.from_line("soon air_send BS->MH data 128 9")

    def test_unknown_event_type_lists_known_types(self):
        with pytest.raises(TraceParseError, match="unknown event type 'warp'"):
            Event.from_line("1.0 warp BS->MH data 128 9")

    def test_bad_size_or_uid_field(self):
        with pytest.raises(TraceParseError, match="bad size/uid field"):
            Event.from_line("1.0 air_send BS->MH data many 9")
        with pytest.raises(TraceParseError, match="bad size/uid field"):
            Event.from_line("1.0 air_send BS->MH data 128 nine")

    def test_parse_error_is_a_value_error(self):
        # Callers that caught the old bare ValueError keep working.
        assert issubclass(TraceParseError, ValueError)

    def test_read_reports_line_number(self):
        trace = "1.0 air_send BS->MH data 128 9\n\nbogus line here\n"
        with pytest.raises(TraceParseError, match="line 3:"):
            EventLog.read(io.StringIO(trace))

    def test_read_skips_blank_lines(self):
        trace = "\n1.0 air_send BS->MH data 128 9\n\n"
        log = EventLog.read(io.StringIO(trace))
        assert len(log) == 1

    def test_line_format(self):
        event = Event(12.345678, EventType.AIR_SEND, "BS->MH", "data", 128, 9)
        assert event.to_line() == "12.345678 air_send BS->MH data 128 9"


class TestInstrumentation:
    def test_records_all_layers(self):
        log, result = instrumented_run()
        assert result.completed
        counts = EventLogAnalyzer(log).counts()
        assert counts[EventType.WIRED_SEND] > 0
        assert counts[EventType.WIRED_RECV] > 0
        assert counts[EventType.AIR_SEND] > 0
        assert counts[EventType.AIR_RECV] > 0

    def test_air_recv_matches_link_stats(self):
        log, result = instrumented_run()
        counts = EventLogAnalyzer(log).counts()
        delivered = (
            result.downlink.stats.delivered + result.uplink.stats.delivered
        )
        assert counts[EventType.AIR_RECV] == delivered

    def test_corruption_events_match_channel(self):
        log, result = instrumented_run(bad=4.0, seed=2)
        counts = EventLogAnalyzer(log).counts()
        assert counts.get(EventType.CORRUPT, 0) == result.downlink.channel.frames_corrupted

    def test_events_time_ordered(self):
        log, _ = instrumented_run()
        times = [e.time for e in log.events]
        assert times == sorted(times)


class TestAnalyzer:
    def test_bursty_channel_has_long_loss_runs(self):
        """The two-state channel's fingerprint: multi-frame loss runs."""
        log, _ = instrumented_run(bad=4.0, seed=3, transfer=30 * 1024)
        analyzer = EventLogAnalyzer(log)
        runs = analyzer.loss_runs()
        assert runs, "expected losses under bad=4s"
        assert max(runs) >= 3
        assert analyzer.mean_loss_run() > 1.0

    def test_loss_runs_empty_without_corruption(self):
        log = EventLog()
        log.record(1.0, EventType.AIR_RECV, "BS->MH", "data", 128, 1)
        assert EventLogAnalyzer(log).loss_runs() == []
