"""Tests for the CSDP multi-connection scheduling study."""

from __future__ import annotations

import pytest

from repro.csdp import (
    CsdpScheduler,
    CsdpStudyConfig,
    FifoScheduler,
    RoundRobinScheduler,
    run_csdp_study,
)


class TestFifoScheduler:
    def test_picks_oldest_arrival(self):
        s = FifoScheduler()
        s.note_arrival("B")
        s.note_arrival("A")
        assert s.select(["A", "B"], [], 0.0) == "B"

    def test_blocks_on_waiting_head(self):
        """Strict FIFO idles while its oldest frame backs off."""
        s = FifoScheduler()
        s.note_arrival("B")
        s.note_arrival("A")
        assert s.select(["A"], ["B"], 0.0) is None

    def test_departure_advances_head(self):
        s = FifoScheduler()
        s.note_arrival("B")
        s.note_arrival("A")
        s.note_departure("B")
        assert s.select(["A", "B"], [], 0.0) == "A"

    def test_empty_order_falls_back(self):
        assert FifoScheduler().select(["X"], [], 0.0) == "X"


class TestRoundRobinScheduler:
    def test_cycles(self):
        s = RoundRobinScheduler()
        picks = [s.select(["A", "B", "C"], [], 0.0) for _ in range(6)]
        assert picks == ["A", "B", "C", "A", "B", "C"]

    def test_skips_empty_destinations(self):
        s = RoundRobinScheduler()
        s.select(["A", "B"], [], 0.0)
        assert s.select(["B"], [], 0.0) == "B"

    def test_never_idles_with_ready_work(self):
        assert RoundRobinScheduler().select(["Z"], ["A"], 0.0) == "Z"


class TestCsdpScheduler:
    def test_skips_banned_destination(self):
        s = CsdpScheduler(probe_interval=1.0)
        s.on_result("A", success=False, now=0.0)
        assert s.select(["A", "B"], [], 0.5) == "B"
        assert s.skips == 1

    def test_idles_when_all_banned(self):
        s = CsdpScheduler(probe_interval=1.0)
        s.on_result("A", success=False, now=0.0)
        assert s.select(["A"], [], 0.5) is None
        assert s.earliest_retry(0.5) == pytest.approx(1.0)

    def test_probe_after_interval(self):
        s = CsdpScheduler(probe_interval=1.0)
        s.on_result("A", success=False, now=0.0)
        assert s.select(["A"], [], 1.5) == "A"
        assert s.probes_sent == 1

    def test_success_clears_ban(self):
        s = CsdpScheduler(probe_interval=1.0)
        s.on_result("A", success=False, now=0.0)
        s.on_result("A", success=True, now=1.5)
        assert s.select(["A"], [], 1.6) == "A"
        assert s.probes_sent == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CsdpScheduler(probe_interval=0)


class TestStudy:
    def run(self, sched, **kwargs):
        defaults = dict(
            scheduler=sched,
            n_connections=3,
            transfer_bytes=15 * 1024,
            seed=2,
        )
        defaults.update(kwargs)
        return run_csdp_study(CsdpStudyConfig(**defaults))

    def test_all_transfers_complete(self):
        for sched in ("fifo", "rr", "csdp"):
            result = self.run(sched)
            assert result.all_completed, sched
            assert len(result.per_connection_throughput_bps) == 3

    def test_all_data_delivered(self):
        result = self.run("rr")
        # Aggregate payload equals n x transfer.
        total = result.aggregate_throughput_bps * max(result.completion_times) / 8
        assert total == pytest.approx(3 * 15 * 1024, rel=0.01)

    def test_rr_beats_fifo(self):
        """The paper's §2 summary of [9]: round-robin significantly
        outperforms FIFO when connections fade independently."""
        fifo = sum(
            self.run("fifo", seed=s).aggregate_throughput_bps for s in range(1, 5)
        )
        rr = sum(self.run("rr", seed=s).aggregate_throughput_bps for s in range(1, 5))
        assert rr > 1.1 * fifo

    def test_fifo_suffers_head_of_line_blocking(self):
        result = self.run("fifo")
        assert result.radio.idle_blocked_time > 1.0

    def test_source_timeouts_remain(self):
        """The paper: 'The problem of source timeouts exists in this
        approach too' — scheduling does not replace EBSN."""
        timeouts = sum(
            self.run("csdp", seed=s).total_timeouts for s in range(1, 5)
        )
        assert timeouts > 0

    def test_fairness_reasonable_for_rr(self):
        result = self.run("rr")
        assert result.fairness_index > 0.9

    def test_deterministic_given_seed(self):
        a = self.run("csdp", seed=9)
        b = self.run("csdp", seed=9)
        assert a.completion_times == b.completion_times

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            run_csdp_study(CsdpStudyConfig(scheduler="lifo"))

    def test_radio_rejects_unknown_destination(self, sim):
        from repro.channel import deterministic_channel
        from repro.csdp import DownlinkRadio, RoundRobinScheduler
        from repro.net.packet import Datagram, TcpSegment
        from repro.net.wireless import WirelessLinkConfig
        import random

        radio = DownlinkRadio(
            sim,
            WirelessLinkConfig(),
            {"MH0": deterministic_channel(10, 1)},
            RoundRobinScheduler(),
            rng=random.Random(1),
            deliver=lambda dg: None,
        )
        datagram = Datagram("FH", "MH9", TcpSegment(0, 100), 140)
        with pytest.raises(KeyError):
            radio.send_datagram(datagram)
