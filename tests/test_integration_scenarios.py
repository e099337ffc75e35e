"""Integration tests: full FH—BS—MH transfers under every scheme.

These are scaled-down versions of the paper's experiments, asserting
the qualitative results the paper reports.  The full-size runs live in
``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import (
    lan_scenario,
    trace_example_scenario,
    wan_scenario,
)
from repro.experiments.topology import Scheme, run_scenario


SMALL = 30 * 1024  # 30 KB keeps WAN runs ~50 simulated seconds


class TestBasicTcpWan:
    def test_transfer_completes(self):
        result = run_scenario(wan_scenario(transfer_bytes=SMALL))
        assert result.completed
        assert result.metrics.duration > 0

    def test_all_data_delivered_exactly_once(self):
        result = run_scenario(wan_scenario(transfer_bytes=SMALL))
        assert result.sink.stats.useful_payload_bytes == SMALL

    def test_bursty_losses_cause_timeouts_and_retransmissions(self):
        result = run_scenario(
            wan_scenario(transfer_bytes=SMALL, bad_period_mean=4.0, seed=2)
        )
        assert result.metrics.timeouts > 0
        assert result.metrics.retransmissions > 0
        assert result.metrics.goodput < 1.0

    def test_error_free_channel_has_no_retransmissions(self):
        result = run_scenario(
            wan_scenario(
                transfer_bytes=SMALL, bad_period_mean=1e-3, good_period_mean=1e6
            )
        )
        assert result.metrics.retransmissions == 0
        assert result.metrics.goodput == pytest.approx(1.0)

    def test_throughput_below_theoretical(self):
        result = run_scenario(wan_scenario(transfer_bytes=SMALL, bad_period_mean=2.0))
        assert result.metrics.wire_throughput_bps < result.tput_th_bps * 1.05

    def test_determinism_same_seed(self):
        a = run_scenario(wan_scenario(transfer_bytes=SMALL, seed=5))
        b = run_scenario(wan_scenario(transfer_bytes=SMALL, seed=5))
        assert a.metrics.duration == b.metrics.duration
        assert a.metrics.segments_sent == b.metrics.segments_sent

    def test_different_seeds_differ(self):
        a = run_scenario(wan_scenario(transfer_bytes=SMALL, seed=5))
        b = run_scenario(wan_scenario(transfer_bytes=SMALL, seed=6))
        assert a.metrics.duration != b.metrics.duration


class TestLocalRecoveryWan:
    def test_improves_goodput_over_basic(self):
        def mean_goodput(scheme):
            return sum(
                run_scenario(
                    wan_scenario(
                        scheme, transfer_bytes=SMALL, bad_period_mean=2.0, seed=seed
                    )
                ).metrics.goodput
                for seed in range(1, 6)
            ) / 5

        assert mean_goodput(Scheme.LOCAL_RECOVERY) > mean_goodput(Scheme.BASIC)

    def test_source_can_still_time_out(self):
        """§4.2.1: local recovery does not eliminate source timeouts."""
        timeouts = 0
        for seed in range(1, 6):
            result = run_scenario(
                wan_scenario(
                    Scheme.LOCAL_RECOVERY,
                    transfer_bytes=SMALL,
                    bad_period_mean=4.0,
                    seed=seed,
                )
            )
            timeouts += result.metrics.timeouts
        assert timeouts > 0

    def test_link_layer_retransmissions_happen(self):
        result = run_scenario(
            wan_scenario(Scheme.LOCAL_RECOVERY, transfer_bytes=SMALL, bad_period_mean=2.0)
        )
        assert result.bs_port.stats.link_retransmissions > 0


class TestEbsnWan:
    def test_nearly_eliminates_timeouts(self):
        """The headline claim: EBSN removes source timeouts.

        One residual corner case exists (and is documented in
        EXPERIMENTS.md): when a fade outlasts the ARQ's whole RTmax
        budget, the base station discards everything and goes idle, so
        no further "failed attempts" generate EBSNs and the source can
        finally time out.  Across seeds this is rare; local recovery
        alone times out every run.
        """
        ebsn_timeouts = 0
        local_timeouts = 0
        for seed in range(1, 6):
            ebsn_timeouts += run_scenario(
                wan_scenario(
                    Scheme.EBSN, transfer_bytes=SMALL, bad_period_mean=4.0, seed=seed
                )
            ).metrics.timeouts
            local_timeouts += run_scenario(
                wan_scenario(
                    Scheme.LOCAL_RECOVERY,
                    transfer_bytes=SMALL,
                    bad_period_mean=4.0,
                    seed=seed,
                )
            ).metrics.timeouts
        assert ebsn_timeouts <= 5
        assert ebsn_timeouts < local_timeouts

    def test_beats_basic_tcp_throughput(self):
        basic = run_scenario(
            wan_scenario(
                Scheme.BASIC, transfer_bytes=SMALL, bad_period_mean=4.0,
                packet_size=1536,
            )
        )
        ebsn = run_scenario(
            wan_scenario(
                Scheme.EBSN, transfer_bytes=SMALL, bad_period_mean=4.0,
                packet_size=1536,
            )
        )
        assert ebsn.metrics.throughput_bps > 1.4 * basic.metrics.throughput_bps

    def test_ebsn_messages_flow_and_rearm(self):
        result = run_scenario(
            wan_scenario(Scheme.EBSN, transfer_bytes=SMALL, bad_period_mean=4.0)
        )
        assert result.ebsn is not None
        assert result.ebsn.ebsn_sent > 0
        assert result.sender.stats.ebsn_received > 0
        assert result.sender.stats.ebsn_timer_rearms == result.sender.stats.ebsn_received

    def test_no_state_kept_at_base_station(self):
        """EBSN's advantage over snoop: the generator holds no
        per-connection state — only counters."""
        result = run_scenario(
            wan_scenario(Scheme.EBSN, transfer_bytes=SMALL, bad_period_mean=2.0)
        )
        generator = result.ebsn
        state_attrs = {
            k: v
            for k, v in vars(generator).items()
            if not k.startswith("_") and not isinstance(v, (int, float, type(None)))
        }
        assert state_attrs == {}


class TestQuenchWan:
    def test_quench_does_not_eliminate_timeouts(self):
        """§4.2.2: source quench cannot save packets already in flight."""
        timeouts = 0
        for seed in range(1, 6):
            result = run_scenario(
                wan_scenario(
                    Scheme.QUENCH, transfer_bytes=SMALL, bad_period_mean=4.0, seed=seed
                )
            )
            timeouts += result.metrics.timeouts
            assert result.quench is not None and result.quench.quench_sent > 0
            assert result.sender.stats.quench_received > 0
        assert timeouts > 0

    def test_ebsn_beats_quench(self):
        """§4.2.2: quench leaves timeouts in place; EBSN removes them."""

        def totals(scheme):
            timeouts, tput = 0, 0.0
            for seed in range(1, 6):
                m = run_scenario(
                    wan_scenario(
                        scheme, transfer_bytes=SMALL, bad_period_mean=4.0, seed=seed
                    )
                ).metrics
                timeouts += m.timeouts
                tput += m.throughput_bps
            return timeouts, tput / 5

        quench_timeouts, quench_tput = totals(Scheme.QUENCH)
        ebsn_timeouts, ebsn_tput = totals(Scheme.EBSN)
        assert ebsn_timeouts < quench_timeouts
        assert ebsn_tput >= 0.9 * quench_tput


class TestSnoopWan:
    def test_snoop_recovers_locally(self):
        result = run_scenario(
            wan_scenario(Scheme.SNOOP, transfer_bytes=SMALL, bad_period_mean=2.0)
        )
        assert result.completed
        assert result.snoop is not None
        assert result.snoop.local_retransmissions > 0

    def test_snoop_suppresses_dupacks(self):
        result = run_scenario(
            wan_scenario(Scheme.SNOOP, transfer_bytes=SMALL, bad_period_mean=4.0, seed=3)
        )
        assert result.snoop.dupacks_suppressed >= 0  # counter wired up
        assert result.completed


class TestLan:
    LAN_SMALL = 512 * 1024

    def test_basic_lan_completes(self):
        result = run_scenario(
            lan_scenario(Scheme.BASIC, transfer_bytes=self.LAN_SMALL)
        )
        assert result.completed
        assert result.sink.stats.useful_payload_bytes == self.LAN_SMALL

    def test_ebsn_lan_zero_timeouts_and_full_goodput(self):
        for seed in (1, 2, 3):
            result = run_scenario(
                lan_scenario(
                    Scheme.EBSN,
                    transfer_bytes=self.LAN_SMALL,
                    bad_period_mean=0.8,
                    seed=seed,
                )
            )
            assert result.metrics.timeouts == 0
            assert result.metrics.goodput == pytest.approx(1.0, abs=0.02)

    def test_ebsn_lan_beats_basic_at_long_fades(self):
        def mean_tput(scheme):
            return sum(
                run_scenario(
                    lan_scenario(
                        scheme,
                        transfer_bytes=self.LAN_SMALL,
                        bad_period_mean=1.6,
                        seed=seed,
                    )
                ).metrics.throughput_bps
                for seed in range(1, 4)
            ) / 3

        assert mean_tput(Scheme.EBSN) > 1.1 * mean_tput(Scheme.BASIC)


class TestDeterministicTraces:
    def test_fig3_basic_has_many_timeouts(self):
        result = run_scenario(trace_example_scenario(Scheme.BASIC))
        assert result.metrics.timeouts >= 5
        assert result.trace.retransmissions > 10
        # Source goes silent during fades: visible stall gaps.
        assert result.trace.idle_gaps(min_gap=3.0)

    def test_fig5_ebsn_has_zero_timeouts(self):
        result = run_scenario(trace_example_scenario(Scheme.EBSN))
        assert result.metrics.timeouts == 0
        assert result.metrics.goodput == pytest.approx(1.0, abs=0.01)

    def test_scheme_ordering_matches_paper(self):
        """throughput: basic < quench <= local recovery <= EBSN."""
        tputs = {}
        for scheme in (Scheme.BASIC, Scheme.QUENCH, Scheme.LOCAL_RECOVERY, Scheme.EBSN):
            tputs[scheme] = run_scenario(
                trace_example_scenario(scheme)
            ).metrics.throughput_bps
        assert tputs[Scheme.BASIC] < tputs[Scheme.QUENCH]
        assert tputs[Scheme.QUENCH] <= tputs[Scheme.LOCAL_RECOVERY] * 1.02
        assert tputs[Scheme.LOCAL_RECOVERY] <= tputs[Scheme.EBSN] * 1.001

    def test_trace_reproducible(self):
        a = run_scenario(trace_example_scenario(Scheme.BASIC))
        b = run_scenario(trace_example_scenario(Scheme.BASIC))
        assert [e.time for e in a.trace.entries] == [e.time for e in b.trace.entries]


class TestRenoVariant:
    def test_reno_runs_end_to_end(self):
        result = run_scenario(
            wan_scenario(transfer_bytes=SMALL, bad_period_mean=2.0, tcp_variant="reno")
        )
        assert result.completed

    def test_reno_no_better_under_bursty_loss(self):
        """The extension ablation: fast recovery barely helps when
        whole windows die in a fade (no dupacks arrive at all)."""
        tahoe = run_scenario(
            wan_scenario(transfer_bytes=SMALL, bad_period_mean=4.0, seed=4)
        )
        reno = run_scenario(
            wan_scenario(
                transfer_bytes=SMALL, bad_period_mean=4.0, seed=4, tcp_variant="reno"
            )
        )
        # Allow either to win, but not by the margins EBSN delivers.
        ratio = reno.metrics.throughput_bps / tahoe.metrics.throughput_bps
        assert 0.5 < ratio < 1.5

