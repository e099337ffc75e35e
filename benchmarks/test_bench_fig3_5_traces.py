"""Figures 3-5: packet traces of the deterministic §4.2.1 example.

Basic TCP (Fig 3), local recovery (Fig 4), EBSN (Fig 5) over the
frozen channel: good period exactly 10 s, bad period exactly 4 s,
576 B packets, 4 KB window, 100 KB transfer.

Paper's reading of the figures:
  * Fig 3: every bad period stalls the source; timeouts and clusters
    of retransmissions (packets 44-50 in the 24-28 s fade).
  * Fig 4: local recovery removes almost all source retransmissions,
    but the source can still time out during recovery.
  * Fig 5: EBSN — no timeouts, no source retransmissions at all.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.figures import trace_figure


def test_fig3_basic_tcp_trace(benchmark):
    result = run_once(benchmark, lambda: trace_figure(3))
    # Paper shape: repeated timeout stalls and retransmission clusters.
    assert result.metrics.timeouts >= 5
    assert result.trace.retransmissions > 10
    assert len(result.trace.idle_gaps(min_gap=3.0)) >= 2
    # Packets transmitted into the first fade (starting at t=10) are
    # retransmitted afterwards — the paper's packet-44 story.
    fade_entries = result.trace.transmissions_between(6.0, 14.0)
    assert any(
        len(result.trace.transmissions_of(e.seq)) > 1 for e in fade_entries
    )


def test_fig4_local_recovery_trace(benchmark):
    result = run_once(benchmark, lambda: trace_figure(4))
    basic = trace_figure(3)
    # Far fewer source retransmissions than basic TCP.
    assert result.trace.retransmissions < basic.trace.retransmissions / 3
    assert result.metrics.throughput_bps > 1.5 * basic.metrics.throughput_bps


def test_fig5_ebsn_trace(benchmark):
    result = run_once(benchmark, lambda: trace_figure(5))
    # The paper's reading: no timeouts at the source, so no congestion
    # control invoked in any bad period.
    assert result.metrics.timeouts == 0
    assert result.metrics.retransmissions == 0
    assert result.metrics.goodput == 1.0
    assert result.ebsn is not None and result.ebsn.ebsn_sent > 0


def test_trace_schemes_ordering(benchmark):
    """Summary comparison across the three trace figures."""
    results = run_once(benchmark, lambda: {n: trace_figure(n) for n in (3, 4, 5)})
    tput = {n: results[n].metrics.throughput_bps for n in (3, 4, 5)}
    assert tput[3] < tput[4] <= tput[5] * 1.001
