"""Ablation: ARQ persistence (RTmax) under EBSN.

The paper fixes RTmax = 13 (CDPD).  This ablation shows what the limit
trades off: with few attempts the link layer gives up inside fades and
the source must recover end-to-end; with the CDPD budget the ARQ rides
out most fades and EBSN keeps the source quiet.
"""

from __future__ import annotations

import pytest


@pytest.mark.table("ablation_rtmax")
def test_rtmax_persistence(results):
    # Persistence pays: the CDPD budget beats a nearly-giving-up ARQ.
    assert results[13].throughput_bps_mean > results[1].throughput_bps_mean
    assert results[13].goodput_mean > results[1].goodput_mean
    # Low persistence forces the source to retransmit more.
    assert (
        results[1].retransmitted_kbytes_mean
        > results[13].retransmitted_kbytes_mean
    )
    # Diminishing returns beyond the fade timescale.
    assert results[25].throughput_bps_mean < results[13].throughput_bps_mean * 1.15
