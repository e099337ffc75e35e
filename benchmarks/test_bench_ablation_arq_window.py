"""Ablation: link-layer ARQ pipelining depth.

DESIGN.md argues the paper's near-theoretical EBSN curves imply a
pipelined link-layer transmitter: pure stop-and-wait idles the radio
for a link-ACK turnaround per frame.  This ablation sweeps the ARQ
window (1 = stop-and-wait) under EBSN and measures the cost directly.
"""

from __future__ import annotations

import pytest


@pytest.mark.table("ablation_arq_window")
def test_arq_window_depth(results):
    # Stop-and-wait pays a visible turnaround tax; a small window
    # recovers it; beyond ~4 the returns vanish.
    assert results[4].throughput_bps_mean > 1.05 * results[1].throughput_bps_mean
    assert results[8].throughput_bps_mean < 1.1 * results[4].throughput_bps_mean
