"""Ablation: the TCP window size the paper fixed at 4 KB.

The paper never varies the advertised window.  This ablation asks
whether 4 KB was load-bearing: on the WAN path the bandwidth-delay
product is ≈ 1 KB, so 4 KB already over-fills the pipe and mostly
buys queueing delay at the base station; a bigger window inflates the
RTT (and hence the RTO), while a 1-packet window starves the link.
EBSN's advantage is not a window artifact: it holds at every size.
"""

from __future__ import annotations

import pytest

from conftest import STRICT

from repro.experiments.tables import TCP_WINDOWS as WINDOWS
from repro.experiments.topology import Scheme


@pytest.mark.table("ablation_window")
def test_window_size(results):
    if not STRICT:
        # Smoke scale: the table is regenerated and saved, but the
        # paper-shape margins only hold at full scale.
        return

    # A 1-packet window starves the pipe: dramatically for EBSN (whose
    # link is otherwise kept full), mildly for basic TCP (whose small
    # flight also makes each fade cheaper — the effects partly cancel).
    assert (
        results[(4096, Scheme.EBSN)].throughput_bps_mean
        > 1.3 * results[(576, Scheme.EBSN)].throughput_bps_mean
    )
    assert (
        results[(4096, Scheme.BASIC)].throughput_bps_mean
        > 0.95 * results[(576, Scheme.BASIC)].throughput_bps_mean
    )
    # Beyond the BDP the window stops helping (diminishing returns).
    assert (
        results[(16 * 1024, Scheme.EBSN)].throughput_bps_mean
        < 1.2 * results[(4096, Scheme.EBSN)].throughput_bps_mean
    )
    # The EBSN advantage is not a window artifact.
    for window in WINDOWS:
        assert (
            results[(window, Scheme.EBSN)].throughput_bps_mean
            > results[(window, Scheme.BASIC)].throughput_bps_mean
        )
