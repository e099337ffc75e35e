"""§2 comparison: snoop and split-connection baselines vs EBSN.

The paper argues that snoop (and split-connection) approaches "do not
perform well in the presence of bursty losses on the wireless links"
— during a deep fade no duplicate ACKs arrive at the base station, so
snoop has only its local timer — and that snoop keeps per-connection
state at the BS while EBSN keeps none.  The split-connection (I-TCP)
baseline shields the fixed host completely but violates end-to-end
semantics and keeps a whole second TCP sender at the BS.
"""

from __future__ import annotations

import pytest

from conftest import STRICT

from repro.experiments.topology import Scheme


@pytest.mark.table("snoop_vs_ebsn")
def test_snoop_vs_ebsn_bursty(results):
    if not STRICT:
        # Smoke scale: the table is run and rendered, but the
        # paper-shape margins only hold at full scale.
        return

    basic = results[Scheme.BASIC]
    snoop = results[Scheme.SNOOP]
    split = results[Scheme.SPLIT]
    ebsn = results[Scheme.EBSN]

    # Split shields the fixed host (its timeouts happen at the BS
    # instead), and EBSN is competitive with it while keeping zero
    # transport state at the base station.
    assert split.timeouts_mean <= 0.5
    assert ebsn.throughput_bps_mean > 0.85 * split.throughput_bps_mean

    # Snoop's local recovery keeps the source from flooding the
    # network with end-to-end retransmissions: goodput improves and
    # timeouts drop relative to basic TCP ...
    assert snoop.goodput_mean > basic.goodput_mean
    # ... but — the paper's §2 point — under *bursty* losses snoop's
    # dupack-driven recovery starves (no ACKs flow in a fade), so it
    # delivers no throughput win over basic TCP, while EBSN clearly
    # beats both with zero per-connection state at the base station.
    assert snoop.throughput_bps_mean < 1.25 * basic.throughput_bps_mean
    assert ebsn.throughput_bps_mean > 1.2 * snoop.throughput_bps_mean
    assert ebsn.throughput_bps_mean > 1.1 * basic.throughput_bps_mean


@pytest.mark.table("snoop_loss_regime")
def test_snoop_loss_regime(results):
    """Snoop's published gains came from (mostly) independent losses;
    the paper's point is that real fades are bursty.  Same average
    loss rate, two correlation structures."""

    def ratio(uniform):
        return (
            results[(uniform, Scheme.SNOOP)].throughput_bps_mean
            / results[(uniform, Scheme.BASIC)].throughput_bps_mean
        )

    # Under uniform loss snoop shines (the Balakrishnan result) ...
    assert ratio(True) > 1.8
    # ... under bursty loss the advantage largely evaporates (§2).
    assert ratio(False) < 1.3
    # EBSN dominates in both regimes.
    for uniform in (False, True):
        assert (
            results[(uniform, Scheme.EBSN)].throughput_bps_mean
            > 1.2 * results[(uniform, Scheme.SNOOP)].throughput_bps_mean
        )
