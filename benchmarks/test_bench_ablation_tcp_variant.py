"""Ablation: how far do transport-only fixes go?

The paper's premise is that no end-to-end congestion-control variant
can distinguish a fade from congestion.  This ablation runs Tahoe,
Reno and NewReno over the WAN configuration with and without
EBSN+local recovery: the variant choice moves throughput a little; the
link-layer mechanism moves it a lot.
"""

from __future__ import annotations

import pytest

from conftest import STRICT

from repro.experiments.tables import TCP_VARIANTS as VARIANTS
from repro.experiments.topology import Scheme


@pytest.mark.table("ablation_tcp_variant")
def test_tcp_variant_vs_link_mechanism(results):
    if not STRICT:
        # Smoke scale: the table is run and rendered, but the
        # paper-shape margins only hold at full scale.
        return

    basic = {v: results[(v, Scheme.BASIC)].throughput_bps_mean for v in VARIANTS}
    ebsn = {v: results[(v, Scheme.EBSN)].throughput_bps_mean for v in VARIANTS}

    # The spread across TCP variants is small compared to the EBSN
    # win: changing the end-to-end algorithm cannot fix wireless loss.
    variant_spread = max(basic.values()) / min(basic.values())
    for variant in VARIANTS:
        assert ebsn[variant] > 1.2 * basic[variant]
        assert ebsn[variant] / basic[variant] > variant_spread * 0.8
