"""Figure 11: local-area wireless — data retransmitted vs bad period.

Same setup as Figure 10.  The paper's reading:

  * basic TCP retransmits large amounts of data (source timeouts dump
    whole windows back into the network);
  * with EBSN the goodput is ~100%: essentially zero source
    retransmissions at every bad-period length.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import LAN_BAD_PERIODS
from repro.experiments.topology import Scheme


@pytest.mark.table("fig11_lan_retx")
def test_fig11_lan_retransmitted_data(results):
    for bad in LAN_BAD_PERIODS:
        basic = results["lan", Scheme.BASIC, bad]
        ebsn = results["lan", Scheme.EBSN, bad]
        # Basic TCP retransmits a lot; EBSN almost nothing.
        assert basic.retransmitted_kbytes_mean > 20
        assert ebsn.retransmitted_kbytes_mean < 0.1 * basic.retransmitted_kbytes_mean
        # EBSN goodput ~100% (the paper's claim).
        assert ebsn.goodput_mean > 0.98
        assert basic.goodput_mean < 0.99
