"""Figure 9: data retransmitted vs packet size — basic TCP vs EBSN.

100 KB wide-area transfer, mean good period 10 s.  The paper's
reading:

  * for basic TCP the amount of retransmitted data grows with both
    packet size and bad-period length (fragmentation amplifies every
    loss into a whole-packet retransmission);
  * with EBSN the source retransmits almost nothing at any size.
"""

from __future__ import annotations

from repro.experiments.config import WAN_BAD_PERIODS, WAN_PACKET_SIZES
from repro.experiments.topology import Scheme


def test_fig9_retransmitted_data(paper_figure, report):
    text, results = paper_figure(9)
    report("fig9_wan_retx", text)

    def retx(scheme, bad, size):
        return results["wan", Scheme(scheme), size, bad].retransmitted_kbytes_mean

    sizes = WAN_PACKET_SIZES

    # Basic TCP: retransmitted data grows with bad-period length
    # (mean over sizes), and large packets retransmit more than small.
    def mean_over_sizes(scheme, bad):
        return sum(retx(scheme, bad, s) for s in sizes) / len(sizes)

    assert mean_over_sizes("basic", 4.0) > mean_over_sizes("basic", 1.0)
    assert retx("basic", 4.0, 1536) > retx("basic", 4.0, 128)

    # EBSN: near-zero source retransmissions everywhere — an order of
    # magnitude below basic TCP.
    for bad in WAN_BAD_PERIODS:
        assert mean_over_sizes("ebsn", bad) < 0.25 * mean_over_sizes("basic", bad)
