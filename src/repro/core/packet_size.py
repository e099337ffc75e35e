"""Packet-size selection — the paper's §4.1 proposal.

The optimal wired packet size depends on the wireless error condition:
small packets waste header overhead, large packets fragment into many
MTUs and one lost fragment costs the whole packet.  The paper proposes
"maintaining a fixed table at each base station which maps a
particular wireless link error characteristic to the 'good' packet
size for that error characteristic."

:class:`PacketSizeAdvisor` is that table.  Sweep winners are
recorded with :meth:`PacketSizeAdvisor.learn`; with the table empty
it falls back to the analytic first-cut model below, which captures
the trade-off the paper measures: expected useful throughput of a
P-byte packet that must cross ``ceil(P / MTU)`` fragments each
surviving the channel independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.net.packet import TCP_IP_HEADER_BYTES, WAN_PACKET_SIZES
from repro.net.wireless import WirelessLinkConfig


@dataclass(frozen=True)
class ErrorCondition:
    """A wireless-link error characteristic the table is keyed by."""

    good_period_mean: float
    bad_period_mean: float
    ber_good: float = 1e-6
    ber_bad: float = 1e-2

    def __post_init__(self) -> None:
        if self.good_period_mean <= 0 or self.bad_period_mean <= 0:
            raise ValueError("period means must be positive")

    @property
    def bad_fraction(self) -> float:
        """Steady-state fraction of time the link is in the bad state."""
        return self.bad_period_mean / (self.good_period_mean + self.bad_period_mean)


class PacketSizeAdvisor:
    """The base station's fixed error-condition → packet-size table.

    >>> advisor = PacketSizeAdvisor(mtu_bytes=128)
    >>> cond = ErrorCondition(good_period_mean=10.0, bad_period_mean=1.0)
    >>> advisor.learn(cond, best_packet_size=512)
    >>> advisor.recommend(cond)
    512
    """

    #: Packet sizes the analytic model chooses among (bytes, ascending).
    candidate_sizes = tuple(WAN_PACKET_SIZES)

    def __init__(self, mtu_bytes: int = WirelessLinkConfig.mtu_bytes) -> None:
        #: The WAN hop at this MTU: its framing overhead and airtime.
        self._link = WirelessLinkConfig(mtu_bytes=mtu_bytes)
        self.mtu_bytes = mtu_bytes
        self._table: Dict[ErrorCondition, int] = {}

    # -- table management (the paper's mechanism) -----------------------

    def learn(self, condition: ErrorCondition, best_packet_size: int) -> None:
        """Record a measured best packet size for an error condition."""
        if best_packet_size <= TCP_IP_HEADER_BYTES:
            raise ValueError(
                f"packet size {best_packet_size} leaves no payload after header"
            )
        self._table[condition] = best_packet_size

    def recommend(self, condition: ErrorCondition) -> int:
        """Best known packet size for ``condition``.

        Exact table hit first; otherwise the nearest learned condition
        (by bad-state fraction); otherwise the analytic estimate.
        """
        if condition in self._table:
            return self._table[condition]
        if self._table:
            nearest = min(
                self._table,
                key=lambda c: abs(c.bad_fraction - condition.bad_fraction),
            )
            return self._table[nearest]
        return self.analytic_best(condition)

    @property
    def table(self) -> Dict[ErrorCondition, int]:
        """A copy of the learned table."""
        return dict(self._table)

    # -- analytic first-cut model ---------------------------------------

    def fragment_count(self, packet_size: int) -> int:
        """Fragments a packet of this size produces on the wireless hop."""
        return -(-packet_size // self.mtu_bytes)

    def expected_efficiency(self, condition: ErrorCondition, packet_size: int) -> float:
        """Expected useful-payload efficiency of one packet.

        Approximates the channel as i.i.d. per fragment: a fragment of
        ``s`` bytes is on air for the WAN link's ``s · overhead`` bytes
        (rounded) and survives with probability
        ``(1-ber)^bits`` averaged over the good/bad time split.  The
        packet delivers its payload only if *all* fragments survive;
        efficiency is payload per on-air byte times that probability.
        """
        if packet_size <= TCP_IP_HEADER_BYTES:
            return 0.0
        count = self.fragment_count(packet_size)
        survive_all = 1.0
        remaining = packet_size
        for _ in range(count):
            size = min(self.mtu_bytes, remaining)
            remaining -= size
            bits = self._link.airtime(size)[0] * 8
            p_good = math.exp(bits * math.log1p(-condition.ber_good))
            p_bad = math.exp(bits * math.log1p(-condition.ber_bad))
            p = (
                (1.0 - condition.bad_fraction) * p_good
                + condition.bad_fraction * p_bad
            )
            survive_all *= p
        payload = packet_size - TCP_IP_HEADER_BYTES
        return survive_all * payload / packet_size

    def analytic_best(self, condition: ErrorCondition) -> int:
        """Candidate size maximizing :meth:`expected_efficiency`."""
        scored: List[Tuple[float, int]] = [
            (self.expected_efficiency(condition, size), size)
            for size in self.candidate_sizes
        ]
        best_eff, best_size = max(scored)
        if best_eff <= 0.0:
            return min(self.candidate_sizes)
        return best_size
