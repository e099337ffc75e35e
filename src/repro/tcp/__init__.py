"""TCP implementation: Tahoe sender (paper default), Reno (extension), sink.

The sender implements the algorithms the paper's ns TCP-Tahoe used:
slow start, congestion avoidance, fast retransmit on three duplicate
ACKs (no fast recovery — Tahoe collapses the window), Jacobson RTT
estimation at a configurable clock granularity (100 ms in the paper),
Karn's sampling rule, and exponential timer backoff.

ICMP handling is pluggable (:attr:`TahoeSender.icmp_handler`), which is
where the paper's EBSN and source-quench responses attach — see
:mod:`repro.core`.

The other senders load only where a run builds them: import
:class:`~repro.tcp.reno.RenoSender`,
:class:`~repro.tcp.newreno.NewRenoSender` and
:class:`~repro.tcp.messages.MessageSender` from their own modules.
"""

from repro.tcp.rto import RttEstimator
from repro.tcp.sink import SinkStats, TcpSink
from repro.tcp.tahoe import SenderStats, TahoeSender, TcpConfig

__all__ = [
    "RttEstimator",
    "SinkStats",
    "TcpSink",
    "SenderStats",
    "TahoeSender",
    "TcpConfig",
]
