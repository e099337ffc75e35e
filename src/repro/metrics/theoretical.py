"""Theoretical throughput bounds (§5).

The paper marks on every throughput figure the theoretical maximum in
the presence of errors:

    tput_th = lambda_bg / (lambda_bg + lambda_gb) · tput_max

where ``lambda_bg = 1/bad_mean`` and ``lambda_gb = 1/good_mean`` are
the Markov transition rates — i.e. tput_th is the effective bandwidth
scaled by the steady-state fraction of time the link is good.
``tput_max`` is the error-free effective bandwidth (12.8 kbps WAN
after FEC overhead, 2 Mbps LAN).
"""

from __future__ import annotations

from repro.net.packet import TCP_IP_HEADER_BYTES


def good_state_fraction(good_period_mean: float, bad_period_mean: float) -> float:
    """Steady-state fraction of time the channel spends in the good state."""
    if good_period_mean <= 0 or bad_period_mean <= 0:
        raise ValueError("period means must be positive")
    return good_period_mean / (good_period_mean + bad_period_mean)


def theoretical_throughput_bps(
    tput_max_bps: float,
    good_period_mean: float,
    bad_period_mean: float,
) -> float:
    """The paper's tput_th: error-free throughput × good-state fraction.

    >>> from repro.net.wireless import WirelessLinkConfig
    >>> wan = WirelessLinkConfig().effective_bandwidth_bps
    >>> round(theoretical_throughput_bps(wan, 10.0, 1.0))  # Fig 7 top line
    11636
    """
    if tput_max_bps <= 0:
        raise ValueError("tput_max must be positive")
    return tput_max_bps * good_state_fraction(good_period_mean, bad_period_mean)


def predicted_ebsn_throughput_bps(
    tput_max_bps: float,
    good_period_mean: float,
    bad_period_mean: float,
    packet_size: int,
) -> float:
    """First-order prediction of EBSN's *payload* throughput.

    With source timeouts eliminated and local recovery riding out the
    fades, the connection should deliver payload at

        tput_th x payload/packet

    — the capacity left by the fades, discounted by header overhead.
    Simulation lands a few percent below this (ARQ retries straddling
    fade edges, backoff tails, the rare RTmax discard); the validation
    test pins that gap to under 20%.
    """
    if packet_size <= TCP_IP_HEADER_BYTES:
        raise ValueError("packet smaller than its header")
    payload_fraction = (packet_size - TCP_IP_HEADER_BYTES) / packet_size
    return (
        theoretical_throughput_bps(tput_max_bps, good_period_mean, bad_period_mean)
        * payload_fraction
    )
