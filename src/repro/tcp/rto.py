"""Round-trip-time estimation and retransmission-timeout computation.

Implements Jacobson's mean/deviation estimator on a coarse clock: RTT
samples are quantized to ticks of ``granularity`` seconds (the paper
uses 100 ms and discusses how granularity interacts with local
recovery), and the resulting RTO is a whole number of ticks, at least
:attr:`RttEstimator.MIN_TICKS` of them.

Karn's rule (never sample a retransmitted segment, keep the backed-off
RTO until an ACK for a fresh segment arrives) lives in the sender; this
class only knows about valid samples.
"""

from __future__ import annotations

import math
from typing import Optional


class RttEstimator:
    """Jacobson/Karn RTT estimator on a tick-quantized clock.

    >>> est = RttEstimator(granularity=0.1)
    >>> est.rto()            # initial conservative RTO
    3.0
    >>> est.sample(0.35)     # quantized to 4 ticks
    >>> est.srtt is not None
    True
    >>> est.rto() >= 0.2     # never below MIN_TICKS * granularity
    True
    """

    #: Jacobson's gains: srtt ← srtt + err/8, rttvar ← rttvar + (|err|−rttvar)/4.
    SRTT_GAIN = 0.125
    RTTVAR_GAIN = 0.25
    #: Floor of the RTO in ticks.
    MIN_TICKS = 2

    def __init__(
        self,
        granularity: float = 0.1,
        initial_rto: float = 3.0,
        max_rto: float = 64.0,
        k: float = 4.0,
        var_decay_gain: Optional[float] = None,
    ) -> None:
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        if initial_rto <= 0:
            raise ValueError(f"initial_rto must be positive, got {initial_rto}")
        if max_rto < granularity:
            raise ValueError("max_rto must be at least one tick")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if var_decay_gain is not None and not 0 < var_decay_gain <= 1:
            raise ValueError("var_decay_gain must be in (0, 1]")
        self.granularity = granularity
        self.initial_rto = initial_rto
        self.max_rto = max_rto
        #: Variance weight in RTO = srtt + k·rttvar.  Jacobson's 4 is
        #: the default; the §6 "robust timer" ablation raises it so
        #: occasional wireless-delay spikes keep the RTO above the
        #: fade timescale without explicit feedback.
        self.k = k
        #: Optional asymmetric variance gain: when a sample *shrinks*
        #: the deviation, apply this gain instead of RTTVAR_GAIN (a
        #: value < 0.25 makes the estimator hold delay spikes longer —
        #: "peak-hold" variance, another robust-timer knob).
        self.var_decay_gain = var_decay_gain
        #: Smoothed RTT in ticks, or None before the first sample.
        self.srtt: Optional[float] = None
        #: Mean deviation in ticks.
        self.rttvar: float = 0.0
        self.samples_taken = 0
        #: The current RTO, recomputed only when the estimate changes.
        self._rto = initial_rto

    def sample(self, rtt_seconds: float) -> None:
        """Feed one valid (non-retransmitted-segment) RTT measurement."""
        if rtt_seconds < 0:
            raise ValueError(f"RTT sample must be >= 0, got {rtt_seconds}")
        ticks = max(1.0, round(rtt_seconds / self.granularity))
        if self.srtt is None:
            self.srtt = ticks
            self.rttvar = ticks / 2
        else:
            err = ticks - self.srtt
            self.srtt += self.SRTT_GAIN * err
            deviation_change = abs(err) - self.rttvar
            gain = self.RTTVAR_GAIN
            if deviation_change < 0 and self.var_decay_gain is not None:
                gain = self.var_decay_gain
            self.rttvar += gain * deviation_change
        self.samples_taken += 1
        raw_ticks = self.srtt + self.k * self.rttvar
        ticks = max(self.MIN_TICKS, math.ceil(raw_ticks - 1e-9))
        self._rto = min(self.max_rto, ticks * self.granularity)

    def rto(self) -> float:
        """Current retransmission timeout in seconds (no backoff applied).

        Before any sample: the conservative ``initial_rto``.  After:
        ``srtt + k·rttvar`` rounded up to a whole tick, clamped to
        ``[MIN_TICKS · granularity, max_rto]``.
        """
        return self._rto

    def reset(self) -> None:
        """Forget all history (fresh connection)."""
        self.srtt = None
        self.rttvar = 0.0
        self.samples_taken = 0
        self._rto = self.initial_rto
