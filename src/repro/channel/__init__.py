"""Wireless channel error models.

The paper characterizes the wireless link with a two-state Markov
model (Fig. 1): a *good* state with mean BER 1e-6 and a *bad* state
(deep fade) with mean BER 1e-2; sojourn times in each state are
exponentially distributed (mean good period 10 s, mean bad period
1–4 s for the WAN study).  For the illustrative traces (Figs 3–5) the
paper freezes the randomness: constant sojourn lengths and
deterministic corruption, so the three schemes see identical error
sequences.

:class:`TwoStateChannel` implements both variants behind one
interface; see :mod:`repro.channel.twostate`.  The i.i.d. loss model
of the snoop comparison, :class:`~repro.channel.bernoulli.BernoulliLossChannel`,
loads only where a config asks for it.
"""

from repro.channel.twostate import (
    ChannelState,
    DeterministicSojourns,
    ExponentialSojourns,
    SojournSource,
    TwoStateChannel,
    deterministic_channel,
    markov_channel,
)

__all__ = [
    "ChannelState",
    "DeterministicSojourns",
    "ExponentialSojourns",
    "SojournSource",
    "TwoStateChannel",
    "deterministic_channel",
    "markov_channel",
]
