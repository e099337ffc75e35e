"""Discrete-event simulation engine.

The engine is the substrate everything else runs on: a binary-heap
event loop with a float-seconds clock (:class:`Simulator`), cancellable
re-armable timers (:class:`Timer`), and named deterministic random
streams (:class:`RandomStreams`) so that every stochastic component of
a simulation draws from its own reproducible sequence.
"""

from repro.engine.simulator import (
    MAX_SIM_TIME,
    Simulator,
    SimulationError,
    WallClockExceeded,
)
from repro.engine.timer import Timer
from repro.engine.rng import RandomStreams

__all__ = [
    "MAX_SIM_TIME",
    "Simulator",
    "SimulationError",
    "WallClockExceeded",
    "Timer",
    "RandomStreams",
]
