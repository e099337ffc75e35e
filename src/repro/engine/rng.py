"""Named deterministic random streams.

Every stochastic component of a simulation (the wireless channel, ARQ
backoff, ...) pulls from its own substream, derived from a master seed
and the component's name.  Components therefore cannot perturb each
other's sequences: adding a new random consumer to a simulation leaves
existing components' draws unchanged, which keeps regression baselines
stable and makes per-figure results reproducible across runs.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory for named, independent :class:`random.Random` substreams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.stream("channel")
    >>> b = streams.stream("backoff")
    >>> a is streams.stream("channel")   # same name, same stream
    True
    >>> RandomStreams(7).stream("channel").random() == a.random()
    False
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the substream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive(name))
        return self._streams[name]

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")
