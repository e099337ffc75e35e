"""IP-layer services: routing, fragmentation, reassembly.

Fragmentation is the crux of the paper's §4.1: wired packets larger
than the wireless MTU are split at the base station, and losing *any*
fragment loses the whole packet — the source retransmits everything.
Reassembly here is therefore strictly all-or-nothing, with a timeout
that garbage-collects partial datagrams (as RFC 791 reassembly does).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro.engine import Simulator
from repro.net.packet import Address, Datagram, Fragment


class RoutingTable:
    """Next-hop routing: destination address → forwarding callable.

    Topology builders install the routes before the run.  In the
    paper's three-node chain they never change.  The handoff study's
    router re-points its route to the mobile host whenever the host
    reattaches to another cell.
    """

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self._routes: Dict[Address, Callable[[Datagram], None]] = {}

    def add_route(self, dst: Address, forward: Callable[[Datagram], None]) -> None:
        """Install the forwarding function for datagrams to ``dst``."""
        self._routes[dst] = forward

    def forward(self, datagram: Datagram) -> None:
        """Route a datagram one hop; raises KeyError if unroutable."""
        dst = datagram.dst
        forward = self._routes.get(dst)
        if forward is None:
            raise KeyError(f"node {self.node_name!r} has no route to {dst!r}")
        forward(datagram)


class Fragmenter:
    """Split datagrams to fit the wireless MTU.

    A datagram of N bytes becomes ``ceil(N / mtu)`` fragments; all but
    the last are exactly MTU-sized.  (Per-fragment radio framing is
    accounted separately by the wireless link's overhead factor, which
    the paper says covers framing, FEC, segmentation and sync.)
    """

    def __init__(self, mtu_bytes: int) -> None:
        if mtu_bytes <= 0:
            raise ValueError(f"MTU must be positive, got {mtu_bytes}")
        self.mtu_bytes = mtu_bytes
        self.datagrams_fragmented = 0
        self.fragments_produced = 0

    def fragment(self, datagram: Datagram) -> List[Fragment]:
        """Split ``datagram``; a datagram within the MTU yields one fragment."""
        mtu = self.mtu_bytes
        remaining = datagram.size_bytes
        # Field-by-field builds skip __init__/__post_init__ on the
        # per-fragment hot path; the validated invariants (index in
        # range, positive size) hold by construction.
        if remaining <= mtu:
            frag = Fragment.__new__(Fragment)
            frag.datagram = datagram
            frag.frag_index = 0
            frag.frag_count = 1
            frag.size_bytes = remaining
            self.fragments_produced += 1
            return [frag]
        count = -(-remaining // mtu)
        fragments: List[Fragment] = []
        for index in range(count):
            size = mtu if remaining > mtu else remaining
            frag = Fragment.__new__(Fragment)
            frag.datagram = datagram
            frag.frag_index = index
            frag.frag_count = count
            frag.size_bytes = size
            fragments.append(frag)
            remaining -= size
        self.datagrams_fragmented += 1
        self.fragments_produced += count
        return fragments


class Reassembler:
    """All-or-nothing fragment reassembly with timeout.

    ``add()`` returns the whole datagram when its last fragment
    arrives, else ``None``.  Partial datagrams older than ``timeout``
    are discarded by a periodic sweep, counting a reassembly failure —
    this is the wired packet the TCP source will have to resend.

    Each partial datagram is a ``[bitmask, fragments_left, first_seen]``
    list keyed by datagram uid: bit ``i`` of the mask is set once
    fragment ``i`` has arrived.
    """

    #: How many completed datagram uids to remember, so that a late
    #: ARQ re-delivery of a fragment (its link ACK was lost) does not
    #: resurrect a reassembly buffer for an already-delivered datagram.
    COMPLETED_MEMORY = 512

    def __init__(self, sim: Simulator, timeout: float = 30.0, name: str = "reasm") -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._sim = sim
        self.timeout = timeout
        self.name = name
        self._partials: Dict[int, list] = {}
        self._completed_recent: "OrderedDict[int, None]" = OrderedDict()
        self.completed = 0
        self.failed = 0
        self.duplicate_fragments = 0
        self._sweep_scheduled = False

    def add(self, fragment: Fragment) -> Optional[Datagram]:
        """Account one arriving fragment; return the datagram if complete."""
        datagram = fragment.datagram
        uid = datagram.uid
        completed_recent = self._completed_recent
        if uid in completed_recent:
            self.duplicate_fragments += 1
            return None
        if fragment.frag_count == 1:
            # An unfragmented datagram completes at once; it still arms
            # the sweep, so sweep times do not depend on sizes.
            if not self._sweep_scheduled:
                self._ensure_sweep()
        else:
            partial = self._partials.get(uid)
            bit = 1 << fragment.frag_index
            if partial is None:
                # A datagram's first fragment arms the sweep.
                self._ensure_sweep()
                self._partials[uid] = [bit, fragment.frag_count - 1, self._sim._now]
                return None
            if partial[0] & bit:
                self.duplicate_fragments += 1
                return None
            left = partial[1] - 1
            if left:
                partial[0] |= bit
                partial[1] = left
                return None
            del self._partials[uid]
        self.completed += 1
        completed_recent[uid] = None
        if len(completed_recent) > self.COMPLETED_MEMORY:
            completed_recent.popitem(last=False)
        return datagram

    @property
    def pending(self) -> int:
        """Number of datagrams currently awaiting fragments."""
        return len(self._partials)

    def _ensure_sweep(self) -> None:
        if not self._sweep_scheduled:
            self._sweep_scheduled = True
            self._sim.schedule(self.timeout, self._sweep)

    def _sweep(self) -> None:
        self._sweep_scheduled = False
        deadline = self._sim._now - self.timeout
        expired = [uid for uid, p in self._partials.items() if p[2] <= deadline]
        for uid in expired:
            del self._partials[uid]
            self.failed += 1
        if self._partials:
            self._ensure_sweep()
