"""Nodes.

A :class:`Node` is a named endpoint/router: datagrams addressed to it
are handed to its attached agent (a TCP source, a TCP sink, ...);
anything else is forwarded via its routing table, whose entries are
the outgoing links' ``send`` methods themselves.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.net.ip import RoutingTable
from repro.net.packet import Address, Datagram


class Agent(Protocol):
    """Anything that can consume datagrams addressed to its node."""

    def receive(self, datagram: Datagram) -> None:
        """Handle a datagram whose ``dst`` is this node."""
        ...  # pragma: no cover - protocol


class Node:
    """A host or router in the simulated topology."""

    def __init__(self, name: Address) -> None:
        self.name = name
        self.routing = RoutingTable(name)
        # The table's own dict (handoffs and the event log update it in
        # place), read directly on the per-datagram path.
        self._routes = self.routing._routes
        self.agent: Optional[Agent] = None

    def attach_agent(self, agent: Agent) -> None:
        """Install the transport-layer agent living on this node."""
        self.agent = agent

    def add_interface(
        self, send: Callable[[Datagram], None], *destinations: Address
    ) -> None:
        """Route the given destinations out through ``send``."""
        for dst in destinations:
            self.routing.add_route(dst, send)

    def receive(self, datagram: Datagram) -> None:
        """Entry point for datagrams arriving from any link."""
        dst = datagram.dst
        if dst == self.name:
            if self.agent is None:
                raise RuntimeError(
                    f"node {self.name!r} received a datagram but has no agent"
                )
            self.agent.receive(datagram)
            return
        # Inlined self.routing.forward(datagram).
        forward = self._routes.get(dst)
        if forward is None:
            raise KeyError(f"node {self.name!r} has no route to {dst!r}")
        forward(datagram)

    def send(self, datagram: Datagram) -> None:
        """Originate a datagram from this node (route it one hop out)."""
        dst = datagram.dst
        forward = self._routes.get(dst)
        if forward is None:
            raise KeyError(f"node {self.name!r} has no route to {dst!r}")
        forward(datagram)
