"""The paper's contributions.

* :mod:`repro.core.ebsn` — Explicit Bad State Notification: the base
  station tells the TCP source the wireless link is in a bad state
  after every failed link-level attempt; the source re-arms its
  retransmission timer at the current timeout, preventing spurious
  timeouts during local recovery (§4.2.3).
* :mod:`repro.core.quench` — ICMP Source Quench feedback, the §4.2.2
  negative result: it throttles new packets but cannot save packets
  already in flight from timing out.
* :mod:`repro.core.packet_size` — the §4.1 result: pick a "good"
  wired packet size per wireless error condition from a fixed table at
  the base station.
* :mod:`repro.core.snoop` — a snoop-style transport-aware agent at
  the base station (the Balakrishnan et al. baseline of §2), used by
  the comparison benchmarks.
* :mod:`repro.core.split` — an I-TCP style split connection (the
  Bakre & Badrinath baseline of §2): two back-to-back TCP connections
  meeting at the base station.

Nothing is re-exported here: a run loads only the scheme it builds
(``Scenario`` imports it where it wires it up).
"""
