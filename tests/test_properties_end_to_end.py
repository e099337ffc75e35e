"""End-to-end property tests: invariants over random configurations.

Whatever the scheme, seed, packet size or error condition, a completed
transfer must satisfy conservation and accounting invariants.  These
are the tests most likely to catch protocol-machinery bugs (duplicate
delivery, lost bytes, mis-counted retransmissions) that scenario tests
with fixed parameters would miss.

Example counts come from the Hypothesis profiles in ``conftest.py``:
the default ``tier1`` profile runs 25 examples per property; the
nightly CI job reruns everything with ``REPRO_HYPOTHESIS_PROFILE=nightly``
(200 examples).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.experiments.config import wan_scenario
from repro.experiments.topology import Scheme, run_scenario
from repro.experiments.parallel import run_unit
from repro.workloads.interactive import InteractiveConfig

TRANSFER = 8 * 1024  # small transfers keep each example fast

SCHEMES = st.sampled_from(
    [
        Scheme.BASIC,
        Scheme.LOCAL_RECOVERY,
        Scheme.EBSN,
        Scheme.QUENCH,
        Scheme.SNOOP,
        Scheme.SPLIT,
    ]
)


@st.composite
def scenario_configs(draw):
    scheme = draw(SCHEMES)
    seed = draw(st.integers(min_value=1, max_value=10_000))
    packet_size = draw(st.sampled_from([128, 256, 576, 1024, 1536]))
    bad = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    return wan_scenario(
        scheme=scheme,
        packet_size=packet_size,
        bad_period_mean=bad,
        transfer_bytes=TRANSFER,
        seed=seed,
        record_trace=True,
    )


class TestConservation:
    @given(config=scenario_configs())
    def test_every_byte_delivered_exactly_once(self, config):
        result = run_scenario(config)
        assert result.completed
        assert result.sink.stats.useful_payload_bytes == TRANSFER

    @given(config=scenario_configs())
    def test_accounting_invariants(self, config):
        result = run_scenario(config)
        m = result.metrics
        s = result.sender.stats

        assert m.goodput > 0.0
        # Goodput can never exceed 1 (you cannot deliver more useful
        # bytes than you sent) and useful wire bytes are bounded by
        # what the source put on the wire — except under SPLIT, whose
        # relay re-segments onto the wireless hop with its own headers,
        # so the sink-side byte counts aren't bounded by the source's.
        if config.scheme is not Scheme.SPLIT:
            assert m.goodput <= 1.0 + 1e-9
            assert m.useful_wire_bytes <= m.bytes_sent_wire
        # Retransmission counters are consistent.
        assert s.retransmissions == s.segments_sent - result.sender.total_segments
        assert s.retransmitted_bytes_wire <= s.bytes_sent_wire
        # Trace agrees with the sender's own counters.
        assert result.trace.retransmissions == s.retransmissions
        assert len(result.trace) == s.segments_sent

    @given(config=scenario_configs())
    def test_throughput_bounded_by_link_capacity(self, config):
        result = run_scenario(config)
        effective = config.wireless.effective_bandwidth_bps
        assert result.metrics.wire_throughput_bps <= effective * 1.05

    @given(config=scenario_configs())
    def test_determinism(self, config):
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.metrics.duration == b.metrics.duration
        assert a.metrics.segments_sent == b.metrics.segments_sent
        assert a.metrics.timeouts == b.metrics.timeouts


class TestSchemeInvariants:
    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        bad=st.sampled_from([1.0, 2.0, 4.0]),
    )
    def test_ebsn_rearms_match_receipts(self, seed, bad):
        result = run_scenario(
            wan_scenario(
                Scheme.EBSN,
                transfer_bytes=TRANSFER,
                bad_period_mean=bad,
                seed=seed,
                record_trace=False,
            )
        )
        s = result.sender.stats
        # Every EBSN that arrives while data is outstanding re-arms the
        # timer; none may be silently dropped by the handler.
        assert s.ebsn_timer_rearms <= s.ebsn_received
        assert s.ebsn_received <= result.ebsn.ebsn_sent

    @given(seed=st.integers(min_value=1, max_value=10_000))
    def test_arq_frame_conservation(self, seed):
        result = run_scenario(
            wan_scenario(
                Scheme.LOCAL_RECOVERY,
                transfer_bytes=TRANSFER,
                bad_period_mean=2.0,
                seed=seed,
                record_trace=False,
            )
        )
        for port in (result.bs_port, result.mh_port):
            stats = port.stats
            # (The simulation stops the instant the final ACK lands, so
            # a port may legitimately still have a frame in flight —
            # "busy" is not asserted.)
            assert stats.frames_discarded + stats.siblings_dropped <= stats.frames_accepted
            # Link-level attempts >= accepted frames that got sent.
            assert (
                stats.first_transmissions + stats.link_retransmissions
                >= stats.link_acks_received
            )


class TestInteractiveWorkload:
    """The stream-fed (telnet-style) workload generator's invariants."""

    @given(
        scheme=st.sampled_from([Scheme.BASIC, Scheme.LOCAL_RECOVERY, Scheme.EBSN]),
        seed=st.integers(min_value=1, max_value=10_000),
        keystrokes=st.integers(min_value=5, max_value=40),
    )
    def test_every_keystroke_delivered_with_sane_latency(
        self, scheme, seed, keystrokes
    ):
        result = run_unit(
            InteractiveConfig(scheme=scheme, keystrokes=keystrokes, seed=seed)
        )
        assert result.completed
        # One latency sample per keystroke — none lost, none duplicated.
        assert result.latency.count == keystrokes
        # The distribution summary must be ordered and causal.
        assert 0.0 < result.latency.p50 <= result.latency.p95 <= result.latency.worst
        assert result.latency.mean <= result.latency.worst
        assert result.duration >= result.latency.worst
        assert result.timeouts >= 0

    @given(seed=st.integers(min_value=1, max_value=10_000))
    def test_interactive_determinism(self, seed):
        config = InteractiveConfig(
            scheme=Scheme.EBSN, keystrokes=10, seed=seed
        )
        a = run_unit(config)
        b = run_unit(config)
        assert a.latency == b.latency
        assert a.duration == b.duration
        assert a.timeouts == b.timeouts
