"""Differential oracles: two computations that must agree exactly.

Where a single run has no ground truth, two independent paths to the
same answer do.  These oracles are usable both as test fixtures (the
property suite calls them directly) and as standalone invariants
(``repro``'s claim validation can fold them in):

* :func:`assert_variants_agree_on_clean_channel` — on an error-free
  channel, Tahoe, Reno and NewReno are *the same protocol*: all three
  differ only in their loss responses, and with zero loss none of
  those paths executes.  Any divergence means a variant leaks
  behaviour into the common path.
* :func:`assert_serial_parallel_identical` — the parallel experiment
  engine must be a pure performance optimization: fanning seeds over
  a process pool may never change a single aggregate bit.

Both raise :class:`OracleDisagreement` with a field-by-field account
on failure and return the compared results on success.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.experiments.config import wan_scenario
from repro.experiments.runner import ReplicatedResult, run_replicated
from repro.experiments.topology import (
    ChannelConfig,
    ScenarioConfig,
    Scheme,
    run_scenario,
)

#: The TCP variants that must be indistinguishable without loss.
TCP_VARIANTS = ("tahoe", "reno", "newreno")


class OracleDisagreement(AssertionError):
    """Two computations that must agree, did not."""


def clean_channel_config(
    tcp_variant: str, transfer_bytes: int = 16 * 1024
) -> ScenarioConfig:
    """A WAN scenario (seed 1) whose channel never corrupts a frame."""
    config = wan_scenario(
        scheme=Scheme.BASIC,
        transfer_bytes=transfer_bytes,
        tcp_variant=tcp_variant,
        record_trace=False,
    )
    return replace(config, channel=ChannelConfig(ber_good=0.0, ber_bad=0.0))


def assert_variants_agree_on_clean_channel(
    transfer_bytes: int = 16 * 1024,
) -> Dict[str, object]:
    """Run all variants losslessly; their metrics must be identical."""
    results = {
        variant: run_scenario(clean_channel_config(variant, transfer_bytes))
        for variant in TCP_VARIANTS
    }
    reference = TCP_VARIANTS[0]
    fingerprints = {
        variant: (
            result.metrics.duration,
            result.metrics.segments_sent,
            result.metrics.retransmissions,
            result.metrics.timeouts,
            result.metrics.throughput_bps,
        )
        for variant, result in results.items()
    }
    for variant, fingerprint in fingerprints.items():
        if fingerprint != fingerprints[reference]:
            raise OracleDisagreement(
                f"TCP variants diverged on an error-free channel: "
                f"{reference}={fingerprints[reference]} but "
                f"{variant}={fingerprint} "
                f"(duration, segments, retx, timeouts, throughput)"
            )
    for variant, result in results.items():
        if result.metrics.retransmissions or result.metrics.timeouts:
            raise OracleDisagreement(
                f"{variant} retransmitted on an error-free channel: "
                f"{result.metrics.retransmissions} retx, "
                f"{result.metrics.timeouts} timeouts"
            )
    return results


#: Aggregate fields that must match bit-for-bit between engines.
_AGGREGATE_FIELDS = (
    "replications",
    "throughput_bps_mean",
    "throughput_bps_std",
    "goodput_mean",
    "retransmitted_kbytes_mean",
    "timeouts_mean",
    "duration_mean",
    "tput_th_bps",
)


def assert_serial_parallel_identical(
    config: Optional[ScenarioConfig] = None,
    replications: int = 4,
    workers: int = 2,
) -> Tuple[ReplicatedResult, ReplicatedResult]:
    """Serial vs. pooled replication (seeds from 1) must agree on every bit."""
    if config is None:
        config = wan_scenario(transfer_bytes=8 * 1024, record_trace=False)
    serial = run_replicated(config, replications, 1, workers=1)
    pooled = run_replicated(config, replications, 1, workers=workers)
    for field_name in _AGGREGATE_FIELDS:
        serial_value = getattr(serial, field_name)
        pooled_value = getattr(pooled, field_name)
        if serial_value != pooled_value:
            raise OracleDisagreement(
                f"serial and parallel engines disagree on {field_name}: "
                f"{serial_value!r} != {pooled_value!r}"
            )
    return serial, pooled
