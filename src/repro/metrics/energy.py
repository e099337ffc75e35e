"""Mobile-host energy accounting.

Battery life was the other scarce resource of 1990s mobile computing;
redundant retransmissions cost the mobile host radio-on time both ways
(receiving duplicate data, transmitting duplicate ACKs), and a longer
transfer costs idle listening.  The model uses WaveLAN-class radio
powers and the links' measured busy times:

    E = P_rx · (downlink airtime) + P_tx · (uplink airtime)
        + P_idle · (remaining connection time)

The receiver is charged for *all* downlink airtime (its radio decodes
corrupted frames too before the CRC rejects them).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.topology import ScenarioResult


@dataclass(frozen=True, slots=True)
class EnergyModel:
    """Radio power draw in watts (defaults: WaveLAN-class PCMCIA)."""

    tx_power_w: float = 1.7
    rx_power_w: float = 1.4
    idle_power_w: float = 1.1

    def __post_init__(self) -> None:
        if min(self.tx_power_w, self.rx_power_w, self.idle_power_w) < 0:
            raise ValueError("power draws must be >= 0")


@dataclass(frozen=True, slots=True)
class EnergyReport:
    """Energy breakdown for one connection at the mobile host."""

    tx_joules: float
    rx_joules: float
    idle_joules: float
    duration: float
    useful_bytes: int

    @property
    def total_joules(self) -> float:
        return self.tx_joules + self.rx_joules + self.idle_joules

    @property
    def joules_per_useful_kb(self) -> float:
        """The figure of merit: energy per KB of user data delivered."""
        if self.useful_bytes == 0:
            return float("inf")
        return self.total_joules / (self.useful_bytes / 1024)


#: The power draws every report charges.
RADIO = EnergyModel()


def mobile_host_energy(result: ScenarioResult) -> EnergyReport:
    """Compute the MH's energy for a completed scenario run."""
    duration = result.metrics.duration
    rx_time = min(result.downlink.stats.busy_time, duration)
    tx_time = min(result.uplink.stats.busy_time, duration)
    idle_time = max(duration - rx_time - tx_time, 0.0)
    return EnergyReport(
        tx_joules=RADIO.tx_power_w * tx_time,
        rx_joules=RADIO.rx_power_w * rx_time,
        idle_joules=RADIO.idle_power_w * idle_time,
        duration=duration,
        useful_bytes=result.sink.stats.useful_payload_bytes,
    )
