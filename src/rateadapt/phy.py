"""Radio link model: Friis path loss, thermal noise, SNR and per-MCS frame
success probability.

Everything here is a pure function of its arguments; no state, no RNG.
The frame success probability uses a per-MCS logistic curve
p(snr) = 1 / (1 + exp(-slope * (snr - midpoint))), which is analytically
invertible and keeps the whole PHY abstraction two parameters per rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: The config schema's lower bound for the start distance; the receiver
#: only moves away, so the Friis formula never sees the d -> 0 singularity.
MINIMUM_DISTANCE_M = 0.1

N_MCS = 8

# HT20, long guard interval, single spatial stream.
DEFAULT_PHY_RATES_MBPS = (6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0)
# Logistic parameters of the frame success curves; chosen so the switching
# points of an SNR-threshold policy spread over a 0..40 dB sweep.
DEFAULT_PER_MIDPOINTS_DB = (5.0, 8.0, 11.0, 14.0, 18.0, 21.0, 24.0, 26.0)
DEFAULT_PER_SLOPES_PER_DB = (1.0,) * N_MCS


@dataclass(frozen=True)
class ChannelParams:
    """Static radio parameters of the link."""

    frequency_hz: float
    tx_power_dbm: float
    bandwidth_hz: float
    noise_figure_db: float


@dataclass(frozen=True)
class McsEntry:
    """One modulation and coding scheme: rate plus its success curve."""

    index: int
    phy_rate_mbps: float
    midpoint_snr_db: float
    slope_per_db: float


class McsTable:
    """The eight MCS entries in index order; the config guarantees that rate
    and midpoint increase with the index."""

    def __init__(self, entries):
        self.entries = tuple(entries)

    def __len__(self):
        return N_MCS

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> McsEntry:
        return self.entries[index]

    @property
    def max_rate_mbps(self) -> float:
        return self.entries[-1].phy_rate_mbps

    @classmethod
    def from_lists(cls, rates_mbps, midpoints_db, slopes_per_db) -> "McsTable":
        return cls(
            McsEntry(i, float(r), float(m), float(s))
            for i, (r, m, s) in enumerate(zip(rates_mbps, midpoints_db, slopes_per_db))
        )

    @classmethod
    def default(cls) -> "McsTable":
        return cls.from_lists(
            DEFAULT_PHY_RATES_MBPS, DEFAULT_PER_MIDPOINTS_DB, DEFAULT_PER_SLOPES_PER_DB
        )


def friis_path_loss(distance_m: float, params: ChannelParams) -> float:
    """Free-space path loss in dB: 20*log10(4*pi*d*f/c)."""
    return 20.0 * math.log10(4.0 * math.pi * distance_m * params.frequency_hz / SPEED_OF_LIGHT)


def noise_power_dbm(params: ChannelParams) -> float:
    """Thermal noise floor plus receiver noise figure, in dBm."""
    return -174.0 + 10.0 * math.log10(params.bandwidth_hz) + params.noise_figure_db


def snr_db(distance_m: float, params: ChannelParams) -> float:
    """Receive SNR in dB at a given distance (deterministic, no fading)."""
    return params.tx_power_dbm - friis_path_loss(distance_m, params) - noise_power_dbm(params)


def frame_success_prob(snr: float, mcs: McsEntry):
    """Probability that one frame at `mcs` succeeds at the given SNR (dB).

    Accepts a scalar or an ndarray of SNR values.
    """
    x = np.asarray(snr, dtype=float)
    with np.errstate(over="ignore"):  # exp overflow saturates to p = 0
        p = 1.0 / (1.0 + np.exp(-mcs.slope_per_db * (x - mcs.midpoint_snr_db)))
    return float(p) if np.isscalar(snr) or p.ndim == 0 else p


def scale_snr(snr: float, lo_db: float, hi_db: float) -> float:
    """Map an SNR in dB to the [0, 1] observation range, clamping outside."""
    return min(1.0, max(0.0, (snr - lo_db) / (hi_db - lo_db)))
