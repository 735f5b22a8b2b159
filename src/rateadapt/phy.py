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
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: The config schema's lower bound for the start distance. The receiver only
#: moves away, so the config guarantees every distance here is positive, and
#: validate_config checks that the loss at the farthest one is finite.
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

    @cached_property
    def noise_power_dbm(self) -> float:
        """Thermal noise floor plus receiver noise figure, in dBm."""
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db


@dataclass(frozen=True)
class McsTable:
    """The eight MCS entries as float arrays in index order: PHY rate and the
    midpoint and slope of the frame success curve. The config guarantees that
    rate and midpoint increase with the index."""

    rates_mbps: np.ndarray
    midpoints_db: np.ndarray
    slopes_per_db: np.ndarray

    @property
    def max_rate_mbps(self) -> float:
        return float(self.rates_mbps[-1])


def friis_path_loss(distance_m, params: ChannelParams):
    """Free-space path loss in dB, 20*log10(4*pi*d*f/c), for a distance or an
    array of distances."""
    return 20.0 * np.log10(4.0 * math.pi * distance_m * params.frequency_hz / SPEED_OF_LIGHT)


def snr_db(distance_m, params: ChannelParams):
    """Receive SNR in dB at a distance or an array of distances
    (deterministic, no fading)."""
    return params.tx_power_dbm - friis_path_loss(distance_m, params) - params.noise_power_dbm


def _largest_finite_exp_arg() -> float:
    """The largest float64 x whose exp(x) is finite."""
    with np.errstate(over="ignore"):
        x = np.log(np.finfo(float).max)
        while not np.isfinite(np.exp(x)):
            x = np.nextafter(x, -np.inf)
        while np.isfinite(np.exp(np.nextafter(x, np.inf))):
            x = np.nextafter(x, np.inf)
    return float(x)


#: Exponents above this overflow exp to inf, which saturates p to 0.
EXP_ARG_MAX = _largest_finite_exp_arg()


def frame_success_prob(snr, slope_per_db, midpoint_db):
    """Probability that one frame succeeds at the given SNR (dB) on the
    success curve with this slope and midpoint; broadcasts over arrays, so
    one call covers a window of SNRs or every MCS."""
    exponent = -slope_per_db * (snr - midpoint_db)
    if np.fmax.reduce(exponent, axis=None) <= EXP_ARG_MAX:
        return 1.0 / (1.0 + np.exp(exponent))
    with np.errstate(over="ignore"):  # exp overflow saturates to p = 0
        return 1.0 / (1.0 + np.exp(exponent))


def scale_snr(snr: float, lo_db: float, hi_db: float) -> float:
    """Map an SNR in dB to the [0, 1] observation range, clamping outside."""
    return min(1.0, max(0.0, (snr - lo_db) / (hi_db - lo_db)))
