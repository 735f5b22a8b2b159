"""Discrete-event simulation of one saturated UDP link with a receding
receiver, exposed through a gym-style reset/step interface.

One step simulates a window of `window_frames` frame attempts at the chosen
MCS. Frame airtime is payload time plus a fixed overhead constant that lumps
preamble, MAC header, SIFS, ACK and DIFS together; there are no
retransmissions, so throughput is a pure function of the success count and
the airtime. The receiver moves away at constant speed while the window
plays out, so per-frame success probabilities are evaluated at each frame's
ACK instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phy
from .phy import McsTable


# The fields of an episode log record, in throughput_*.csv column order.
LOG_FIELDS = ("time_s", "tx_pos_m", "rx_pos_m", "throughput_mbps")


@dataclass(frozen=True)
class StepResult:
    """One environment transition as seen by the agent, plus the window's
    frame success ratio and the raw SNR at the receiver's current distance."""

    observation: float
    reward: float
    done: bool
    fsr: float
    raw_snr_db: float


def dara_reward(fsr: float, mcs: int, table: McsTable) -> float:
    """Reward favouring the highest MCS that still succeeds: FSR weighted by
    the chosen rate relative to the top rate, so it lives in [0, 1]."""
    return fsr * float(table.rates_mbps[mcs]) / table.max_rate_mbps


def rng_streams(seed: int, episode: int = 0):
    """Two independent generators derived from (seed, episode): one for the
    environment's Bernoulli draws, one for the agent (exploration, init,
    replay sampling). Keeping them separate means agent configuration changes
    never perturb the channel randomness."""
    env_ss, agent_ss = np.random.SeedSequence([int(seed), int(episode)]).spawn(2)
    return np.random.default_rng(env_ss), np.random.default_rng(agent_ss)


class LinkSimEnv:
    """Single saturated UDP link, one decision per window of frames.

    The observation is the window's mean ACK SNR scaled to [0, 1]; windows
    with zero successes carry the previous observation forward (there are no
    ACKs to measure). Each result also carries the FSR (read by the
    Minstrel-like baseline) and the raw SNR at the current distance (read by
    the Ideal baseline).
    """

    INITIAL_MCS = 0

    def __init__(self, cfg):
        """Build the link from a validated RootConfig."""
        sim, gym = cfg["sim"], cfg["gym"]
        self.channel = cfg.channel_params()
        self.table = cfg.mcs_table()
        self.start_distance_m = sim["start_distance_m"]
        self.speed_mps = sim["speed_mps"]
        self.payload_bits = sim["payload_bytes"] * 8
        self.airtime_s = cfg.airtime_s()
        self.window_frames = gym["window_frames"]
        self.duration_s = sim["duration_s"]
        self.log_period_s = sim["log_period_s"]
        self.snr_lo_db = gym["snr_lo_db"]
        self.snr_hi_db = gym["snr_hi_db"]
        self._rng = None

    def position_at(self, t):
        """Receiver distance from the stationary sender at time t (or at each
        time in an array)."""
        return self.start_distance_m + self.speed_mps * t

    def _window(self, clock, dt, mcs):
        """The SNRs at the ACK instants clock + dt*(1..window_frames) of a
        window at MCS `mcs`, with the receiver still moving, and each frame's
        success probability. Reads only the link's fixed constants."""
        ack_times = clock + dt * np.arange(1, self.window_frames + 1)
        ack_snrs = phy.snr_db(self.position_at(ack_times), self.channel)
        p = phy.frame_success_prob(ack_snrs, self.table.slopes_per_db[mcs],
                                   self.table.midpoints_db[mcs])
        return ack_snrs, p

    # -- lifecycle ---------------------------------------------------------

    def reset(self, seed: int, episode: int = 0) -> StepResult:
        """Start a new episode; returns the initial observation.

        The observation comes from a probe window at the initial MCS whose
        frames all ACK at t=0, so the episode proper still starts at the
        configured distance.
        """
        self._rng = rng_streams(seed, episode)[0]
        self.clock = 0.0
        # End time and delivered bits of every window, for throughput_log().
        self._window_ends = []
        self._window_bits = []

        ack_snrs, p = self._window(0.0, 0.0, self.INITIAL_MCS)
        successes = self._rng.random(self.window_frames) < p
        fsr = int(np.count_nonzero(successes)) / self.window_frames
        self._last_observation = phy.scale_snr(ack_snrs[-1], self.snr_lo_db,
                                               self.snr_hi_db)
        return StepResult(self._last_observation, 0.0, False, fsr, ack_snrs[-1])

    def step(self, action: int) -> StepResult:
        """Simulate one window of frames at MCS `action`."""
        if self.done:
            raise RuntimeError("no episode in progress; call reset()")
        if not isinstance(action, (int, np.integer)) or not 0 <= action < phy.N_MCS:
            raise ValueError(f"action must be an MCS index in [0, {phy.N_MCS - 1}], "
                             f"got {action!r}")

        w = self.window_frames
        dt = float(self.airtime_s[action])

        snrs, p = self._window(self.clock, dt, action)
        successes = self._rng.random(w) < p

        n_ok = int(np.count_nonzero(successes))
        fsr = n_ok / w
        if n_ok > 0:  # with no ACKs to measure, the last observation stands
            mean_ack_snr = float(np.mean(snrs[successes]))
            self._last_observation = phy.scale_snr(mean_ack_snr, self.snr_lo_db,
                                                   self.snr_hi_db)

        self.clock += w * dt
        self._window_ends.append(self.clock)
        self._window_bits.append(n_ok * self.payload_bits)

        # The last ACK instant is the window's end, so snrs[-1] is the SNR
        # at the current distance.
        return StepResult(self._last_observation, dara_reward(fsr, action, self.table),
                          self.done, fsr, snrs[-1])

    def throughput_log(self) -> np.ndarray:
        """The finished episode's throughput log: one row per log tick
        strictly before `duration_s` plus a last row at the episode end, in
        LOG_FIELDS column order.

        A window's bits go to the first tick strictly after the window's
        start, or to the last row when no tick before `duration_s` is. Tick
        k is the running sum of k periods, added one at a time, and bit
        counts are integers, so their sums are exact.
        """
        if self._rng is None or not self.done:
            raise RuntimeError("throughput_log() needs a finished episode")
        n_ticks = int(self.duration_s / self.log_period_s) + 2
        ticks = np.cumsum(np.full(n_ticks, self.log_period_s))
        times = np.append(ticks[ticks < self.duration_s], self.clock)
        # A record closes with the first window ending at or after its time;
        # for the last record that is the last window.
        closing = np.searchsorted(self._window_ends, times, "left")
        bits = np.diff(np.cumsum(self._window_bits)[closing], prepend=0)
        periods = np.diff(times, prepend=0.0)
        return np.column_stack((times, np.zeros_like(times),
                                self.position_at(times), bits / periods / 1e6))

    @property
    def done(self) -> bool:
        """True before the first reset and once the clock reaches duration_s."""
        return self._rng is None or self.clock >= self.duration_s

    @property
    def mean_throughput_mbps(self) -> float:
        """Payload bits delivered over elapsed simulated time, in Mbit/s."""
        return sum(self._window_bits) / self.clock / 1e6 if self.clock > 0 else 0.0
