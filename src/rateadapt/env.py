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

from typing import NamedTuple

import numpy as np

from . import phy


# The fields of an episode log record, in throughput_*.csv column order.
LOG_FIELDS = ("time_s", "tx_pos_m", "rx_pos_m", "throughput_mbps")

# A run block holds the next windows' PHY rows and success masks at one MCS.
# A run's first block has _BLOCK_FIRST_ROWS rows and each refill in the run
# doubles that, up to _BLOCK_FRAMES frames per block (one row at the least).
_BLOCK_FIRST_ROWS = 4
_BLOCK_FRAMES = 64 * 50


class StepResult(NamedTuple):
    """One environment transition as seen by the agent, plus the window's
    frame success ratio and the raw SNR at the receiver's current distance."""

    observation: float
    reward: float
    done: bool
    fsr: float
    raw_snr_db: float


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
        # Row a holds the ACK-time offsets dt*(1..window_frames) of a window
        # at MCS a, the same products a window would otherwise recompute.
        self._ack_offsets = self.airtime_s[:, None] * np.arange(1, self.window_frames + 1)
        # Per-MCS window advance (window_frames * dt) and rate, as Python floats.
        self._advance = (self.window_frames * self.airtime_s).tolist()
        self._rates = self.table.rates_mbps.tolist()
        self._max_rate = self.table.max_rate_mbps
        self._rng = None
        self.done = True  # before the first reset and once clock >= duration_s
        self._drop_block()

    def position_at(self, t):
        """Receiver distance from the stationary sender at time t (or at each
        time in an array)."""
        return self.start_distance_m + self.speed_mps * t

    def _window(self, clock, offsets, mcs):
        """The SNRs at the ACK instants clock + offsets of a window at MCS
        `mcs`, with the receiver still moving, and each frame's success
        probability. Reads only the link's fixed constants. A (k, 1) column
        of clocks gives the (k, window) rows of k windows."""
        ack_snrs = phy.snr_db(self.position_at(clock + offsets), self.channel)
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
        self.done = False  # the config's duration_s is positive
        # End time and delivered bits of every window, for throughput_log().
        self._window_ends = []
        self._window_bits = []
        self._drop_block()

        ack_snrs, p = self._window(0.0, np.zeros(self.window_frames), self.INITIAL_MCS)
        successes = self._rng.random(self.window_frames) < p
        fsr = int(np.count_nonzero(successes)) / self.window_frames
        raw = float(ack_snrs[-1])
        self._last_observation = phy.scale_snr(raw, self.snr_lo_db, self.snr_hi_db)
        return StepResult(self._last_observation, 0.0, False, fsr, raw)

    def step(self, action: int) -> StepResult:
        """Simulate one window of frames at MCS `action`."""
        if self.done:
            raise RuntimeError("no episode in progress; call reset()")
        if not isinstance(action, (int, np.integer)) or not 0 <= action < phy.N_MCS:
            raise ValueError(f"action must be an MCS index in [0, {phy.N_MCS - 1}], "
                             f"got {action!r}")
        i = self._block_next
        # A row serves only the clock it was computed for, so a clock set
        # from outside refills the block instead of reading a stale row.
        if (action != self._block_action or i == len(self._block_clocks)
                or self.clock != self._block_clocks[i]):
            self._fill_block(action)
            i = 0
        self._block_next = i + 1
        snrs = self._block_snrs[i]
        acked = snrs[self._block_ok[i]]
        n_ok = len(acked)
        if n_ok > 0:  # with no ACKs to measure, the last observation stands
            # np.mean's own sum and division, without its per-call wrapper
            self._last_observation = phy.scale_snr(float(np.add.reduce(acked)) / n_ok,
                                                   self.snr_lo_db, self.snr_hi_db)
        fsr = n_ok / self.window_frames
        self.clock += self._advance[action]
        self.done = self.clock >= self.duration_s
        self._window_ends.append(self.clock)
        self._window_bits.append(n_ok * self.payload_bits)
        # The last ACK instant is the window's end, so snrs[-1] is the SNR at
        # the current distance; the reward is FSR times the chosen rate over
        # the top rate, in [0, 1].
        return StepResult(self._last_observation, fsr * self._rates[action] / self._max_rate,
                          self.done, fsr, float(snrs[-1]))

    def _drop_block(self):
        """Forget the run block and its uniforms, so the next step fills a
        new block from the generator."""
        self._block_action, self._block_clocks, self._block_next = None, [], 0
        self._block_snrs = self._block_ok = self._uniforms = np.empty(0)

    def _fill_block(self, action):
        """Compute the run block at MCS `action` from the current clock. Its
        clocks come from the same sequential adds `step` makes, and it stops
        before the first clock at or past duration_s, a window never played.
        Its masks take the stream's next uniforms: those held for the last
        block's unplayed rows, then the shortfall in one draw."""
        grow = action == self._block_action and self._block_next == len(self._block_clocks)
        rows = min(2 * len(self._block_clocks) if grow else _BLOCK_FIRST_ROWS,
                   max(1, _BLOCK_FRAMES // self.window_frames))
        advance, clocks = self._advance[action], [self.clock]
        while len(clocks) < rows and (c := clocks[-1] + advance) < self.duration_s:
            clocks.append(c)
        n = len(clocks) * self.window_frames
        uniforms = self._uniforms[self._block_next * self.window_frames:]
        if len(uniforms) < n:
            uniforms = np.concatenate((uniforms, self._rng.random(n - len(uniforms))))
        self._block_snrs, p = self._window(
            np.array(clocks)[:, None], self._ack_offsets[action], action)
        self._block_ok = uniforms[:n].reshape(p.shape) < p
        self._uniforms = uniforms
        self._block_action, self._block_clocks, self._block_next = action, clocks, 0

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
        with np.errstate(over="ignore"):  # an infinite tick is dropped below
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
    def mean_throughput_mbps(self) -> float:
        """Payload bits delivered over elapsed simulated time, in Mbit/s."""
        return sum(self._window_bits) / self.clock / 1e6 if self.clock > 0 else 0.0
