"""Rate adapters: the DQN and tabular learners plus the Ideal, Minstrel-like
and constant-rate baselines.

Every adapter is one call, select_action(result), that maps the StepResult
the environment just returned (the reset result included) to the next
window's MCS. The greedy DQN also decides many results in one call,
select_actions(results), each exactly as select_action would: its
one-result decision is a forward, which one stacked forward amortizes. A
tabular row lookup, a bisect over Ideal's eight thresholds or a constant is
so cheap that deciding a run block at once saves nothing measurable, so
those play window by window. The Q-value agents explore only when given an
epsilon schedule; without one they are greedy. Learning happens outside the
agents, in the harness's per-transition hook.
"""

from __future__ import annotations

import bisect

import numpy as np

from . import phy
from .dqn import EpsilonSchedule
from .env import StepResult
from .nn import mlp_forward
# By its own name, so that phy.frame_success_prob counts the env's calls alone.
from .phy import McsTable, frame_success_prob


def _float(key):
    """The float64 of each uint64 key in float order: a non-negative float's
    bits with the top bit set, or a negative float's bits flipped."""
    return np.where(key >> 63, key ^ (1 << 63), ~key).view(np.float64)


class GreedyQAgent:
    """Greedy over the Q-values that a subclass's `q(observation)` reads from
    `model` (ties break to the lowest index), or epsilon-greedy when given an
    epsilon schedule (read at `train_step`) and the RNG it draws from; the
    state is the scaled mean ACK SNR. The coin is drawn first, so an explore
    window computes no Q-values."""

    def __init__(self, model, schedule: EpsilonSchedule | None = None,
                 rng: np.random.Generator | None = None):
        self.model = model
        self.schedule = schedule
        self.rng = rng
        self.train_step = 0

    def select_action(self, result: StepResult) -> int:
        if self.schedule is not None:
            epsilon = self.schedule.value(self.train_step)
            if epsilon > 0.0 and self.rng.random() < epsilon:
                return int(self.rng.integers(0, phy.N_MCS))
        return int(self.q(result.observation).argmax())


class DaraAgent(GreedyQAgent):
    """DQN-based adapter; `model` is the MlpParams Q-network."""

    def q(self, observation: float) -> np.ndarray:
        return mlp_forward(self.model, observation)

    def select_actions(self, results) -> list:
        """The greedy action after each result, from one stacked forward
        whose rows equal their one-observation `q`, so each action is a
        greedy select_action's. The epsilon schedule is not read: an agent
        that explores decides one window at a time."""
        observations = np.array([r.observation for r in results])
        return mlp_forward(self.model, observations[:, None]).argmax(axis=1).tolist()


class TabularDaraAgent(GreedyQAgent):
    """Same policy shape as DaraAgent; `model` is a binned QTable."""

    def q(self, observation: float) -> np.ndarray:
        return self.model.row(observation)


class IdealAgent:
    """SNR-threshold baseline reading the true SNR from the simulator
    side-channel: the highest MCS whose predicted frame success probability
    is at least p_min, else MCS 0. It is a reference rule, not an upper
    bound on throughput.

    As numpy's exp is monotone, each MCS's probability never falls as the
    SNR rises, so the rule is a step function of the raw SNR. `thresholds[a]`
    is the least float64 SNR at which MCS a or a higher one has p >= p_min
    (+inf where only +inf does), and a raw SNR is decided by one bisect."""

    def __init__(self, table: McsTable, p_min: float):
        # Bisect each MCS over the keys of (-inf, +inf], where p(-inf) = 0 is
        # below p_min and p(+inf) = 1 is not, then take the suffix minimum.
        lo = np.full(phy.N_MCS, 0x000F_FFFF_FFFF_FFFF, dtype=np.uint64)  # -inf
        hi = np.full(phy.N_MCS, 0xFFF0_0000_0000_0000, dtype=np.uint64)  # +inf
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            ok = frame_success_prob(_float(mid), table.slopes_per_db, table.midpoints_db) >= p_min
            lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
        self.thresholds = np.minimum.accumulate(_float(hi)[::-1])[::-1].tolist()

    def select_action(self, result: StepResult) -> int:
        return max(bisect.bisect_right(self.thresholds, result.raw_snr_db) - 1, 0)


class MinstrelLikeAgent:
    """Deliberately simplified Minstrel-HT stand-in: an optimistically
    initialized EWMA of each MCS's success ratio plus uniform probing, no
    retry chains or sample tables."""

    def __init__(self, table: McsTable, rng: np.random.Generator,
                 ewma_weight: float, probe_prob: float):
        self.table = table
        self.rng = rng
        self.ewma_weight = ewma_weight
        self.probe_prob = probe_prob
        self.ewma = np.ones(phy.N_MCS)
        self._last_action = None

    def select_action(self, result: StepResult) -> int:
        """Fold the window's FSR into the last action's EWMA, then probe a
        uniformly random MCS with probe_prob, else pick the MCS maximizing
        rate * EWMA success probability."""
        last = self._last_action
        if last is not None:
            w = self.ewma_weight
            self.ewma[last] = (1.0 - w) * self.ewma[last] + w * result.fsr
        if self.probe_prob > 0.0 and self.rng.random() < self.probe_prob:
            self._last_action = int(self.rng.integers(0, phy.N_MCS))
        else:
            self._last_action = int((self.table.rates_mbps * self.ewma).argmax())
        return self._last_action


class ConstantAgent:
    """Control baseline: always the same MCS."""

    def __init__(self, fixed_mcs: int):
        self.fixed_mcs = int(fixed_mcs)

    def select_action(self, result: StepResult) -> int:
        return self.fixed_mcs
