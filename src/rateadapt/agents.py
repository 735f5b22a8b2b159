"""Rate adapters: the DQN and tabular learners plus the Ideal, Minstrel-like
and constant-rate baselines.

Every adapter is one call, select_action(result), that maps the StepResult
the environment just returned (the reset result included) to the next
window's MCS. A ThresholdTable is a frozen policy that is a step function
of one result field, decided by one bisect: Ideal is one over the raw SNR,
`constant` one with no edges, and a frozen greedy DQN or Q-table compiles
into one over the observation (`nn.greedy_steps`, `tabular.greedy_steps`).
The Q-value agents are the epsilon-greedy learners; learning happens
outside them, in the harness's per-transition hook.
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
from .tabular import least_float


class GreedyQAgent:
    """Epsilon-greedy over the Q-values a subclass's `q(observation)` reads from
    `model` (ties to the lowest index), epsilon read from `schedule` at
    `train_step`; the coin is drawn from `rng` first, so an explore window
    computes no Q-values. The state is the scaled mean ACK SNR."""

    def __init__(self, model, schedule: EpsilonSchedule, rng: np.random.Generator):
        self.model = model
        self.schedule = schedule
        self.rng = rng
        self.train_step = 0

    def select_action(self, result: StepResult) -> int:
        epsilon = self.schedule.value(self.train_step)
        if epsilon > 0.0 and self.rng.random() < epsilon:
            return int(self.rng.integers(0, phy.N_MCS))
        return int(self.q(result.observation).argmax())


class DaraAgent(GreedyQAgent):
    """DQN-based adapter; `model` is the MlpParams Q-network."""

    def q(self, observation: float) -> np.ndarray:
        return mlp_forward(self.model, observation)


class TabularDaraAgent(GreedyQAgent):
    """Same policy shape as DaraAgent; `model` is a binned QTable."""

    def q(self, observation: float) -> np.ndarray:
        return self.model.row(observation)


class ThresholdTable:
    """A frozen policy that is a step function of the StepResult field `key`:
    actions[i] decides the values in [edges[i - 1], edges[i]), by one
    bisect_right; an action of -1 marks a band, decided by the greedy
    single forward of the Q-network `params` at the observation."""

    def __init__(self, key: str, edges, actions, params=None):
        self._field = StepResult._fields.index(key)
        self.edges, self.actions, self.params = list(edges), list(actions), params

    def select_action(self, result: StepResult) -> int:
        action = self.actions[bisect.bisect_right(self.edges, result[self._field])]
        if action < 0:
            return int(mlp_forward(self.params, result.observation).argmax())
        return action


class IdealAgent(ThresholdTable):
    """SNR-threshold baseline reading the true SNR from the simulator
    side-channel: the highest MCS whose predicted frame success probability
    is at least p_min, else MCS 0. It is a reference rule, not an upper
    bound on throughput.

    As numpy's exp is monotone, each MCS's probability never falls as the
    SNR rises, so the rule is a step function of the raw SNR. `thresholds[a]`
    is the least float64 SNR at which MCS a or a higher one has p >= p_min
    (+inf where only +inf does), so the edges are thresholds[1:]."""

    def __init__(self, table: McsTable, p_min: float):
        # Bisect each MCS over (-inf, +inf], where p(-inf) = 0 is below
        # p_min and p(+inf) = 1 is not, then take the suffix minimum.
        least = least_float(lambda snr: frame_success_prob(
            snr, table.slopes_per_db, table.midpoints_db) >= p_min, phy.N_MCS)
        self.thresholds = np.minimum.accumulate(least[::-1])[::-1].tolist()
        super().__init__("raw_snr_db", self.thresholds[1:], range(phy.N_MCS))


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


class ConstantAgent(ThresholdTable):
    """Control baseline: always the same MCS, a table with no edges."""

    def __init__(self, mcs: int):
        super().__init__("observation", [], [int(mcs)])
