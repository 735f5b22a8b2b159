"""Rate adapters: the DQN and tabular learners plus the Ideal, Minstrel-like
and constant-rate baselines.

Every adapter is one call, select_action(result), that maps the StepResult
the environment just returned (the reset result included) to the next
window's MCS. The Q-value agents explore only when given an epsilon
schedule; without one they are greedy. Learning happens outside the agents,
in the harness's per-transition hook.
"""

from __future__ import annotations

import numpy as np

from . import phy
from .dqn import EpsilonSchedule
from .env import LinkSimEnv, StepResult
from .nn import mlp_forward
from .phy import McsTable


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


class TabularDaraAgent(GreedyQAgent):
    """Same policy shape as DaraAgent; `model` is a binned QTable."""

    def q(self, observation: float) -> np.ndarray:
        return self.model.row(observation)


class IdealAgent:
    """SNR-threshold baseline reading the true SNR from the simulator
    side-channel: the highest MCS whose predicted frame success probability
    is at least p_min, else MCS 0. It is a reference rule, not an upper
    bound on throughput.

    The decision is a pure function of the raw SNR, so the agent keeps a
    table {raw SNR: MCS} for one run block of `env`. A raw SNR the table
    does not hold is decided together with every row of
    `env.block_raw_snr_db()` in one call, and that table replaces the last;
    each row is the same elementwise expression as a one-SNR call, so every
    action is the same whether the table holds its SNR or not."""

    def __init__(self, env: LinkSimEnv, p_min: float):
        self.env = env
        self.p_min = p_min
        self._decisions = {}

    def select_action(self, result: StepResult) -> int:
        action = self._decisions.get(result.raw_snr_db)
        if action is None:
            snrs = np.append(result.raw_snr_db, self.env.block_raw_snr_db())
            table = self.env.table
            p = phy.frame_success_prob(snrs[:, None], table.slopes_per_db,
                                       table.midpoints_db)
            actions = ((p >= self.p_min) * np.arange(phy.N_MCS)).max(axis=1).tolist()
            self._decisions = dict(zip(snrs.tolist(), actions))
            action = actions[0]
        return action


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
