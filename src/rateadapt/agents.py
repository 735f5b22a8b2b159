"""Rate adapters: the DQN and tabular learners plus the Ideal, Minstrel-like
and constant-rate baselines.

Every adapter follows the same two-call protocol: observe(step_result) with
the latest environment feedback, then select_action() for the next window's
MCS. The Q-value agents explore only when given an epsilon schedule;
without one they are greedy. Learning happens outside the agents, in the
harness's per-transition hook.
"""

from __future__ import annotations

import numpy as np

from . import phy
from .dqn import EpsilonSchedule, epsilon_greedy
from .env import StepResult
from .nn import mlp_forward
from .phy import McsTable

ALGORITHMS = ("dara", "dara_tabular", "ideal", "minstrel_like", "constant")


def ideal_select(snr_db: float, table: McsTable, p_min: float) -> int:
    """Highest MCS whose predicted frame success probability meets p_min;
    falls back to MCS 0 when none qualifies."""
    p = phy.frame_success_prob(snr_db, table.slopes_per_db, table.midpoints_db)
    feasible = np.flatnonzero(p >= p_min)
    return int(feasible[-1]) if feasible.size else 0


class GreedyQAgent:
    """Greedy over the Q-values that `q(observation)` reads from `model`, or
    epsilon-greedy when given an epsilon schedule (read at `train_step`) and
    the RNG it draws from; the state is the scaled mean ACK SNR."""

    def __init__(self, model, schedule: EpsilonSchedule | None = None,
                 rng: np.random.Generator | None = None):
        if schedule is not None and rng is None:
            raise ValueError("an epsilon schedule needs an RNG")
        self.model = model
        self.schedule = schedule
        self.rng = rng
        self.train_step = 0
        self._obs = 0.0

    def q(self, observation: float) -> np.ndarray:
        raise NotImplementedError

    def observe(self, result: StepResult):
        self._obs = result.observation

    def select_action(self) -> int:
        epsilon = 0.0 if self.schedule is None else self.schedule.value(self.train_step)
        return epsilon_greedy(self.q(self._obs), epsilon, self.rng)


class DaraAgent(GreedyQAgent):
    """DQN-based adapter; `model` is the MlpParams Q-network."""

    def q(self, observation: float) -> np.ndarray:
        return mlp_forward(self.model, observation)


class TabularDaraAgent(GreedyQAgent):
    """Same policy shape as DaraAgent; `model` is a binned QTable."""

    def q(self, observation: float) -> np.ndarray:
        return self.model.row(observation)


class IdealAgent:
    """Oracle baseline reading the true SNR from the simulator side-channel."""

    def __init__(self, table: McsTable, p_min: float):
        self.table = table
        self.p_min = p_min
        self._snr = -np.inf

    def observe(self, result: StepResult):
        self._snr = result.raw_snr_db

    def select_action(self) -> int:
        return ideal_select(self._snr, self.table, self.p_min)


class MinstrelLikeState:
    """EWMA success statistics per MCS, optimistically initialized."""

    def __init__(self, ewma_weight: float, probe_prob: float):
        self.ewma = np.ones(phy.N_MCS)
        self.ewma_weight = ewma_weight
        self.probe_prob = probe_prob


def minstrel_like_select(state: MinstrelLikeState, table: McsTable,
                         rng: np.random.Generator) -> int:
    """Probe a uniformly random MCS with probe_prob, else pick the MCS
    maximizing rate * EWMA success probability."""
    if state.probe_prob > 0.0 and rng.random() < state.probe_prob:
        return int(rng.integers(0, phy.N_MCS))
    expected = table.rates_mbps * state.ewma
    return int(np.argmax(expected))


def minstrel_like_update(state: MinstrelLikeState, mcs: int,
                         fsr: float) -> MinstrelLikeState:
    """Fold one window's FSR into the chosen MCS's EWMA."""
    w = state.ewma_weight
    state.ewma[mcs] = (1.0 - w) * state.ewma[mcs] + w * fsr
    return state


class MinstrelLikeAgent:
    """Deliberately simplified Minstrel-HT stand-in: EWMA plus uniform
    probing, no retry chains or sample tables."""

    def __init__(self, table: McsTable, rng: np.random.Generator,
                 ewma_weight: float, probe_prob: float):
        self.table = table
        self.rng = rng
        self.state = MinstrelLikeState(ewma_weight, probe_prob)
        self._last_action = None

    def observe(self, result: StepResult):
        if self._last_action is not None:
            minstrel_like_update(self.state, self._last_action, result.fsr)

    def select_action(self) -> int:
        self._last_action = minstrel_like_select(self.state, self.table, self.rng)
        return self._last_action


class ConstantAgent:
    """Control baseline: always the same MCS."""

    def __init__(self, fixed_mcs: int):
        self.fixed_mcs = int(fixed_mcs)

    def observe(self, result: StepResult):
        pass

    def select_action(self) -> int:
        return self.fixed_mcs
