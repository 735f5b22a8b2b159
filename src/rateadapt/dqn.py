"""DQN training step, epsilon-greedy policy and the epsilon schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import AdamState, MlpParams, adam_step, mlp_backward, mlp_forward
from .phy import N_MCS


@dataclass(frozen=True)
class EpsilonSchedule:
    """Exploration rate as a function of the train-step counter."""

    mode: str  # "fixed" | "linear"
    start: float
    end: float
    decay_steps: int

    def value(self, train_step: int) -> float:
        if self.mode == "fixed":
            return self.start
        frac = min(max(train_step / self.decay_steps, 0.0), 1.0)
        return self.start + (self.end - self.start) * frac


def epsilon_greedy(q_values, epsilon: float, rng: np.random.Generator) -> int:
    """Argmax with probability 1-epsilon (ties break to the lowest index),
    otherwise a uniformly random action."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(0, N_MCS))
    return int(np.argmax(q_values))


def dqn_train_step(online: MlpParams, target_net: MlpParams, opt: AdamState,
                   batch, gamma: float) -> float:
    """One Adam step on the mean per-transition loss 0.5 * (Q(s)[a] - y)^2
    over a (s, a, r, s_next, done) batch of arrays, where y is r on terminal
    transitions and r + gamma * max Q_target(s_next) otherwise.

    Updates `online` and `opt` in place and returns the loss.
    """
    s, a, r, s_next, done = batch
    targets = np.where(done, r, r + gamma * mlp_forward(target_net, s_next).max(axis=1))
    grads, loss = mlp_backward(online, s, a, targets)
    adam_step(opt, online, grads)
    return loss
