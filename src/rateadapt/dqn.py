"""DQN Bellman targets, training step and the epsilon schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import AdamState, MlpParams, _forward, adam_step, mlp_backward


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


def bellman_targets(target_net: MlpParams, r, s_next, done, gamma: float):
    """y = r on terminal transitions and r + gamma * max Q_target(s_next)
    otherwise, for arrays of rows, from one forward of the target network."""
    q_next_max = np.maximum.reduce(_forward(target_net, s_next.reshape(-1, 1)), axis=1)
    return np.where(done, r, r + gamma * q_next_max)


def dqn_train_step(online: MlpParams, opt: AdamState, s, a, y, grads: MlpParams) -> float:
    """One Adam step on the mean per-transition loss 0.5 * (Q(s)[a] - y)^2
    over arrays of states, actions and targets (see `bellman_targets`).

    Updates `online` and `opt` in place, overwrites `grads` (laid out like
    `online`) with the gradient and returns the loss.
    """
    loss = mlp_backward(online, s, a, y, grads)
    adam_step(opt, online, grads)
    return loss
