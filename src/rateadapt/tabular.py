"""Tabular Q-learning over a binned observation space."""

from __future__ import annotations

import numpy as np

from .phy import N_MCS


class QTable:
    """Q(s, a) over n_state_bins equal-width bins of the [0, 1] observation."""

    def __init__(self, n_state_bins: int):
        self.values = np.zeros((int(n_state_bins), N_MCS))

    @property
    def n_state_bins(self) -> int:
        return len(self.values)

    def bin_of(self, observation: float) -> int:
        return min(max(int(observation * self.n_state_bins), 0), self.n_state_bins - 1)

    def row(self, observation: float) -> np.ndarray:
        return self.values[self.bin_of(observation)]


def q_update_tabular(q: QTable, s: float, a: int, r: float, s_new: float,
                     alpha: float, gamma: float, done: bool) -> None:
    """Q(s,a) <- (1-alpha)*Q(s,a) + alpha*[r + gamma*max_a Q(s_new, a)],
    in place.

    The max term is dropped on terminal transitions.
    """
    si = q.bin_of(s)
    future = 0.0 if done else gamma * float(np.max(q.row(s_new)))
    q.values[si, a] = (1.0 - alpha) * q.values[si, a] + alpha * (r + future)
