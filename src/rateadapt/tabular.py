"""Tabular Q-learning over a binned observation space."""

from __future__ import annotations

import numpy as np

from .phy import N_MCS


class QTable:
    """Q(s, a) over n_state_bins equal-width bins of the [0, 1] observation."""

    def __init__(self, n_state_bins: int):
        self.n_state_bins = int(n_state_bins)
        self.values = np.zeros((self.n_state_bins, N_MCS))

    def bin_of(self, observation: float) -> int:
        if not np.isfinite(observation):
            raise ValueError(f"non-finite observation {observation}")
        b = int(observation * self.n_state_bins)
        return min(max(b, 0), self.n_state_bins - 1)

    def row(self, observation: float) -> np.ndarray:
        return self.values[self.bin_of(observation)]


def q_update_tabular(q: QTable, s: float, a: int, r: float, s_new: float,
                     alpha: float, gamma: float, done: bool) -> QTable:
    """Q(s,a) <- (1-alpha)*Q(s,a) + alpha*[r + gamma*max_a Q(s_new, a)].

    The max term is dropped on terminal transitions. Updates in place and
    returns the table.
    """
    if not 0 <= a < N_MCS:
        raise ValueError(f"action {a} outside [0, {N_MCS - 1}]")
    si = q.bin_of(s)
    future = 0.0 if done else gamma * float(np.max(q.row(s_new)))
    q.values[si, a] = (1.0 - alpha) * q.values[si, a] + alpha * (r + future)
    return q
