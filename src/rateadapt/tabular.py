"""Tabular Q-learning over a binned observation space, and its greedy compile."""

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


def _float(key):
    """The float64 of each uint64 key in float order: a non-negative float's
    bits with the top bit set, or a negative float's bits flipped."""
    return np.where(key >> 63, key ^ (1 << 63), ~key).view(np.float64)


def least_float(ok, n: int) -> np.ndarray:
    """The least float64 in (-inf, +inf] at which each of n monotone predicates
    ok(x)[i] holds, bisected over float keys; each is false at -inf, true at +inf."""
    lo = np.full(n, 0x000F_FFFF_FFFF_FFFF, dtype=np.uint64)  # -inf
    hi = np.full(n, 0xFFF0_0000_0000_0000, dtype=np.uint64)  # +inf
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        good = ok(_float(mid))
        lo, hi = np.where(good, lo, mid), np.where(good, mid, hi)
    return _float(hi)


def greedy_steps(table: QTable):
    """argmax(table.row(x)) as `nn.greedy_steps`'s (edges, actions), no band: bin k
    starts at the least x with x * n_state_bins >= k, where bin_of's int() reaches k."""
    best = table.values.argmax(1)
    starts = np.flatnonzero(best[1:] != best[:-1]) + 1
    edges = least_float(lambda x: x * table.n_state_bins >= starts, len(starts))
    return edges.tolist(), best[np.r_[0, starts]].tolist()


def q_update_tabular(q: QTable, s: float, a: int, r: float, s_new: float,
                     alpha: float, gamma: float, done: bool) -> None:
    """Q(s,a) <- (1-alpha)*Q(s,a) + alpha*[r + gamma*max_a Q(s_new, a)],
    in place.

    The max term is dropped on terminal transitions.
    """
    si = q.bin_of(s)
    future = 0.0 if done else gamma * float(np.max(q.row(s_new)))
    q.values[si, a] = (1.0 - alpha) * q.values[si, a] + alpha * (r + future)
