import numpy as np
import pytest
from hypothesis import given, strategies as st

from rateadapt.tabular import QTable, q_update_tabular


class TestQUpdate:
    def make_table(self, s_val, s_new_max):
        q = QTable(2)
        q.values[q.bin_of(0.1), 0] = s_val
        q.values[q.bin_of(0.9), :] = s_new_max
        return q

    def test_hand_evaluated_update(self):
        q = self.make_table(0.2, 0.6)
        q_update_tabular(q, 0.1, 0, r=0.5, s_new=0.9, alpha=0.1, gamma=0.5,
                         done=False)
        assert q.values[q.bin_of(0.1), 0] == pytest.approx(0.26)

    def test_alpha_zero_no_change(self):
        q = self.make_table(0.2, 0.6)
        before = q.values.copy()
        q_update_tabular(q, 0.1, 0, r=5.0, s_new=0.9, alpha=0.0, gamma=0.9,
                         done=False)
        assert np.array_equal(q.values, before)

    def test_alpha_one_full_replacement(self):
        q = self.make_table(0.2, 0.6)
        q_update_tabular(q, 0.1, 0, r=0.5, s_new=0.9, alpha=1.0, gamma=0.5,
                         done=False)
        assert q.values[q.bin_of(0.1), 0] == pytest.approx(0.5 + 0.5 * 0.6)

    def test_done_drops_future_term(self):
        q = self.make_table(0.0, 100.0)
        q_update_tabular(q, 0.1, 0, r=0.5, s_new=0.9, alpha=1.0, gamma=0.9,
                         done=True)
        assert q.values[q.bin_of(0.1), 0] == 0.5

    def test_other_entries_unchanged(self):
        q = self.make_table(0.2, 0.6)
        before = q.values.copy()
        q_update_tabular(q, 0.1, 0, 0.5, 0.9, 0.1, 0.5, False)
        changed = before != q.values
        assert changed.sum() == 1

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_fixpoint(self, alpha):
        # if r + gamma*max Q(s_new) == Q(s,a), the update is a no-op
        q = QTable(2)
        gamma = 0.5
        q.values[q.bin_of(0.9), :] = 0.4
        r = 0.3
        q.values[q.bin_of(0.1), 0] = r + gamma * 0.4
        before = q.values.copy()
        q_update_tabular(q, 0.1, 0, r, 0.9, alpha, gamma, False)
        assert np.allclose(q.values, before, atol=1e-12)


def value_iteration(rewards, transitions, gamma, iters=10_000, tol=1e-12):
    """Independent Q* oracle for a deterministic finite MDP.

    rewards[s][a] and transitions[s][a] give the reward and next state for
    action a in state s.
    """
    n_s = len(rewards)
    n_a = len(rewards[0])
    q = np.zeros((n_s, n_a))
    for _ in range(iters):
        new = np.array([
            [rewards[s][a] + gamma * np.max(q[transitions[s][a]])
             for a in range(n_a)]
            for s in range(n_s)
        ])
        if np.max(np.abs(new - q)) < tol:
            return new
        q = new
    return q


# 2-state, 2-action deterministic MDP used by the convergence oracle.
MDP_REWARDS = [[1.0, 0.0], [0.0, 2.0]]
MDP_NEXT = [[0, 1], [0, 1]]
MDP_GAMMA = 0.5


def run_tabular_convergence(max_updates=10_000, alpha=0.5):
    """Sweep q_update_tabular over all (s, a) pairs until close to Q*.

    States 0 and 1 are mapped onto observations 0.1 and 0.9 in a 2-bin
    table. Returns (updates used, max abs error vs value iteration).
    """
    q_star = value_iteration(MDP_REWARDS, MDP_NEXT, MDP_GAMMA)
    obs = [0.1, 0.9]
    q = QTable(2)
    bins = [q.bin_of(o) for o in obs]
    assert bins == [0, 1]
    updates = 0
    while updates < max_updates:
        for s in (0, 1):
            for a in (0, 1):
                q_update_tabular(q, obs[s], a, MDP_REWARDS[s][a],
                                 obs[MDP_NEXT[s][a]], alpha, MDP_GAMMA, False)
                updates += 1
        err = np.max(np.abs(q.values[:, :2] - q_star))
        if err < 1e-3:
            return updates, err
    return updates, np.max(np.abs(q.values[:, :2] - q_star))


class TestConvergenceOracle:
    def test_value_iteration_closed_form(self):
        # Q*(1,1) = 2/(1-gamma) = 4; Q*(0,0) = 1 + gamma*Q*(0,·)max ...
        q_star = value_iteration(MDP_REWARDS, MDP_NEXT, MDP_GAMMA)
        assert q_star[1, 1] == pytest.approx(4.0, abs=1e-9)
        assert q_star[0, 1] == pytest.approx(0.0 + 0.5 * 4.0, abs=1e-9)
        assert q_star[0, 0] == pytest.approx(1.0 + 0.5 * q_star[0].max(), abs=1e-6)

    def test_repeated_updates_converge_to_q_star(self):
        updates, err = run_tabular_convergence()
        assert err < 1e-3
        assert updates <= 10_000
