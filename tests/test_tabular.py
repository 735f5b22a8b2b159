import numpy as np
import pytest
from hypothesis import given, strategies as st

from rateadapt.tabular import QTable, q_update_tabular
from tests.reference import MDP_GAMMA, MDP_NEXT, MDP_REWARDS, run_tabular_convergence, value_iteration


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
