import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rateadapt.agents import ThresholdTable
from rateadapt.env import StepResult
from rateadapt.tabular import QTable, greedy_steps, q_update_tabular
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


def bin_start(q: QTable, k: int) -> float:
    """The least float x with q.bin_of(x) >= k, stepped to from k / n."""
    x = k / q.n_state_bins
    while q.bin_of(x) < k:
        x = math.nextafter(x, 2.0)
    while q.bin_of(below := math.nextafter(x, -1.0)) >= k:
        x = below
    return x


class TestGreedySteps:
    """A greedy Q-table compiles to a table with no band that decides every
    observation as the row lookup and its argmax, ties to the lowest MCS."""

    @pytest.mark.parametrize("values", ["ties", "normal"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 32, 1000])
    def test_table_decides_as_the_row_argmax(self, n, values):
        rng = np.random.default_rng(n)
        q = QTable(n)
        q.values[:] = (rng.integers(0, 2, q.values.shape) if values == "ties"
                       else rng.normal(size=q.values.shape))
        table = ThresholdTable("observation", *greedy_steps(q))
        assert -1 not in table.actions
        starts = np.array([bin_start(q, k) for k in range(1, n)])
        xs = [0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), *rng.uniform(0.0, 1.0, 3000)]
        xs += [*np.nextafter(starts, -1.0), *starts, *np.nextafter(starts, 2.0)]
        decide = table.select_action
        assert [x for x in map(float, xs) if decide(StepResult(x, 0.0, False, 1.0, 0.0))
                != int(q.row(x).argmax())] == []

    def test_all_zero_table_is_mcs_0_with_no_edge(self):
        assert greedy_steps(QTable(32)) == ([], [0])


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
