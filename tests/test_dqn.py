import numpy as np
import pytest

from rateadapt.agents import GreedyQAgent
from rateadapt.dqn import EpsilonSchedule, bellman_targets, dqn_train_step
from rateadapt.env import StepResult
from rateadapt.nn import AdamState, mlp_forward
from tests.reference import grad_buffer, random_net, reference_forward


def batch_of(rows):
    """(s, a, r, s_next, done) column arrays of per-transition tuples."""
    return tuple(np.array(c, dtype=t)
                 for c, t in zip(zip(*rows), (float, int, float, float, bool)))


def train_on(online, target, opt, batch, gamma):
    """dqn_train_step on the batch with bellman_targets' y; returns the loss."""
    s, a, r, s_next, done = batch
    y = bellman_targets(target, r, s_next, done, gamma)
    return dqn_train_step(online, opt, s, a, y, grad_buffer(online))


class TestBellmanTarget:
    """The targets bellman_targets gives, read back through the loss
    0.5 * mean((Q(s)[a] - y)^2) of a dqn_train_step on them against
    hand-computed y."""

    def loss_and_q(self, rows, gamma):
        online = random_net([8, 5], np.random.default_rng(21))
        target = random_net([8, 5], np.random.default_rng(22))
        batch = batch_of(rows)
        q = np.array([mlp_forward(online, s)[a] for s, a, *_ in rows])
        q_next_max = np.array([mlp_forward(target, s_next).max() for *_, s_next, _ in rows])
        opt = AdamState.for_params(online, 0.01)
        loss = train_on(online, target, opt, batch, gamma)
        return loss, q, q_next_max

    def test_terminal(self):
        loss, q, _ = self.loss_and_q([(0.4, 3, 0.8, 0.6, True)], gamma=0.9)
        assert loss == pytest.approx(0.5 * (q[0] - 0.8) ** 2, rel=1e-12)

    def test_nonterminal(self):
        rows = [(0.4, 3, 0.5, 0.6, False), (0.1, 0, 0.2, 0.9, True),
                (0.7, 6, 0.9, 0.3, False)]
        loss, q, q_next_max = self.loss_and_q(rows, gamma=0.5)
        y = [0.5 + 0.5 * q_next_max[0], 0.2, 0.9 + 0.5 * q_next_max[2]]
        expected = np.mean([0.5 * (q[i] - y[i]) ** 2 for i in range(3)])
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_zero_discount(self):
        loss, q, q_next_max = self.loss_and_q([(0.4, 3, 0.3, 0.6, False)], gamma=0.0)
        assert q_next_max[0] != 0.0
        assert loss == pytest.approx(0.5 * (q[0] - 0.3) ** 2, rel=1e-12)


class FixedQAgent(GreedyQAgent):
    """A GreedyQAgent whose Q-values are `model`, whatever the observation."""

    def q(self, observation: float) -> np.ndarray:
        return np.asarray(self.model)


def fixed_q_agent(q, epsilon, rng):
    return FixedQAgent(q, EpsilonSchedule("fixed", epsilon, epsilon, 1), rng)


RESULT = StepResult(0.5, 0.0, False, 1.0, 30.0)


class TestEpsilonGreedy:
    def test_pure_exploitation(self):
        q = [0.0, 0.2, 0.9, 0.1, 0.0, 0.0, 0.0, 0.0]
        agent = fixed_q_agent(q, 0.0, np.random.default_rng(0))
        assert all(agent.select_action(RESULT) == 2 for _ in range(50))

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(0)
        for q, want in (([0.0] * 8, 0),
                        ([1.0, 1.0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0], 0),
                        ([0.0, 3.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0], 1)):
            assert fixed_q_agent(q, 0.0, rng).select_action(RESULT) == want


class TestEpsilonSchedule:
    def test_fixed(self):
        s = EpsilonSchedule("fixed", 0.1, 0.1, 100)
        assert s.value(0) == s.value(10**6) == 0.1

    def test_linear_decay(self):
        s = EpsilonSchedule("linear", 1.0, 0.0, 100)
        assert s.value(0) == 1.0
        assert s.value(50) == pytest.approx(0.5)
        assert s.value(100) == 0.0
        assert s.value(10_000) == 0.0


class TestDqnTrainStep:
    def test_converged_batch_is_noop(self):
        rng = np.random.default_rng(11)
        online = random_net([6, 6], rng)
        target = online.copy()
        opt = AdamState.for_params(online, 0.01)
        gamma = 0.5
        # terminal transitions with r equal to the prediction make the
        # bellman target hit Q(s)[a] exactly; predictions are taken from the
        # layer loop, which gives the train step's batched forward bit for
        # bit, so the residual is a true float zero, not just close
        states = [0.2, 0.2, 0.2, 0.7, 0.7, 0.7]
        actions = [0, 1, 2, 0, 1, 2]
        q_batch = reference_forward(online.weights, online.biases, states)
        batch = batch_of([
            (s, a, float(q_batch[i, a]), 0.5, True)
            for i, (s, a) in enumerate(zip(states, actions))
        ])
        before = online.copy()
        loss = train_on(online, target, opt, batch, gamma)
        assert loss == pytest.approx(0.0, abs=1e-24)
        for a, b in zip(before.weights, online.weights):
            assert np.array_equal(a, b)

    def test_loss_finite_nonnegative_random_batches(self):
        rng = np.random.default_rng(14)
        online = random_net([6], rng)
        target = random_net([6], np.random.default_rng(15))
        opt = AdamState.for_params(online, 0.001)
        for _ in range(5):
            batch = (rng.uniform(0, 1, 16), rng.integers(0, 8, 16),
                     rng.uniform(0, 1, 16), rng.uniform(0, 1, 16),
                     rng.integers(0, 2, 16).astype(bool))
            loss = train_on(online, target, opt, batch, 0.5)
            assert np.isfinite(loss) and loss >= 0
