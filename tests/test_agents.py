import numpy as np
import pytest

from rateadapt import phy
from rateadapt.agents import (ConstantAgent, DaraAgent, IdealAgent,
                              MinstrelLikeAgent, TabularDaraAgent)
from rateadapt.config import default_config
from rateadapt.dqn import EpsilonSchedule
from rateadapt.env import StepResult
from rateadapt.nn import MlpParams
from rateadapt.tabular import QTable
from tests.test_nn import random_net

TABLE = default_config().mcs_table()


def step_with(observation=0.5, fsr=1.0, raw_snr_db=30.0):
    return StepResult(observation, 0.0, False, fsr, raw_snr_db)


def success_probs(snr):
    """Frame success probability of each MCS at `snr`, one call per MCS."""
    return [phy.frame_success_prob(snr, s, m)
            for s, m in zip(TABLE.slopes_per_db, TABLE.midpoints_db)]


def biased_net(favored: int) -> MlpParams:
    params = MlpParams([np.zeros((1, 8))], [np.zeros(8)])
    params.biases[0][favored] = 1.0
    return params


def ideal(snr, p_min=0.9):
    return IdealAgent(TABLE, p_min).select_action(step_with(raw_snr_db=float(snr)))


def minstrel(ewma_weight=0.25, probe_prob=0.0, ewma=None, seed=0):
    agent = MinstrelLikeAgent(TABLE, np.random.default_rng(seed),
                              ewma_weight=ewma_weight, probe_prob=probe_prob)
    if ewma is not None:
        agent.ewma = np.array(ewma, dtype=float)
    return agent


class TestDaraSelect:
    def test_evaluation_is_argmax(self):
        assert DaraAgent(biased_net(5)).select_action(step_with(0.3)) == 5

    def test_evaluation_pure_function_of_observation(self):
        agent = DaraAgent(biased_net(2))
        actions = {agent.select_action(step_with(0.3)) for _ in range(20)}
        assert actions == {2}

    def test_training_epsilon_one_uniform(self):
        schedule = EpsilonSchedule("fixed", 1.0, 1.0, 1)
        agent = DaraAgent(biased_net(5), schedule, np.random.default_rng(3))
        result = step_with(0.3)
        draws = np.array([agent.select_action(result) for _ in range(80_000)])
        freqs = np.bincount(draws, minlength=8) / len(draws)
        assert np.all(np.abs(freqs - 0.125) < 0.01)


class CountingDaraAgent(DaraAgent):
    """DaraAgent that records each observation it computes Q-values for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def q(self, observation):
        self.asked.append(observation)
        return super().q(observation)


class TestLazyQ:
    @pytest.mark.parametrize("epsilon,min_exploit,max_exploit",
                             [(0.0, 2000, 2000), (0.1, 1700, 1900), (1.0, 0, 0)])
    def test_q_only_on_exploit_windows_in_the_same_draw_order(
            self, epsilon, min_exploit, max_exploit):
        params = random_net([16, 16, 16], np.random.default_rng(8))
        observations = np.random.default_rng(9).uniform(0.0, 1.0, 2000).tolist()
        schedule = EpsilonSchedule("fixed", epsilon, epsilon, 1)
        agent = CountingDaraAgent(params, schedule, np.random.default_rng(10))
        actions = [agent.select_action(step_with(x)) for x in observations]

        # The order before Q became lazy: Q-values first, then the coin.
        rng = np.random.default_rng(10)
        want, exploited = [], []
        for x in observations:
            q = DaraAgent(params).q(x)
            if epsilon > 0.0 and rng.random() < epsilon:
                want.append(int(rng.integers(0, phy.N_MCS)))
            else:
                want.append(int(q.argmax()))
                exploited.append(x)
        assert actions == want
        assert agent.rng.bit_generator.state == rng.bit_generator.state
        assert agent.asked == exploited
        assert min_exploit <= len(exploited) <= max_exploit


class TestIdealSelect:
    def test_all_feasible_picks_highest(self):
        assert ideal(100.0) == 7

    def test_none_feasible_falls_back_to_zero(self):
        assert ideal(-50.0) == 0

    def test_snr_15_oracle(self):
        # brute force over all 8 MCS: qualifying set is every index whose
        # logistic success probability at 15 dB is >= 0.9
        qualifying = [i for i, p in enumerate(success_probs(15.0)) if p >= 0.9]
        # midpoints [5,8,11,14,...], slope 1: p >= 0.9 iff snr >= mid + ln 9,
        # so midpoints up to 15 - 2.197 = 12.80 qualify -> indices 0..2
        assert qualifying == [0, 1, 2]
        assert ideal(15.0) == max(qualifying)

    def test_matches_brute_force_on_grid(self):
        for snr in np.linspace(-10, 50, 121):
            qualifying = [i for i, p in enumerate(success_probs(snr)) if p >= 0.9]
            expected = max(qualifying) if qualifying else 0
            assert ideal(snr) == expected

    def test_monotone_in_snr(self):
        picks = [ideal(s) for s in np.linspace(-20, 60, 400)]
        assert all(b >= a for a, b in zip(picks, picks[1:]))

    def test_selected_rate_meets_threshold_unless_fallback(self):
        for snr in np.linspace(-20, 60, 200):
            a = ideal(snr)
            if a != 0:
                assert success_probs(snr)[a] >= 0.9

    def test_reads_only_the_raw_snr(self):
        agent = IdealAgent(TABLE, 0.9)
        assert agent.select_action(StepResult(0.0, 0.0, False, 0.0, 100.0)) == 7
        assert agent.select_action(StepResult(1.0, 1.0, True, 1.0, -50.0)) == 0


class TestMinstrelLike:
    def test_all_optimistic_picks_top_rate(self):
        assert minstrel().select_action(step_with()) == 7

    def test_only_viable_rate_wins(self):
        agent = minstrel(ewma=[1.0, 0, 0, 0, 0, 0, 0, 0])
        assert agent.select_action(step_with()) == 0

    def test_expected_throughput_argmax(self):
        # EWMA_7 * 65 = 19.5 < EWMA_3 * 26 = 23.4
        agent = minstrel(ewma=[0.0, 0, 0, 0.9, 0, 0, 0, 0.3])
        assert agent.select_action(step_with()) == 3

    def test_first_call_updates_nothing(self):
        agent = minstrel(ewma_weight=1.0)
        agent.select_action(step_with(fsr=0.0))
        assert np.all(agent.ewma == 1.0)

    def test_update_full_replacement(self):
        agent = minstrel(ewma_weight=1.0, ewma=[0, 0, 0, 0, 1.0, 0, 0, 0])
        assert agent.select_action(step_with()) == 4
        agent.select_action(step_with(fsr=0.37))
        assert agent.ewma[4] == pytest.approx(0.37)

    def test_update_frozen(self):
        agent = minstrel(ewma_weight=0.0, ewma=[0, 0, 0, 0, 1.0, 0, 0, 0])
        assert agent.select_action(step_with()) == 4
        agent.select_action(step_with(fsr=0.0))
        assert agent.ewma[4] == 1.0

    def test_update_one_step(self):
        agent = minstrel(ewma_weight=0.25, ewma=[0, 0, 0.5, 0, 0, 0, 0, 0])
        assert agent.select_action(step_with()) == 2
        agent.select_action(step_with(fsr=1.0))
        assert agent.ewma[2] == pytest.approx(0.625)

    def test_ewma_stays_in_unit_interval(self):
        # probe_prob 1 makes every window a uniformly random MCS.
        agent = minstrel(ewma_weight=0.3, probe_prob=1.0, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(500):
            agent.select_action(step_with(fsr=float(rng.uniform(0, 1))))
        assert np.all((agent.ewma >= 0) & (agent.ewma <= 1))

    def test_agent_updates_only_its_last_action(self):
        agent = minstrel()
        first = agent.select_action(step_with())
        assert first == 7
        agent.select_action(step_with(fsr=0.0))
        assert agent.ewma[7] == pytest.approx(0.75)
        assert np.all(agent.ewma[:7] == 1.0)


class TestConstant:
    @pytest.mark.parametrize("mcs", [0, 7])
    def test_always_fixed(self, mcs):
        agent = ConstantAgent(mcs)
        assert all(agent.select_action(step_with()) == mcs for _ in range(10))


class TestAllAdaptersInRange:
    def test_fuzzed_actions_in_range(self):
        rng = np.random.default_rng(77)
        schedule = EpsilonSchedule("fixed", 0.5, 0.5, 1)
        qt = QTable(8)
        qt.values[:] = rng.normal(size=qt.values.shape)
        adapters = [
            DaraAgent(biased_net(3), schedule, np.random.default_rng(1)),
            TabularDaraAgent(qt, schedule, np.random.default_rng(2)),
            IdealAgent(TABLE, 0.9),
            MinstrelLikeAgent(TABLE, np.random.default_rng(3), 0.25, 0.1),
            ConstantAgent(4),
        ]
        for _ in range(300):
            obs = float(rng.uniform(0, 1))
            snr = float(rng.uniform(-30, 70))
            fsr = float(rng.uniform(0, 1))
            result = step_with(obs, fsr=fsr, raw_snr_db=snr)
            for adapter in adapters:
                assert 0 <= adapter.select_action(result) <= 7


class TestTabularAgent:
    def test_evaluation_argmax_of_bin_row(self):
        qt = QTable(4)
        qt.values[2, 6] = 1.0  # observations in [0.5, 0.75)
        agent = TabularDaraAgent(qt)
        assert agent.select_action(step_with(0.6)) == 6
        assert agent.select_action(step_with(0.1)) == 0
