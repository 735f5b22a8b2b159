
import numpy as np
import pytest

from rateadapt import phy
from rateadapt.agents import (ConstantAgent, DaraAgent, IdealAgent,
                              MinstrelLikeAgent, MinstrelLikeState,
                              TabularDaraAgent, ideal_select,
                              minstrel_like_select, minstrel_like_update)
from rateadapt.config import default_config
from rateadapt.dqn import EpsilonSchedule
from rateadapt.env import StepResult
from rateadapt.nn import MlpParams
from rateadapt.tabular import QTable

TABLE = default_config().mcs_table()


def step_with(observation=0.5, fsr=1.0, raw_snr_db=30.0):
    return StepResult(observation, 0.0, False, fsr, raw_snr_db)


def success_probs(snr):
    """Frame success probability of each MCS at `snr`, one call per MCS."""
    return [phy.frame_success_prob(snr, s, m)
            for s, m in zip(TABLE.slopes_per_db, TABLE.midpoints_db)]


def biased_net(favored: int) -> MlpParams:
    params = MlpParams([1, 8], [np.zeros((1, 8))], [np.zeros(8)])
    params.biases[0][favored] = 1.0
    return params


class TestDaraSelect:
    def test_evaluation_is_argmax(self):
        agent = DaraAgent(biased_net(5))
        agent.observe(step_with(0.3))
        assert agent.select_action() == 5

    def test_evaluation_pure_function_of_observation(self):
        agent = DaraAgent(biased_net(2))
        agent.observe(step_with(0.3))
        actions = {agent.select_action() for _ in range(20)}
        assert actions == {2}

    def test_training_epsilon_one_uniform(self):
        schedule = EpsilonSchedule("fixed", 1.0, 1.0, 1)
        agent = DaraAgent(biased_net(5), schedule, np.random.default_rng(3))
        agent.observe(step_with(0.3))
        draws = np.array([agent.select_action() for _ in range(80_000)])
        freqs = np.bincount(draws, minlength=8) / len(draws)
        assert np.all(np.abs(freqs - 0.125) < 0.01)

    def test_training_needs_schedule_and_rng(self):
        schedule = EpsilonSchedule("fixed", 0.1, 0.1, 1)
        for cls, q in ((DaraAgent, biased_net(0)), (TabularDaraAgent, QTable(4))):
            with pytest.raises(ValueError, match="RNG"):
                cls(q, schedule)


class TestIdealSelect:
    def test_all_feasible_picks_highest(self):
        assert ideal_select(100.0, TABLE, 0.9) == 7

    def test_none_feasible_falls_back_to_zero(self):
        assert ideal_select(-50.0, TABLE, 0.9) == 0

    def test_snr_15_oracle(self):
        # brute force over all 8 MCS: qualifying set is every index whose
        # logistic success probability at 15 dB is >= 0.9
        qualifying = [i for i, p in enumerate(success_probs(15.0)) if p >= 0.9]
        # midpoints [5,8,11,14,...], slope 1: p >= 0.9 iff snr >= mid + ln 9,
        # so midpoints up to 15 - 2.197 = 12.80 qualify -> indices 0..2
        assert qualifying == [0, 1, 2]
        assert ideal_select(15.0, TABLE, 0.9) == max(qualifying)

    def test_matches_brute_force_on_grid(self):
        for snr in np.linspace(-10, 50, 121):
            qualifying = [i for i, p in enumerate(success_probs(snr)) if p >= 0.9]
            expected = max(qualifying) if qualifying else 0
            assert ideal_select(float(snr), TABLE, 0.9) == expected

    def test_monotone_in_snr(self):
        grid = np.linspace(-20, 60, 400)
        picks = [ideal_select(float(s), TABLE, 0.9) for s in grid]
        assert all(b >= a for a, b in zip(picks, picks[1:]))

    def test_selected_rate_meets_threshold_unless_fallback(self):
        for snr in np.linspace(-20, 60, 200):
            a = ideal_select(float(snr), TABLE, 0.9)
            if a != 0:
                assert success_probs(snr)[a] >= 0.9


class TestMinstrelLike:
    def test_all_optimistic_picks_top_rate(self):
        state = MinstrelLikeState(ewma_weight=0.25, probe_prob=0.0)
        assert minstrel_like_select(state, TABLE, np.random.default_rng(0)) == 7

    def test_only_viable_rate_wins(self):
        state = MinstrelLikeState(ewma_weight=0.25, probe_prob=0.0)
        state.ewma = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])
        assert minstrel_like_select(state, TABLE, np.random.default_rng(0)) == 0

    def test_expected_throughput_argmax(self):
        # EWMA_7 * 65 = 19.5 < EWMA_3 * 26 = 23.4
        state = MinstrelLikeState(ewma_weight=0.25, probe_prob=0.0)
        state.ewma = np.array([0.0, 0, 0, 0.9, 0, 0, 0, 0.3])
        assert minstrel_like_select(state, TABLE, np.random.default_rng(0)) == 3

    def test_update_full_replacement(self):
        state = MinstrelLikeState(ewma_weight=1.0, probe_prob=0.1)
        minstrel_like_update(state, 4, 0.37)
        assert state.ewma[4] == pytest.approx(0.37)

    def test_update_frozen(self):
        state = MinstrelLikeState(ewma_weight=0.0, probe_prob=0.1)
        minstrel_like_update(state, 4, 0.0)
        assert state.ewma[4] == 1.0

    def test_update_one_step(self):
        state = MinstrelLikeState(ewma_weight=0.25, probe_prob=0.1)
        state.ewma[2] = 0.5
        minstrel_like_update(state, 2, 1.0)
        assert state.ewma[2] == pytest.approx(0.625)

    def test_ewma_stays_in_unit_interval(self):
        state = MinstrelLikeState(ewma_weight=0.3, probe_prob=0.1)
        rng = np.random.default_rng(5)
        for _ in range(500):
            minstrel_like_update(state, int(rng.integers(0, 8)),
                                 float(rng.uniform(0, 1)))
        assert np.all((state.ewma >= 0) & (state.ewma <= 1))

    def test_agent_updates_only_its_last_action(self):
        agent = MinstrelLikeAgent(TABLE, np.random.default_rng(0),
                                  ewma_weight=0.25, probe_prob=0.0)
        first = agent.select_action()
        assert first == 7
        agent.observe(step_with(fsr=0.0))
        assert agent.state.ewma[7] == pytest.approx(0.75)
        assert np.all(agent.state.ewma[:7] == 1.0)


class TestConstant:
    @pytest.mark.parametrize("mcs", [0, 7])
    def test_always_fixed(self, mcs):
        agent = ConstantAgent(mcs)
        agent.observe(step_with())
        assert all(agent.select_action() == mcs for _ in range(10))


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
                adapter.observe(result)
                assert 0 <= adapter.select_action() <= 7


class TestTabularAgent:
    def test_evaluation_argmax_of_bin_row(self):
        qt = QTable(4)
        qt.values[2, 6] = 1.0  # observations in [0.5, 0.75)
        agent = TabularDaraAgent(qt)
        agent.observe(step_with(0.6))
        assert agent.select_action() == 6
        agent.observe(step_with(0.1))
        assert agent.select_action() == 0
