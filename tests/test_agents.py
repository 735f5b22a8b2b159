import numpy as np
import pytest

from rateadapt import phy
from rateadapt.agents import (ConstantAgent, DaraAgent, IdealAgent,
                              MinstrelLikeAgent, TabularDaraAgent)
from rateadapt.config import default_config
from rateadapt.dqn import EpsilonSchedule
from rateadapt.env import LinkSimEnv, StepResult
from rateadapt.nn import MlpParams, init_mlp, mlp_forward
from rateadapt.tabular import QTable
from tests.reference import TABLE, crossings, random_net, reference_ideal


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


def counting_calls(monkeypatch):
    calls = []
    fn = phy.frame_success_prob

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(phy, "frame_success_prob", counted)
    return calls


def decide_both_ways(agent, results, calls):
    """The agent's actions for `results`, one select_action call each and
    one select_actions call for all; asserts that they agree and that the
    select_actions call made one frame_success_prob call."""
    one_by_one = [agent.select_action(r) for r in results]
    before = len(calls)
    together = agent.select_actions(results)
    assert len(calls) == before + 1
    assert np.shape(calls[-1][0]) == (len(results), 1)
    assert together == one_by_one
    return together


class TestIdealSelectActions:
    """IdealAgent.select_actions decides k raw SNRs in one (k, 8) call, each
    as select_action and reference_ideal decide it alone: at every p_min
    crossing, anywhere off a link, and through episodes with outside clock
    moves."""

    @pytest.mark.parametrize("p_min", [0.1, 0.5, 0.9, 0.99, 0.999999])
    def test_table_decisions_equal_the_reference_at_every_crossing(
            self, p_min, monkeypatch):
        snrs = crossings(p_min)
        want = [reference_ideal(s, p_min) for s in snrs]
        # MCS i's crossing is where the decision turns from i - 1 to i.
        assert want == [d for i in range(phy.N_MCS) for d in (max(i - 1, 0), i, i)]
        calls = counting_calls(monkeypatch)
        results = [step_with(raw_snr_db=float(s)) for s in snrs]
        assert decide_both_ways(IdealAgent(TABLE, p_min), results, calls) == want

    @pytest.mark.parametrize("p_min", [0.5, 0.9])
    def test_a_raw_snr_outside_the_block_gets_the_reference(self, p_min, monkeypatch):
        # Raw SNRs anywhere, not only a receding link's, in batches of 1 to
        # 200, and synthetic results between the windows of a real episode.
        agent = IdealAgent(TABLE, p_min)
        outside = np.random.default_rng(4).uniform(-30.0, 70.0, 200)
        want = [reference_ideal(snr, p_min) for snr in outside]
        calls = counting_calls(monkeypatch)
        results = [step_with(raw_snr_db=float(snr)) for snr in outside]
        for k in (1, 7, 200):
            assert decide_both_ways(agent, results[:k], calls) == want[:k]
        monkeypatch.undo()
        env = LinkSimEnv(default_config())
        result = env.reset(seed=3)
        for _ in range(20):
            result = env.step(agent.select_action(result))
        for snr in outside[:20]:
            assert agent.select_action(step_with(raw_snr_db=float(snr))) == (
                reference_ideal(snr, p_min))
            result = env.step(agent.select_action(result))
            assert agent.select_action(result) == reference_ideal(
                result.raw_snr_db, p_min)

    @pytest.mark.parametrize("p_min", [0.5, 0.9])
    def test_episode_with_outside_clocks_matches_the_reference(self, p_min, monkeypatch):
        # Whole episodes of the default link, each run block looked ahead and
        # decided in one call, with the clock moved from outside now and then.
        env = LinkSimEnv(default_config())
        agent = IdealAgent(TABLE, p_min)
        rng = np.random.default_rng(6)
        calls = counting_calls(monkeypatch)
        for seed in (1, 2):
            result, windows = env.reset(seed=seed), 0
            action = agent.select_action(result)
            while not result.done:
                ahead = env.lookahead(action)
                decided = decide_both_ways(agent, ahead, calls)
                assert decided == [reference_ideal(r.raw_snr_db, p_min) for r in ahead]
                for next_action in decided:
                    result = env.step(action)
                    windows += 1
                    if next_action != action or rng.random() < 0.01:
                        break
                action = next_action
                if not result.done and rng.random() < 0.05:
                    env.clock = max(0.0, env.clock + rng.uniform(-0.5, 0.5))
                    result = env.step(action)
                    windows += 1
                    action = agent.select_action(result)
            assert windows > 500


def q_one_by_one(agent, observations):
    return np.array([agent.q(x) for x in observations])


class TestSelectActions:
    """Only the greedy DQN and Ideal decide many results in one call, and
    their select_actions(results) is select_action of each result. The
    DQN's rows come from one stacked forward whose products are the
    one-observation forward's gemvs, which BLAS keeps bit-equal."""

    OBSERVATIONS = np.append(np.linspace(-0.25, 1.25, 61),
                             [0.0, 1.0, 0.5, 1 / 3, np.nextafter(1.0, 0.0)])

    def results(self, observations):
        return [step_with(float(x), raw_snr_db=float(40 * x)) for x in observations]

    @pytest.mark.parametrize("hidden", [[16, 16, 16], [32, 32], [64, 64], [33, 17]])
    def test_dqn_rows_bit_equal_to_single_forwards(self, hidden):
        rng = np.random.default_rng(len(hidden) + hidden[0])
        for params in (random_net(hidden, rng), init_mlp(hidden, rng)):
            agent = DaraAgent(params)
            for k in (1, 2, 7, len(self.OBSERVATIONS)):
                xs = self.OBSERVATIONS[:k]
                rows = mlp_forward(params, xs[:, None])
                assert rows.shape == (k, phy.N_MCS)
                assert rows.tobytes() == q_one_by_one(agent, xs).tobytes()
                results = self.results(xs)
                assert agent.select_actions(results) == [
                    agent.select_action(r) for r in results]

    def test_fresh_net_ties_go_to_mcs_0(self):
        agent = DaraAgent(init_mlp([16, 16, 16], np.random.default_rng(0)))
        assert agent.select_actions(self.results(self.OBSERVATIONS)) == (
            [0] * len(self.OBSERVATIONS))

    def test_ideal_and_constant(self):
        results = self.results(self.OBSERVATIONS)
        agent = IdealAgent(TABLE, 0.9)
        assert agent.select_actions(results) == [agent.select_action(r) for r in results]
        assert agent.select_actions(results[:1]) == [agent.select_action(results[0])]
        # a tabular row or a constant is decided window by window
        for agent in (ConstantAgent(4), TabularDaraAgent(QTable(3))):
            assert not hasattr(agent, "select_actions")

    def test_no_results_no_actions(self):
        for agent in (DaraAgent(init_mlp([4], np.random.default_rng(0))),
                      IdealAgent(TABLE, 0.9)):
            assert agent.select_actions(()) == []


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
