from functools import cache
from itertools import permutations

import numpy as np
import pytest

from rateadapt import nn, phy, tabular
from rateadapt.agents import (ConstantAgent, DaraAgent, IdealAgent,
                              MinstrelLikeAgent, TabularDaraAgent, ThresholdTable)
from rateadapt.config import default_config
from rateadapt.dqn import EpsilonSchedule
from rateadapt.env import LinkSimEnv, StepResult
from rateadapt.nn import BAND_CAP, MlpParams, greedy_steps, init_mlp, mlp_forward
from rateadapt.phy import McsTable
from rateadapt.tabular import QTable
from tests.reference import TABLE, crossings, ideal_mismatches, random_net, reference_ideal


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


@cache
def ideal_agent(p_min):
    return IdealAgent(TABLE, p_min)


def ideal(snr, p_min=0.9):
    return ideal_agent(p_min).select_action(step_with(raw_snr_db=float(snr)))


def minstrel(ewma_weight=0.25, probe_prob=0.0, ewma=None, seed=0):
    agent = MinstrelLikeAgent(TABLE, np.random.default_rng(seed),
                              ewma_weight=ewma_weight, probe_prob=probe_prob)
    if ewma is not None:
        agent.ewma = np.array(ewma, dtype=float)
    return agent


class TestDaraSelect:
    # A frozen DQN evaluates as its compiled table; TestGreedySteps checks it
    # against the forward, and tests/test_dqn.py's TestEpsilonGreedy the
    # learner at epsilon 0.
    def test_evaluation_is_argmax(self):
        assert compiled(biased_net(5)).select_action(step_with(0.3)) == 5

    def test_evaluation_pure_function_of_observation(self):
        agent = compiled(biased_net(2))
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
            q = DaraAgent(params, schedule, rng).q(x)
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


class TestIdealSelectActions:
    """IdealAgent decides each raw SNR as reference_ideal does: at every
    p_min crossing, which is its threshold, anywhere, and through episodes
    with outside clock moves."""

    @pytest.mark.parametrize("p_min", [0.1, 0.5, 0.9, 0.99, 0.999999])
    def test_table_decisions_equal_the_reference_at_every_crossing(self, p_min):
        snrs = crossings(p_min)
        want = [reference_ideal(s, p_min) for s in snrs]
        # MCS i's crossing is where the decision turns from i - 1 to i.
        assert want == [d for i in range(phy.N_MCS) for d in (max(i - 1, 0), i, i)]
        assert [ideal(s, p_min) for s in snrs] == want
        assert ideal_agent(p_min).thresholds == snrs[1::3].tolist()

    @pytest.mark.parametrize("p_min", [0.5, 0.9])
    def test_a_raw_snr_outside_the_block_gets_the_reference(self, p_min):
        # Raw SNRs anywhere, not only a receding link's.
        outside = np.random.default_rng(4).uniform(-30.0, 70.0, 200)
        assert [ideal(s, p_min) for s in outside] == [reference_ideal(s, p_min) for s in outside]

    @pytest.mark.parametrize("p_min", [0.5, 0.9])
    def test_episode_with_outside_clocks_matches_the_reference(self, p_min):
        # Whole episodes of the default link, decided window by window, with
        # the clock moved from outside now and then.
        env = LinkSimEnv(default_config())
        agent = IdealAgent(TABLE, p_min)
        rng = np.random.default_rng(6)
        for seed in (1, 2):
            result, windows = env.reset(seed=seed), 0
            while not result.done:
                action = agent.select_action(result)
                assert action == reference_ideal(result.raw_snr_db, p_min)
                if rng.random() < 0.05:
                    env.clock = max(0.0, env.clock + rng.uniform(-0.5, 0.5))
                result = env.step(action)
                windows += 1
            assert windows > 500


# The default midpoints with shallow and steep slopes mixed, so that at most
# values of p_min some MCS reaches p_min at a lower SNR than a lower MCS.
MIXED_SLOPES = McsTable(TABLE.rates_mbps, TABLE.midpoints_db,
                        np.array([0.2, 1.0, 1.0, 1.0, 0.3, 3.0, 1.0, 1.0]))


class TestIdealThresholds:
    """thresholds[a] is the least raw SNR at which MCS a or a higher one
    has p >= p_min, so one bisect over them decides as the 8-MCS rule."""

    @pytest.mark.parametrize("table", [TABLE, MIXED_SLOPES], ids=["default", "mixed_slopes"])
    def test_every_edge_and_random_snr_decides_as_the_reference(self, table):
        rng = np.random.default_rng(13)
        snrs = rng.uniform(-40.0, 80.0, 500)
        for p_min in rng.uniform(0.0, 1.0, 10):
            agent = IdealAgent(table, p_min)
            assert agent.thresholds == sorted(agent.thresholds)
            assert ideal_mismatches(agent, p_min, table, snrs) == []


def compiled(params):
    return ThresholdTable("observation", *greedy_steps(params), params)


def table_mismatches(params):
    """The observations at which the compiled table and the greedy single
    forward disagree, among 0.0, 1.0, every edge and the floats one ulp
    either side, five floats spread over each band and 3,000 seeded random
    observations."""
    table = compiled(params)
    edges = table.edges
    xs = [0.0, 1.0, *np.random.default_rng(0).uniform(0.0, 1.0, 3000)]
    xs += [y for e in edges for y in (np.nextafter(e, -1.0), e, np.nextafter(e, 2.0))]
    xs += [y for lo, hi, action in zip(edges, edges[1:], table.actions[1:])
           if action < 0 for y in np.linspace(lo, hi, 5)]
    return [x for x in map(float, xs)
            if table.select_action(step_with(x)) != int(mlp_forward(params, x).argmax())]


def summation_order_net(units):
    """A constant net whose Q_0 sums the terms 1, -1 and 2**-53 in the order
    of `units`: u if the forward adds 1 and -1 first, else 0. Q_1 is
    2**-54 and the other Q-values are -1, so the greedy MCS is 0 or 1
    depending only on how the output layer's dot product is summed."""
    values, signs = np.array([1.0, 1.0, 2.0 ** -53]), np.array([1.0, -1.0, 1.0])
    w1 = np.zeros((3, phy.N_MCS))
    w1[:, 0] = signs[list(units)]
    b1 = np.full(phy.N_MCS, -1.0)
    b1[:2] = 0.0, 2.0 ** -54
    return MlpParams([np.zeros((1, 3)), w1], [values[list(units)], b1])


class TestGreedySteps:
    """The compiled table of a greedy DQN decides every observation as the
    single forward does: certified intervals by one bisect, and bands, the
    undecided intervals, by the forward itself."""

    @pytest.mark.parametrize("hidden", [[16, 16, 16], [32, 32], [33, 9], [64, 64]])
    def test_random_nets_decide_as_the_forward(self, hidden):
        rng = np.random.default_rng(sum(hidden))
        certified = set()
        for _ in range(4):
            params = random_net(hidden, rng)
            assert table_mismatches(params) == []
            certified |= set(compiled(params).actions) - {-1}
        assert len(certified) >= 2

    def test_near_ties_summed_in_another_order_decide_as_the_forward(self):
        # The bound's own dot product adds the terms in another order than
        # the forward's, so only the rounding margin keeps these from
        # certifying the wrong MCS; they stay bands.
        for units in permutations(range(3)):
            params = summation_order_net(units)
            assert table_mismatches(params) == []
            assert compiled(params).actions == [-1]

    def test_fresh_net_is_mcs_0_everywhere(self):
        # A zero output layer gives Q = 0 exactly, which ties to MCS 0.
        params = init_mlp([16, 16, 16], np.random.default_rng(0))
        assert greedy_steps(params) == ([0.0, float(np.nextafter(1.0, 2.0))], [-1, 0, -1])
        assert table_mismatches(params) == []

    def test_identical_output_columns_compile_within_the_cap(self, monkeypatch):
        # Two equal top Q-values never certify, so every interval is bisected
        # until more than BAND_CAP are live and all of them become bands.
        params = random_net([16, 16, 16], np.random.default_rng(3))
        params.weights[-1][:, 6] = params.weights[-1][:, 2]
        params.biases[-1][[2, 6]] = 100.0
        live, q_bounds = [], nn._q_bounds
        monkeypatch.setattr(nn, "_q_bounds", lambda p, lo, hi: live.append(len(lo))
                            or q_bounds(p, lo, hi))
        assert compiled(params).actions == [-1]
        assert max(live) <= 2 * BAND_CAP and len(live) <= 41
        assert table_mismatches(params) == []
        assert int(mlp_forward(params, 0.5).argmax()) in (2, 6)


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
        assert isinstance(agent, ThresholdTable) and agent.edges == []
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
        # A frozen Q-table evaluates as its compiled table, with no band.
        qt = QTable(4)
        qt.values[2, 6] = 1.0  # observations in [0.5, 0.75)
        agent = ThresholdTable("observation", *tabular.greedy_steps(qt))
        assert (agent.edges, agent.actions) == ([0.5, 0.75], [0, 6, 0])
        assert agent.select_action(step_with(0.6)) == 6
        assert agent.select_action(step_with(0.1)) == 0
