import csv
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from rateadapt import checkpoint as ckpt_io
from rateadapt import env as env_module
from rateadapt.agents import DaraAgent
from rateadapt.dqn import EpsilonSchedule
from rateadapt.env import LinkSimEnv, rng_streams
from rateadapt.errors import ConfigError
from rateadapt.harness import (TRAINABLE, SweepConfig, _play_episode, build_eval_agent,
                               run_evaluation, run_sweep, run_training)
from rateadapt.nn import MlpParams
from tests.reference import (LINKS, ReferenceLearner, ReferenceLink, distance_at_snr,
                             make_env, random_net, reference_forward, reference_ideal,
                             tiny_config)


def diverging_base():
    """One episode that trains after every transition from the 8th on, so a
    huge learning rate diverges within it."""
    return tiny_config(episodes=1, warmup=8, batch_size=8, train_every=1)


class TestRunTraining:
    def test_episode_rows_and_checkpoints(self, tmp_path):
        cfg = tiny_config(episodes=3)
        summaries, final = run_training(cfg, tmp_path)
        assert [s.episode for s in summaries] == [1, 2, 3]
        rows = (tmp_path / "episodes.csv").read_text().splitlines()
        assert rows[0] == "episode,cum_reward,mean_throughput_mbps,train_steps"
        assert len(rows) == 4
        assert (tmp_path / "policy_ep003.ckpt").exists()
        assert final.kind == "dqn"
        for ep in (1, 2, 3):
            assert (tmp_path / f"throughput_{ep:03d}.csv").exists()

    def test_warmup_guard_zero_train_steps(self, tmp_path):
        # warmup far above the total number of env steps in the run
        cfg = tiny_config(warmup=100_000, episodes=1)
        summaries, final = run_training(cfg, tmp_path)
        assert summaries[0].train_steps == 0
        assert final.train_step == 0

    def test_determinism_byte_identical_csv(self, tmp_path):
        cfg = tiny_config()
        run_training(cfg, tmp_path / "a")
        run_training(cfg, tmp_path / "b")
        for name in ("episodes.csv", "throughput_001.csv", "throughput_002.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_cumulative_reward_nonnegative(self, tmp_path):
        summaries, _ = run_training(tiny_config(), tmp_path)
        assert all(s.cum_reward >= 0 for s in summaries)

    def test_tabular_training_runs(self, tmp_path):
        cfg = tiny_config(algorithm="dara_tabular", episodes=2)
        summaries, final = run_training(cfg, tmp_path)
        assert final.kind == "tabular"
        assert summaries[-1].train_steps > 0
        assert np.any(final.params.values != 0)

    def test_baselines_not_trainable(self, tmp_path):
        with pytest.raises(ConfigError):
            run_training(tiny_config(algorithm="ideal"), tmp_path)

    def test_train_step_count_matches_schedule(self, tmp_path):
        cfg = tiny_config(episodes=1, warmup=8, batch_size=8, train_every=2)
        summaries, _ = run_training(cfg, tmp_path)
        rows = (tmp_path / "episodes.csv").read_text().splitlines()[1:]
        assert summaries[0].train_steps > 0  # training did start after warmup
        assert int(rows[0].split(",")[3]) == summaries[0].train_steps

    def test_one_network_copy_per_target_sync(self, tmp_path, monkeypatch):
        # The benchmark counts target syncs as MlpParams.copy calls less
        # init_mlp calls: the first target, then one copy per sync and none
        # for the replay's cached targets.
        copies = []
        copy = MlpParams.copy
        monkeypatch.setattr(MlpParams, "copy", lambda net: copies.append(net) or copy(net))
        cfg = tiny_config(warmup=8, batch_size=8, train_every=1, target_sync_every=7)
        summaries, _ = run_training(cfg, tmp_path)
        steps = summaries[-1].train_steps
        assert steps > 3 * 7 and len(copies) == 1 + steps // 7


@pytest.mark.parametrize("algorithm,run", [
    ("dara", lambda cfg, out: run_training(cfg, out)),
    ("constant", lambda cfg, out: run_evaluation(cfg, None, out)),
    ("dara", lambda cfg, out: run_sweep(SweepConfig((0.01,), ((4,),), (1,)), cfg, out)),
], ids=["run_training", "run_evaluation", "run_sweep"])
def test_episode_over_the_work_budget_refused_before_any_output(tmp_path, algorithm,
                                                                run):
    cfg = tiny_config({"duration_s": 1e9, "log_period_s": 1e3}, algorithm=algorithm,
                      constant_mcs=7)
    with pytest.raises(ConfigError, match="sim.duration_s too long"):
        run(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


class TestRunEvaluation:
    def test_frozen_policy_deterministic(self, tmp_path):
        cfg = tiny_config(episodes=1)
        _, ckpt = run_training(cfg, tmp_path / "train")
        s1, log1 = run_evaluation(cfg, ckpt, seed=5)
        s2, log2 = run_evaluation(cfg, ckpt, seed=5)
        assert s1 == s2
        assert np.array_equal(log1, log2)

    def test_no_parameter_updates(self, tmp_path):
        cfg = tiny_config(episodes=1)
        _, ckpt = run_training(cfg, tmp_path)
        before = ckpt.params.flat.tobytes()
        run_evaluation(cfg, ckpt, seed=9)
        assert ckpt.params.flat.tobytes() == before

    def test_checkpoint_file_untouched(self, tmp_path):
        cfg = tiny_config(episodes=1)
        run_training(cfg, tmp_path)
        path = tmp_path / "policy_ep001.ckpt"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        ckpt = ckpt_io.load(path)
        run_evaluation(cfg, ckpt, tmp_path / "eval")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_ideal_needs_no_checkpoint(self, tmp_path):
        cfg = tiny_config(algorithm="ideal")
        summary, log = run_evaluation(cfg, None, tmp_path)
        assert summary.mean_throughput_mbps > 0
        assert (tmp_path / "throughput_eval.csv").exists()

    def test_dara_requires_checkpoint(self):
        with pytest.raises(ConfigError):
            run_evaluation(tiny_config(), None)


def climbing_net(rng):
    """A random [16, 16, 16] net whose first hidden unit carries the
    observation x through and whose greedy MCS is about 8x."""
    net = random_net([16, 16, 16], rng)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        w[:, 0], w[0, 0], b[0] = 0.0, 1.0, 0.0
    mcs = np.arange(8)
    net.weights[-1][:] *= 0.01
    net.weights[-1][0] = 10.0 * mcs
    net.biases[-1][:] = -10.0 * mcs ** 2 / 16
    return net


SEED = 8


def played(env, agent, episode, learn=None):
    """One _play_episode of seed SEED: its actions, the reset's and every
    step's StepResult, the clock after each step, the summed reward, the
    throughput log's bytes, the env generator's state and the MCS of each
    lookahead call."""
    actions, results, clocks, lookaheads = [], [], [], []
    reset, step, lookahead = env.reset, env.step, env.lookahead

    def reset_(*args, **kwargs):
        results.append(reset(*args, **kwargs))
        return results[-1]

    def step_(action):
        actions.append(action)
        results.append(step(action))
        clocks.append(env.clock)
        return results[-1]

    def lookahead_(action):
        lookaheads.append(action)
        return lookahead(action)
    env.reset, env.step, env.lookahead = reset_, step_, lookahead_
    try:
        total = _play_episode(env, agent, SEED, episode, learn)
    finally:
        del env.reset, env.step, env.lookahead
    return (actions, results, clocks, total, env.throughput_log().tobytes(),
            env._rng.bit_generator.state, lookaheads)


def reference_played(link, decide, episode, learn=None):
    """played()'s results, clocks, reward and log for the reference link,
    deciding each window with `decide` and passing each transition to
    `learn`, reward summed left to right."""
    results, clocks, total = [link.reset(SEED, episode)], [], 0.0
    while not results[-1].done:
        s, action = results[-1].observation, decide(results[-1])
        results.append(link.step(action))
        clocks.append(link.clock)
        total += results[-1].reward
        if learn is not None:
            learn(s, action, results[-1].reward, results[-1].observation, results[-1].done)
    return results, clocks, total, link.log().tobytes()


def assert_same_episode(env, link, got, want):
    """Every StepResult and clock, the reward and the log, bit for bit, and
    the env generator: the played windows' uniforms plus those its run block
    holds for windows not yet played, at most one block's."""
    _, results, clocks, total, log, rng_state, _ = got
    assert len(results) > 20 and results[-1].done
    assert np.array(results).tobytes() == np.array(want[0]).tobytes()
    assert np.array(clocks).tobytes() == np.array(want[1]).tobytes()
    assert (total, log) == want[2:]
    held = len(env._uniforms) - env._block_next * env.window_frames
    assert 0 <= held <= max(env.window_frames, env_module._BLOCK_FRAMES)
    link.rng.random(held)
    assert rng_state == link.rng.bit_generator.state


@pytest.mark.parametrize("start,travel", LINKS)
@pytest.mark.parametrize("window", [1, 7, 50])
@pytest.mark.parametrize("algorithm,learner", [
    *(pytest.param(name, {}, id=name)
      for name in ("dara", "dara_tabular", "ideal", "minstrel_like", "constant")),
    # the replay's cached targets from 1-row target forwards, and from
    # 2-row forwards that leave a lone stale row, which goes in twice: an
    # odd ring that every sync makes all stale, sampled often
    pytest.param("dara", {"batch_size": 1}, id="dara_batch1"),
    pytest.param("dara", {"batch_size": 2, "train_every": 3, "replay_capacity": 9},
                 id="dara_batch2")])
def test_harness_equals_reference(algorithm, learner, window, start, travel):
    # The equivalence matrix. Each algorithm plays episodes of one env
    # through the real _play_episode, and each equals the reference link's,
    # window for window. A learner trains in episodes 1 and 2 through its
    # learn hook, never looking ahead, and then holds the reference
    # learner's parameters and Adam moments (or Q-table); in episode 0 its
    # greedy policy plays frozen, and for dara, whose trained net keeps one
    # MCS, a greedy net whose MCS climbs with the observation plays episode
    # 3. The baselines play episodes 1 and 0. Only dara looks each run block
    # ahead and decides it in one call; the others play window by window,
    # minstrel_like against a twin of itself. Episodes last window / 20 s,
    # 28 to 184 windows.
    duration = window / 20
    cfg = tiny_config(
        sim={"start_distance_m": start, "speed_mps": travel / duration,
             "duration_s": duration, "log_period_s": duration / 25},
        gym={"window_frames": window}, algorithm=algorithm, constant_mcs=5,
        **{"warmup": 8, "batch_size": 8, "train_every": 4, "target_sync_every": 5,
           "replay_capacity": 64, "epsilon_mode": "linear", "epsilon_start": 0.5,
           "epsilon_end": 0.05, "epsilon_decay_steps": 100, **learner})
    a = cfg["agent"]
    env = LinkSimEnv(cfg)
    link = ReferenceLink(env)
    if algorithm in TRAINABLE:
        schedule = EpsilonSchedule(a["epsilon_mode"], a["epsilon_start"], a["epsilon_end"],
                                   a["epsilon_decay_steps"])
        agent, learn, opt = TRAINABLE[algorithm][2](a, schedule, rng_streams(SEED)[1])
        ref = ReferenceLearner(a, rng_streams(SEED)[1])
        for episode in (1, 2):
            got = played(env, agent, episode, learn)
            assert_same_episode(env, link, got,
                                reference_played(link, ref.act, episode, ref.learn))
            assert got[-1] == [] and agent.train_step == ref.train_step
            assert ref.state() == ((agent.model.flat.tobytes(), opt.t, opt.m.flat.tobytes(),
                                    opt.v.flat.tobytes()) if opt
                                   else (agent.model.values.tobytes(),))
        # the DQN has synced its target at least once
        assert ref.train_step >= (a["target_sync_every"] if opt else 1)
        plays = [(TRAINABLE[algorithm][1](agent.model), ref.greedy, 0)]
        if algorithm == "dara":
            net = climbing_net(np.random.default_rng(12))
            plays.append((DaraAgent(net), lambda r: int(np.argmax(reference_forward(
                net.weights, net.biases, [r.observation])[0])), 3))
    else:
        twin = build_eval_agent(cfg, None, rng_streams(SEED)[1])
        decide = {"ideal": lambda r: reference_ideal(r.raw_snr_db, a["ideal_p_min"]),
                  "constant": lambda r: a["constant_mcs"],
                  "minstrel_like": twin.select_action}[algorithm]
        agent = build_eval_agent(cfg, None, rng_streams(SEED)[1])
        plays = [(agent, decide, episode) for episode in (1, 0)]
    changes = False
    for agent, decide, episode in plays:
        got = played(env, agent, episode)
        assert_same_episode(env, link, got, reference_played(link, decide, episode))
        assert (got[-1] != []) == (algorithm == "dara")
        changes |= len(set(got[-1])) > 1
    if travel > 0 and algorithm == "dara":
        assert changes  # a looked-ahead decision changes on the moving link


def per_window(agent):
    """`agent` without select_actions, so that it plays window by window."""
    return SimpleNamespace(select_action=agent.select_action)


def test_epsilon_greedy_without_learning_plays_window_by_window():
    # An exploring agent draws a coin per window, so it never looks ahead,
    # hook or not, and plays as it does without select_actions.
    def explorer():
        schedule = EpsilonSchedule("fixed", 0.3, 0.3, 1)
        return DaraAgent(climbing_net(np.random.default_rng(12)), schedule,
                         np.random.default_rng(5))
    env = make_env(start=distance_at_snr(30.0), speed=400.0, duration=0.5, window=7)
    *explored, lookaheads = played(env, explorer(), 0)
    *window_by_window, _ = played(env, per_window(explorer()), 0)
    assert lookaheads == [] and explored == window_by_window
    assert len(set(explored[0])) > 1


class TestRunSweep:
    def test_grid_row_counts(self, tmp_path):
        base = tiny_config(episodes=1)
        rows = run_sweep(SweepConfig((0.1, 0.01), ((4,),), (1,)),
                         base, tmp_path / "lr")
        assert len(rows) == 2
        rows = run_sweep(SweepConfig((0.01,), ((4,), (4, 4), (8,)), (1,)),
                         base, tmp_path / "arch")
        assert len(rows) == 3
        assert (tmp_path / "arch" / "sweep_summary.csv").exists()

    def test_winner_recomputable_from_csv(self, tmp_path):
        base = tiny_config(episodes=1)
        rows = run_sweep(SweepConfig((0.05, 0.01), ((4,),), (1, 2)),
                         base, tmp_path)
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()[1:]
        parsed = [line.split(",") for line in lines]
        best_csv = max(parsed, key=lambda r: float(r[3]))
        best_rows = max(rows, key=lambda r: float(r["final_cum_reward"]))
        assert float(best_csv[3]) == float(best_rows["final_cum_reward"])

    @pytest.mark.parametrize("overrides,learning_rates,architectures,violations", [
        ({}, (0.0, 0.01), ((4,), (0, 0)), [
            "agent.learning_rate: must be > 0 (got 0.0)",
            "agent.hidden_layers: must be a non-empty list of integers >= 1 "
            "(got [0, 0])"]),
        ({"algorithm": "ideal"}, (0.0,), ((4,),),
         ["algorithm 'ideal' is not trainable"]),
    ], ids=["grid_values", "not_trainable"])
    def test_bad_grid_refused_before_any_output(
            self, tmp_path, overrides, learning_rates, architectures, violations):
        sweep = SweepConfig(learning_rates, architectures, (1, 2))
        with pytest.raises(ConfigError) as info:
            run_sweep(sweep, tiny_config(episodes=1, **overrides), tmp_path / "out")
        assert info.value.violations == violations  # each one once
        assert not (tmp_path / "out").exists()

    def test_rows_carry_the_cells_summaries(self, tmp_path):
        rows = run_sweep(SweepConfig((0.01,), ((4,),), (1,)),
                         tiny_config(), tmp_path)
        summaries, _ = run_training(
            tiny_config(learning_rate=0.01, hidden_layers=[4], seed=1),
            tmp_path / "solo")
        assert rows[0]["summaries"] == summaries
        assert rows[0]["final_cum_reward"] == f"{summaries[-1].cum_reward:.6f}"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_cell_failure_recorded_and_sweep_continues(self, tmp_path):
        # learning rate 1e300 passes validation; the weights go non-finite
        # in the first episode, once training starts after 8 transitions
        rows = run_sweep(SweepConfig((1e300, 0.01), ((4,),), (1,)),
                         diverging_base(), tmp_path)
        assert "diverged in episode 1" in rows[0]["error"]
        assert rows[0]["final_cum_reward"] == "" and rows[0]["summaries"] is None
        assert rows[1]["error"] == "" and rows[1]["final_cum_reward"] != ""
        assert len(rows[1]["summaries"]) == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_error_with_commas_reads_back_intact(self, tmp_path):
        rows = run_sweep(SweepConfig((1e300,), ((4,),), (1,)),
                         diverging_base(), tmp_path)
        assert ("diverged in episode 1, array 'w0' holds non-finite values"
                in rows[0]["error"])
        with open(tmp_path / "sweep_summary.csv", encoding="utf-8", newline="") as f:
            (written,) = csv.DictReader(f)
        assert written["error"] == rows[0]["error"]
        assert written["learning_rate"] == "1e+300"
