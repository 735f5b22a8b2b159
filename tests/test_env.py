import math

import numpy as np
import pytest

from rateadapt import env as env_module
from rateadapt import phy
from rateadapt.config import default_config
from rateadapt.env import LinkSimEnv, rng_streams
from rateadapt.harness import run_evaluation
from tests.reference import (CHANNEL, LINKS, TABLE, dara_reward, distance_at_snr, make_env,
                             reference_episode, reference_log, runs_of_actions, tiny_config)


class TestFrameAirtime:
    def test_mcs7(self):
        assert make_env().airtime_s[7] == pytest.approx(272.31e-6, abs=0.01e-6)

    def test_mcs0(self):
        assert make_env().airtime_s[0] == pytest.approx(1823.08e-6, abs=0.01e-6)

    def test_zero_overhead(self):
        assert make_env(overhead=0.0).airtime_s[7] == 11200 / 65e6


class TestPosition:
    def test_initial(self):
        assert make_env(start=3.0).position_at(0.0) == 3.0

    def test_linear_motion(self):
        assert make_env(start=1.0, speed=20.0).position_at(60.0) == 1201.0

    def test_stationary(self):
        env = make_env(start=5.0, speed=0.0)
        assert all(env.position_at(t) == 5.0 for t in (0.0, 1.0, 100.0))


class TestDaraReward:
    """The env's rewards at each MCS where every frame succeeds or none does."""

    @staticmethod
    def rewards(link):
        start, travel = next(p.values for p in LINKS if p.id == link)
        env = make_env(start=start, speed=travel / 60.0)
        env.reset(seed=3)
        results = [env.step(m) for m in range(phy.N_MCS)]
        assert {r.fsr for r in results} == {1.0 if link == "all_success" else 0.0}
        return [r.reward for r in results]

    def test_max(self):
        assert self.rewards("all_success")[7] == 1.0

    def test_zero_fsr(self):
        assert self.rewards("all_failure") == [0.0] * phy.N_MCS

    def test_mcs3(self):
        assert self.rewards("all_success")[3] == pytest.approx(26 / 65)

    def test_monotone_in_fsr_and_mcs(self):
        top, none = self.rewards("all_success"), self.rewards("all_failure")
        assert all(b > a for a, b in zip(top, top[1:]))
        assert all(t > n for t, n in zip(top, none))
        assert top == [dara_reward(1.0, m, TABLE) for m in range(phy.N_MCS)]


class TestReset:
    def test_basics(self):
        env = make_env()
        res = env.reset(seed=7)
        assert res.done is False
        assert res.reward == 0.0
        assert env.clock == 0.0
        assert res.fsr == 1.0  # the probe window at MCS 0 and 67 dB

    def test_default_observation_saturates(self):
        res = make_env().reset(seed=7)
        assert res.raw_snr_db == pytest.approx(67.26, abs=0.05)
        assert res.observation == 1.0

    def test_probe_window_acks_at_start_distance(self):
        # p(MCS 0) is about 0.5 at the start, so the probe's fsr is a real draw.
        start = distance_at_snr(TABLE.midpoints_db[0])
        env = make_env(start=start)
        res = env.reset(seed=11)
        assert res.raw_snr_db == phy.snr_db(start, CHANNEL)  # bit for bit
        p = phy.frame_success_prob(res.raw_snr_db, TABLE.slopes_per_db[0],
                                   TABLE.midpoints_db[0])
        assert 0.3 < p < 0.7
        uniforms = rng_streams(11)[0].random(env.window_frames)
        assert res.fsr == np.count_nonzero(uniforms < p) / env.window_frames
        assert 0.0 < res.fsr < 1.0 and type(res.fsr) is float

    def test_determinism(self):
        a = make_env().reset(seed=123)
        b = make_env().reset(seed=123)
        assert a == b


class TestStep:
    def test_all_success_window(self):
        # SNR far above every midpoint at 1 m and zero speed.
        env = make_env(start=1.0, speed=0.0)
        env.reset(seed=1)
        res = env.step(7)
        assert res.fsr == 1.0
        assert env.mean_throughput_mbps == pytest.approx(41.13, abs=0.1)

    def test_all_failure_window(self):
        env = make_env(start=5000.0, speed=0.0)  # SNR ~ -6.7 dB
        env.reset(seed=1)
        res = env.step(7)
        assert res.fsr == 0.0
        assert res.reward == 0.0
        assert env.mean_throughput_mbps == 0.0

    def test_binomial_statistics(self):
        # Distance fixed at the MCS 3 midpoint: p = 0.5 per frame.
        d = distance_at_snr(TABLE.midpoints_db[3])
        env = make_env(start=d, speed=0.0, duration=1e9, window=50, log_period=1e9)
        env.reset(seed=3)
        p = phy.frame_success_prob(phy.snr_db(d, CHANNEL), TABLE.slopes_per_db[3],
                                   TABLE.midpoints_db[3])
        assert p == pytest.approx(0.5, abs=1e-6)
        counts = [env.step(3).fsr * 50 for _ in range(400)]
        mean = np.mean(counts)
        sigma = np.sqrt(50 * p * (1 - p) / len(counts))
        assert abs(mean - 50 * p) < 6 * sigma

    def test_step_after_done_raises(self):
        env = make_env(duration=0.01)
        env.reset(seed=1)
        res = env.step(7)
        assert res.done
        with pytest.raises(RuntimeError):
            env.step(7)

    def test_step_before_reset_raises(self):
        env = make_env()
        assert env.done
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_bad_action(self):
        env = make_env()
        env.reset(seed=1)
        with pytest.raises(ValueError):
            env.step(8)
        with pytest.raises(ValueError):
            env.step(-1)

    def test_fsr_granularity_and_throughput_cap(self):
        env = make_env(window=50)
        env.reset(seed=9)
        rng = np.random.default_rng(0)
        while not env.done:
            a = int(rng.integers(0, 8))
            res = env.step(a)
            count = res.fsr * 50
            assert count == pytest.approx(round(count), abs=1e-9)
            window_mbps = round(count) * env.payload_bits / (50 * env.airtime_s[a]) / 1e6
            cap = env.payload_bits / env.airtime_s[a] / 1e6
            assert window_mbps <= cap + 1e-9

    def test_episode_duration_bound(self):
        env = make_env(duration=10.0)
        env.reset(seed=2)
        while not env.done:
            env.step(0)
        max_window = 50 * env.airtime_s[0]
        assert 10.0 <= env.clock <= 10.0 + max_window

    def test_done_exactly_once(self):
        env = make_env(duration=5.0)
        res = env.reset(seed=4)
        dones = 0
        while not res.done:
            res = env.step(3)
            dones += res.done
        assert dones == 1

    def test_observation_declines_with_distance(self):
        env = make_env()
        env.reset(seed=5)
        obs = []
        while not env.done:
            obs.append(env.step(2).observation)
        quarter = len(obs) // 4
        assert np.mean(obs[:quarter]) >= np.mean(obs[-quarter:])


def play(env, seed, actions):
    """Step `env` to the episode end, choosing each MCS with `actions()`;
    returns the end time and delivered bits of every window."""
    env.reset(seed=seed)
    ends, bits = [], []
    while not env.done:
        res = env.step(actions())
        ends.append(env.clock)
        bits.append(round(res.fsr * env.window_frames) * env.payload_bits)
    return ends, bits


class TestEpisodeLog:
    def test_record_count_60s_1s(self):
        env = make_env(duration=60.0, log_period=1.0)
        play(env, 1, lambda: 5)
        assert len(env.throughput_log()) == 60

    def test_timestamps_strictly_increasing(self):
        env = make_env(duration=12.0, log_period=0.5)
        play(env, 1, lambda: 1)
        times = env.throughput_log()[:, 0]
        assert np.all(np.diff(times) > 0)

    def test_zero_throughput_period_recorded(self):
        env = make_env(start=5000.0, speed=0.0, duration=2.0)
        play(env, 1, lambda: 0)
        log = env.throughput_log()
        assert len(log)
        assert np.all(log[:, 3] == 0.0)

    def test_positions_from_mobility(self):
        env = make_env(start=2.0, speed=10.0, duration=5.0)
        play(env, 1, lambda: 6)
        for time_s, tx_pos_m, rx_pos_m, _ in env.throughput_log():
            assert tx_pos_m == 0.0
            assert rx_pos_m == pytest.approx(2.0 + 10.0 * time_s)

    def test_bits_sum_to_episode_total(self):
        env = make_env(duration=7.0, log_period=0.3)
        play(env, 2, lambda: 4)
        times, _, _, thpt = env.throughput_log().T
        periods = np.diff(times, prepend=0.0)
        assert np.sum(thpt * periods * 1e6) == pytest.approx(
            env.mean_throughput_mbps * env.clock * 1e6)

    def test_needs_finished_episode(self):
        env = make_env(duration=5.0)
        with pytest.raises(RuntimeError):
            env.throughput_log()
        env.reset(seed=1)
        env.step(3)
        with pytest.raises(RuntimeError):
            env.throughput_log()

    # Windows of 400 frames last 0.11-0.73 s and windows of 50 frames
    # 0.014-0.09 s, so windows longer than one period skip over ticks.
    @pytest.mark.parametrize("log_period,window,start", [
        (0.1, 400, 1.0), (0.3, 400, 1.0), (0.013, 50, 1.0), (0.3, 400, 5000.0),
    ])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_per_window_reference(self, log_period, window, start, seed):
        env = make_env(start=start, duration=20.0, window=window,
                       log_period=log_period)
        rng = np.random.default_rng(seed)
        ends, bits = play(env, seed, lambda: int(rng.integers(0, phy.N_MCS)))
        assert max(np.diff(ends)) > log_period
        got = env.throughput_log()
        want = reference_log(env, ends, bits)
        assert got.shape == want.shape
        assert np.array_equal(got, want)  # bit for bit


@pytest.mark.parametrize("start,travel", LINKS)
@pytest.mark.parametrize("window", [1, 7, 50])
def test_window_step_bit_identical_to_reference(window, start, travel):
    # A random MCS every window: each window is computed on its own.
    env = make_env(start=start, speed=travel / 5.0, duration=5.0, window=window)
    actions = np.random.default_rng(window).integers(0, phy.N_MCS, size=300).tolist()
    got = drive(env, actions, {})
    assert len(got[0]) > 50
    assert got == reference_episode(env, 8, actions[:len(got[0]) - 1])


@pytest.mark.parametrize("start,travel", LINKS)
@pytest.mark.parametrize("gym", [{}, {"snr_lo_db": 5, "snr_hi_db": 35}])
def test_observation_and_raw_snr_are_python_floats(gym, start, travel):
    # mlp_forward takes one float observation, so reset and every step must
    # hand one over: after an ACKed window, after one with no ACK (the
    # observation carries forward) and under a JSON-integer SNR range.
    env = LinkSimEnv(tiny_config(
        sim={"start_distance_m": start, "speed_mps": travel / 2.0, "duration_s": 2.0},
        gym={"window_frames": 20, **gym}))
    results = [env.reset(seed=4)]
    while not env.done:
        results.append(env.step(len(results) % phy.N_MCS))
    assert {(type(r.observation), type(r.raw_snr_db)) for r in results} == {(float, float)}
    carried = [(before, after) for before, after in zip(results, results[1:])
               if after.fsr == 0.0]
    assert all(after.observation == before.observation for before, after in carried)
    assert bool(carried) == (start > 1.0)  # every frame ACKs on the 1 m link


def test_phy_called_once_per_block_plus_probe(monkeypatch):
    # perfbench reads phy.snr_db's calls per window: the env reaches each
    # PHY formula through the phy module. A run of one MCS is computed in
    # blocks whose length doubles, so this constant-MCS episode, shorter
    # than the block cap, makes O(log windows) calls; an MCS that changes
    # every window makes one call per window. reset's probe adds one. The
    # config is validated before counting, so the count is the env's alone.
    cfg = tiny_config({"duration_s": 3.0}, algorithm="constant", constant_mcs=3)
    counts = {"step": 0, "snr_db": 0, "frame_success_prob": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(LinkSimEnv, "step")
    counted(phy, "snr_db")
    counted(phy, "frame_success_prob")
    run_evaluation(cfg, None, seed=1)
    windows = counts["step"]
    assert windows > 100
    assert counts["snr_db"] == counts["frame_success_prob"]
    assert 2 <= counts["snr_db"] <= 1 + math.log2(windows)

    counts.update(dict.fromkeys(counts, 0))
    env = LinkSimEnv(cfg)
    env.reset(seed=1)
    while not env.done:
        env.step(2 + counts["step"] % 2)
    windows = counts["step"]
    assert windows > 50
    assert counts == {"step": windows, "snr_db": windows + 1,
                      "frame_success_prob": windows + 1}

    # Ideal decides each window by a bisect over thresholds it found once,
    # through its own binding of frame_success_prob, so its episodes make
    # as many frame-success calls as the env's SNR calls, no more.
    for duration, snr_calls in ((3.0, 16), (60.0, 112)):
        cfg = tiny_config({"duration_s": duration}, algorithm="ideal")
        counts.update(dict.fromkeys(counts, 0))
        for seed in (1, 2):
            run_evaluation(cfg, None, seed=seed)
        assert counts["step"] > 20 * snr_calls
        assert counts["snr_db"] == snr_calls
        assert counts["frame_success_prob"] == snr_calls


@pytest.mark.parametrize("window", [1, 7, 50])
def test_stream_position_is_windows_played_plus_held(window):
    # Window n of an episode uses the uniforms [(n+1)w, (n+2)w) of its env
    # stream, after reset's probe. So after any mix of steps, outside clock
    # moves and resets, the generator has drawn the probe's
    # and the played windows' uniforms plus those the run block holds for
    # windows not yet played, never more than one block's worth.
    env = make_env(window=window)
    rng = np.random.default_rng(window)
    actions, windows = runs_of_actions(rng, 800), 0
    env.reset(seed=4, episode=2)
    for op in rng.integers(0, 40, size=800):
        if op == 0 or env.done:
            env.reset(seed=4, episode=2)
            windows = 0
        elif op < 3:
            env.clock += 0.01
        else:
            env.step(actions[windows])
            windows += 1
        held = len(env._uniforms) - env._block_next * window
        assert 0 <= held <= max(window, env_module._BLOCK_FRAMES)
        fresh = rng_streams(4, episode=2)[0]
        fresh.random((1 + windows) * window + held)
        assert env._rng.bit_generator.state == fresh.bit_generator.state


def drive(env, actions, jumps):
    """reset(seed=8), then one step per action to the episode end, setting
    the clock to jumps[i] before window i. Returns the results and the clock
    after each."""
    got, got_clocks = [env.reset(seed=8)], [env.clock]
    for i, a in enumerate(actions):
        env.clock = jumps.get(i, env.clock)
        got.append(env.step(a))
        got_clocks.append(env.clock)
        if env.done:
            break
    return got, got_clocks


# The sweeping link only: with p at 0 or 1 and a receiver that stands still,
# a stale row or uniform is indistinguishable from a fresh one.
@pytest.mark.parametrize("start,travel", LINKS[:1])
@pytest.mark.parametrize("window", [1, 7, 50])
def test_run_blocks_bit_identical_to_reference(window, start, travel):
    # Each run block computes many windows' PHY in one call and takes their
    # success masks from the stream ahead of play; every window still equals
    # the per-window reference, through to the episode end, however blocks
    # are left: by a step at another MCS ("runs"), by a reset ten windows
    # into a run ("reset"), or by rewinding the clock to window 3 after
    # window 10 and jumping past every computed row after window 20
    # ("clock_set").
    env = make_env(start=start, speed=travel / 5.0, duration=5.0, window=window)
    longest = int(env.duration_s / (window * env.airtime_s.min())) + 1
    actions = [5] * 30 + runs_of_actions(np.random.default_rng(window), longest)
    _, clocks = reference_episode(env, 8, actions[:20])
    for way in ("runs", "reset", "clock_set"):
        jumps = {10: clocks[3], 20: clocks[20] + 0.25} if way == "clock_set" else {}
        if way == "reset":
            drive(env, actions[:10], {})
        got, got_clocks = drive(env, actions, jumps)
        assert env.done and len(got) > 50, way
        if way != "reset":  # a reset plays the runs episode again
            want = reference_episode(env, 8, actions[:len(got) - 1], jumps)
        assert (got, got_clocks) == want, way


@pytest.mark.parametrize("window", [1, 7, 50])
def test_reset_mid_run_serves_no_stale_row(window):
    # Ten windows into a run the block holds rows for later clocks and their
    # uniforms; the new episode must start from clock 0 and its own stream
    # all the same. The link starts at MCS 5's midpoint, where p is near
    # 0.5, so a uniform left from the old stream would flip frames.
    env = make_env(start=distance_at_snr(TABLE.midpoints_db[5]), speed=40.0,
                   duration=5.0, window=window)
    env.reset(seed=8)
    for _ in range(10):
        env.step(5)
    got = [env.reset(seed=8)] + [env.step(5) for _ in range(30)]
    assert got == reference_episode(env, 8, [5] * 30)[0]


@pytest.mark.parametrize("window", [1, 7, 50])
def test_clock_set_mid_run_serves_no_stale_row(window):
    # Rewind to the start of window 3 after window 10, then jump past every
    # computed row after window 20.
    env = make_env(start=distance_at_snr(30.0), speed=40.0, duration=5.0, window=window)
    _, clocks = reference_episode(env, 8, [5] * 20)
    jumps = {10: clocks[3], 20: clocks[20] + 0.25}
    assert drive(env, [5] * 30, jumps) == reference_episode(env, 8, [5] * 30, jumps)


def test_run_block_memory_is_bounded():
    blocks = []

    def recording(env):
        window = env._window

        def recorded(clock, offsets, mcs):
            if np.ndim(clock) == 2:  # a run block, not reset's probe
                blocks.append((clock[:, 0].tolist(), env._advance[mcs]))
            return window(clock, offsets, mcs)
        env._window = recorded
        return env

    # A window wider than the frame budget gets one-row blocks, however
    # long the run.
    env = recording(make_env(window=20_000, duration=60.0))
    env.reset(seed=1)
    while not env.done:
        env.step(7)
    assert len(blocks) > 5
    assert all(len(clocks) == 1 for clocks, _ in blocks)

    # The default link: a whole-episode run grows its blocks to the budget,
    # and runs of random length stay within it.
    blocks.clear()
    env = recording(LinkSimEnv(default_config()))
    w = env.window_frames
    env.reset(seed=1)
    while not env.done:
        env.step(3)
    assert max(len(clocks) for clocks, _ in blocks) * w == env_module._BLOCK_FRAMES
    rng = np.random.default_rng(2)
    env.reset(seed=2)
    for a in runs_of_actions(rng, 10**5):
        env.step(a)
        if env.done:
            break
    assert all(len(clocks) * w <= env_module._BLOCK_FRAMES for clocks, _ in blocks)
    # Every row is a window that starts before duration_s; only a block's
    # last row may be the window that crosses it.
    for clocks, advance in blocks:
        assert max(clocks) < env.duration_s
        assert all(c + advance < env.duration_s for c in clocks[:-1])


class TestRngStreams:
    def test_env_and_agent_streams_differ(self):
        env_rng, agent_rng = rng_streams(1)
        assert env_rng.random() != agent_rng.random()

    def test_reproducible(self):
        a = rng_streams(5, episode=2)[0].random(4)
        b = rng_streams(5, episode=2)[0].random(4)
        assert np.array_equal(a, b)

