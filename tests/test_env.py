import json

import numpy as np
import pytest

from rateadapt import phy
from rateadapt.config import default_config, validate_config
from rateadapt.env import LinkSimEnv, dara_reward, rng_streams
from rateadapt.errors import EpisodeEndedError

TABLE = default_config().mcs_table()
CHANNEL = default_config().channel_params()


def make_env(start=1.0, speed=20.0, duration=60.0, window=50, log_period=1.0,
             overhead=100e-6):
    data = json.loads(default_config().to_json())
    data["sim"].update(start_distance_m=start, speed_mps=speed, duration_s=duration,
                       log_period_s=log_period, overhead_s=overhead)
    data["gym"]["window_frames"] = window
    return LinkSimEnv(validate_config(json.dumps(data)))


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
    def test_max(self):
        assert dara_reward(1.0, 7, TABLE) == 1.0

    def test_zero_fsr(self):
        assert all(dara_reward(0.0, m, TABLE) == 0.0 for m in range(phy.N_MCS))

    def test_mcs3(self):
        assert dara_reward(0.9, 3, TABLE) == pytest.approx(0.9 * 26 / 65)

    def test_monotone_in_fsr_and_mcs(self):
        for m in range(phy.N_MCS):
            rewards = [dara_reward(f, m, TABLE) for f in np.linspace(0, 1, 11)]
            assert all(b >= a for a, b in zip(rewards, rewards[1:]))
        at_fixed_fsr = [dara_reward(0.7, m, TABLE) for m in range(phy.N_MCS)]
        assert all(b > a for a, b in zip(at_fixed_fsr, at_fixed_fsr[1:]))


class TestReset:
    def test_basics(self):
        env = make_env()
        res = env.reset(seed=7)
        assert res.done is False
        assert res.reward == 0.0
        assert env.clock == 0.0
        assert res.info.keys() == {"fsr", "raw_snr_db"}

    def test_default_observation_saturates(self):
        res = make_env().reset(seed=7)
        assert res.info["raw_snr_db"] == pytest.approx(67.26, abs=0.05)
        assert res.observation == 1.0

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
        assert res.info["fsr"] == 1.0
        assert env.mean_throughput_mbps == pytest.approx(41.13, abs=0.1)

    def test_all_failure_window(self):
        env = make_env(start=5000.0, speed=0.0)  # SNR ~ -6.7 dB
        env.reset(seed=1)
        res = env.step(7)
        assert res.info["fsr"] == 0.0
        assert res.reward == 0.0
        assert env.total_bits == 0.0

    def test_binomial_statistics(self):
        # Distance fixed at the MCS 3 midpoint: p = 0.5 per frame.
        d = 10 ** ((CHANNEL.tx_power_dbm
                    - phy.noise_power_dbm(CHANNEL)
                    - TABLE.midpoints_db[3]
                    - 20 * np.log10(4 * np.pi * CHANNEL.frequency_hz
                                    / phy.SPEED_OF_LIGHT)) / 20)
        env = make_env(start=d, speed=0.0, duration=1e9, window=50, log_period=1e9)
        env.reset(seed=3)
        p = phy.frame_success_prob(phy.snr_db(d, CHANNEL), TABLE.slopes_per_db[3],
                                   TABLE.midpoints_db[3])
        assert p == pytest.approx(0.5, abs=1e-6)
        counts = [env.step(3).info["fsr"] * 50 for _ in range(400)]
        mean = np.mean(counts)
        sigma = np.sqrt(50 * p * (1 - p) / len(counts))
        assert abs(mean - 50 * p) < 6 * sigma

    def test_step_after_done_raises(self):
        env = make_env(duration=0.01)
        env.reset(seed=1)
        res = env.step(7)
        assert res.done
        with pytest.raises(EpisodeEndedError):
            env.step(7)

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
            bits_before = env.total_bits
            res = env.step(a)
            count = res.info["fsr"] * 50
            assert count == pytest.approx(round(count), abs=1e-9)
            window_mbps = (env.total_bits - bits_before) / (50 * env.airtime_s[a]) / 1e6
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

    def test_raw_snr_is_snr_at_window_end(self):
        env = make_env(duration=5.0)
        env.reset(seed=6)
        rng = np.random.default_rng(1)
        while not env.done:
            res = env.step(int(rng.integers(0, 8)))
            assert res.info["raw_snr_db"] == phy.snr_db(env.position_at(env.clock),
                                                       CHANNEL)

    def test_empty_window_carries_observation_forward(self):
        env = make_env(start=5000.0, speed=0.0)
        first = env.reset(seed=1)
        res = env.step(7)  # zero successes at -6.7 dB
        assert res.observation == first.observation

    def test_determinism_full_episode(self):
        def run():
            env = make_env(duration=5.0)
            res = env.reset(seed=42)
            seq = [res]
            while not res.done:
                res = env.step(4)
                seq.append(res)
            return seq, env.log.records

        seq_a, log_a = run()
        seq_b, log_b = run()
        assert seq_a == seq_b
        assert log_a == log_b


class TestEpisodeLog:
    def test_record_count_60s_1s(self):
        env = make_env(duration=60.0, log_period=1.0)
        env.reset(seed=1)
        while not env.done:
            env.step(5)
        assert len(env.log.records) == 60

    def test_timestamps_strictly_increasing(self):
        env = make_env(duration=12.0, log_period=0.5)
        env.reset(seed=1)
        while not env.done:
            env.step(1)
        times = [r["time_s"] for r in env.log.records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_zero_throughput_period_recorded(self):
        env = make_env(start=5000.0, speed=0.0, duration=2.0)
        env.reset(seed=1)
        while not env.done:
            env.step(0)
        assert env.log.records
        assert all(r["throughput_mbps"] == 0.0 for r in env.log.records)

    def test_positions_from_mobility(self):
        env = make_env(start=2.0, speed=10.0, duration=5.0)
        env.reset(seed=1)
        while not env.done:
            env.step(6)
        for rec in env.log.records:
            assert rec["tx_pos_m"] == 0.0
            assert rec["rx_pos_m"] == pytest.approx(2.0 + 10.0 * rec["time_s"])


class TestRngStreams:
    def test_env_and_agent_streams_differ(self):
        env_rng, agent_rng = rng_streams(1)
        assert env_rng.random() != agent_rng.random()

    def test_reproducible(self):
        a = rng_streams(5, episode=2)[0].random(4)
        b = rng_streams(5, episode=2)[0].random(4)
        assert np.array_equal(a, b)

