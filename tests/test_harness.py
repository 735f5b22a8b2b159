import csv
import hashlib
import json

import numpy as np
import pytest

from rateadapt import checkpoint as ckpt_io
from rateadapt.config import default_config, validate_config
from rateadapt.env import LinkSimEnv
from rateadapt.errors import ConfigError
from rateadapt.harness import (SweepConfig, run_evaluation, run_sweep,
                               run_training)
from rateadapt.nn import mlp_forward


def tiny_config(**agent_overrides):
    """Short episodes so harness tests stay fast."""
    base = json.loads(default_config().to_json())
    base["sim"]["duration_s"] = 2.0
    base["agent"]["episodes"] = 2
    base["agent"]["checkpoint_every"] = 1
    base["agent"].update(agent_overrides)
    return validate_config(json.dumps(base))


def diverging_base():
    """One episode that trains after every transition from the 8th on, so a
    huge learning rate diverges within it."""
    return tiny_config(episodes=1, warmup=8, batch_size=8, train_every=1)


def params_digest(params):
    h = hashlib.sha256()
    for a in params.weights + params.biases:
        h.update(a.tobytes())
    return h.hexdigest()


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


@pytest.mark.parametrize("algorithm,run", [
    ("dara", lambda cfg, out: run_training(cfg, out)),
    ("constant", lambda cfg, out: run_evaluation(cfg, None, out)),
], ids=["run_training", "run_evaluation"])
def test_episode_over_the_work_budget_refused_before_any_output(tmp_path, algorithm,
                                                                run):
    data = json.loads(tiny_config(algorithm=algorithm, constant_mcs=7).to_json())
    data["sim"].update(duration_s=1e9, log_period_s=1e3)
    with pytest.raises(ConfigError, match="sim.duration_s too long"):
        run(validate_config(json.dumps(data)), tmp_path / "out")
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
        before = params_digest(ckpt.params)
        run_evaluation(cfg, ckpt, seed=9)
        assert params_digest(ckpt.params) == before

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

    def test_cumulative_reward_matches_replayed_rewards(self, tmp_path):
        # independent recomputation: drive the env with the same frozen
        # policy and seed, summing rewards by hand, left to right (sum() of
        # floats is compensated from Python 3.12 on, so it is not used)
        cfg = tiny_config(episodes=1)
        _, ckpt = run_training(cfg, tmp_path)
        summary, _ = run_evaluation(cfg, ckpt, seed=3)

        env = LinkSimEnv(cfg)
        res = env.reset(3)
        total = 0.0
        while not res.done:
            action = int(np.argmax(mlp_forward(ckpt.params, res.observation)))
            res = env.step(action)
            total += res.reward
        assert summary.cum_reward == total


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
