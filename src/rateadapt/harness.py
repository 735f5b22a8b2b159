"""Episode orchestration: training runs, evaluation runs and grid sweeps.

Training fills the replay buffer as the simulation runs, trains every
`train_every` environment steps once `warmup` transitions are stored, writes
a checkpoint every `checkpoint_every` episodes and appends one summary row
per episode to episodes.csv as it completes (live feedback while a run is in
progress). Evaluation freezes the policy, sets epsilon to 0 and never writes
to the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from .agents import (ConstantAgent, DaraAgent, IdealAgent, MinstrelLikeAgent,
                     TabularDaraAgent)
from .checkpoint import Checkpoint
from .config import RootConfig
from .dqn import EpsilonSchedule, dqn_train_step
from .env import LinkSimEnv, rng_streams
from .errors import ConfigError
from .nn import AdamState, init_mlp
from .replay import ReplayBuffer
from .tabular import QTable, q_update_tabular


@dataclass
class EpisodeSummary:
    episode: int
    cumulative_reward: float
    mean_throughput_mbps: float
    train_steps: int


@dataclass(frozen=True)
class SweepConfig:
    """Cross-product grid of learning rates and hidden-layer architectures."""

    learning_rates: tuple
    architectures: tuple
    seeds: tuple

    def __post_init__(self):
        if not self.learning_rates or not self.architectures or not self.seeds:
            raise ConfigError(["sweep grid must be non-empty"])


def cumulative_reward(step_rewards) -> float:
    """Sum of the per-step rewards of one episode."""
    return float(sum(step_rewards))


def build_env(cfg: RootConfig) -> LinkSimEnv:
    gym = cfg["gym"]
    return LinkSimEnv(
        channel=cfg.channel_params(),
        table=cfg.mcs_table(),
        mobility=cfg.mobility(),
        traffic=cfg.traffic(),
        episode=cfg.episode_config(),
        snr_lo_db=gym["snr_lo_db"],
        snr_hi_db=gym["snr_hi_db"],
    )


def build_eval_agent(cfg: RootConfig, checkpoint: Checkpoint | None,
                     agent_rng: np.random.Generator):
    """Adapter for one evaluation episode; DARA variants need a checkpoint."""
    agent = cfg["agent"]
    name = agent["algorithm"]
    if name == "dara":
        if checkpoint is None or checkpoint.kind != "dqn":
            raise ConfigError(["algorithm 'dara' needs a dqn checkpoint for evaluation"])
        return DaraAgent(checkpoint.params, mode="evaluation")
    if name == "dara_tabular":
        if checkpoint is None or checkpoint.kind != "tabular":
            raise ConfigError(
                ["algorithm 'dara_tabular' needs a tabular checkpoint for evaluation"]
            )
        return TabularDaraAgent(checkpoint.params, mode="evaluation")
    if name == "ideal":
        return IdealAgent(cfg.mcs_table(), agent["ideal_p_min"])
    if name == "minstrel_like":
        return MinstrelLikeAgent(
            cfg.mcs_table(), agent_rng,
            ewma_weight=agent["minstrel_ewma_weight"],
            probe_prob=agent["minstrel_probe_prob"],
        )
    if name == "constant":
        return ConstantAgent(agent["constant_mcs"])
    raise ConfigError([f"unknown algorithm {name!r}"])


def _write_episode_log(log, path: Path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("time_s,tx_pos_m,rx_pos_m,throughput_mbps\n")
        for rec in log.records:
            f.write("{time_s:.6f},{tx_pos_m:.6f},{rx_pos_m:.6f},"
                    "{throughput_mbps:.6f}\n".format(**rec))


def run_training(cfg: RootConfig, results_dir, progress=None):
    """Train the configured learner; returns (summaries, final Checkpoint).

    Writes episodes.csv, per-episode throughput logs and checkpoints into
    `results_dir` as episodes complete.
    """
    agent_cfg = cfg["agent"]
    algorithm = agent_cfg["algorithm"]
    if algorithm not in ("dara", "dara_tabular"):
        raise ConfigError([f"algorithm {algorithm!r} is not trainable"])

    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    env = build_env(cfg)
    seed = agent_cfg["seed"]
    agent_rng = rng_streams(seed)[1]
    schedule = EpsilonSchedule(
        agent_cfg["epsilon_mode"], agent_cfg["epsilon_start"],
        agent_cfg["epsilon_end"], agent_cfg["epsilon_decay_steps"],
    )
    gamma = agent_cfg["discount"]
    fingerprint = cfg.fingerprint()

    if algorithm == "dara":
        online = init_mlp(agent_cfg["hidden_layers"], agent_rng)
        target = online.copy()
        opt = AdamState.for_params(online, agent_cfg["learning_rate"])
        agent = DaraAgent(online, mode="training", schedule=schedule, rng=agent_rng)
        buffer = ReplayBuffer(agent_cfg["replay_capacity"])
    else:
        qtable = QTable(agent_cfg["n_state_bins"])
        agent = TabularDaraAgent(qtable, mode="training", schedule=schedule,
                                 rng=agent_rng)
        buffer = None

    def make_checkpoint():
        if algorithm == "dara":
            return Checkpoint("dqn", online, opt, train_steps, fingerprint)
        return Checkpoint("tabular", qtable, None, train_steps, fingerprint)

    train_steps = 0
    env_steps = 0
    summaries = []
    episodes_csv = results_dir / "episodes.csv"
    with open(episodes_csv, "w", encoding="utf-8", newline="\n") as csv:
        csv.write("episode,cum_reward,mean_throughput_mbps,train_steps\n")
        for ep in range(1, agent_cfg["episodes"] + 1):
            if buffer is not None and not agent_cfg["replay_persist_across_episodes"]:
                buffer.clear()
            result = env.reset(seed, episode=ep)
            agent.observe(result)
            rewards = []
            while not result.done:
                obs = result.observation
                agent.train_step = train_steps
                action = agent.select_action()
                result = env.step(action)
                agent.observe(result)
                rewards.append(result.reward)
                env_steps += 1
                if algorithm == "dara":
                    buffer.push(obs, action, result.reward, result.observation,
                                result.done)
                    if (buffer.size >= agent_cfg["warmup"]
                            and env_steps % agent_cfg["train_every"] == 0):
                        batch = buffer.sample(agent_cfg["batch_size"], agent_rng)
                        dqn_train_step(online, target, opt, batch, gamma)
                        train_steps += 1
                        if train_steps % agent_cfg["target_sync_every"] == 0:
                            target = online.copy()
                else:
                    q_update_tabular(qtable, obs, action, result.reward,
                                     result.observation, agent_cfg["learning_rate"],
                                     gamma, result.done)
                    train_steps += 1

            summary = EpisodeSummary(ep, cumulative_reward(rewards),
                                     env.mean_throughput_mbps, train_steps)
            summaries.append(summary)
            csv.write(f"{ep},{summary.cumulative_reward:.6f},"
                      f"{summary.mean_throughput_mbps:.6f},{train_steps}\n")
            csv.flush()
            _write_episode_log(env.log, results_dir / f"throughput_{ep:03d}.csv")
            if ep % agent_cfg["checkpoint_every"] == 0 or ep == agent_cfg["episodes"]:
                ckpt_io.save(results_dir / f"policy_ep{ep:03d}.ckpt",
                             make_checkpoint())
            if progress is not None:
                progress(f"episode {ep}/{agent_cfg['episodes']}: "
                         f"cum_reward={summary.cumulative_reward:.3f} "
                         f"mean_throughput={summary.mean_throughput_mbps:.3f} Mbit/s "
                         f"train_steps={train_steps}")

    return summaries, make_checkpoint()


def run_evaluation(cfg: RootConfig, checkpoint: Checkpoint | None,
                   results_dir=None, seed: int | None = None):
    """One frozen-policy episode; returns (EpisodeSummary, EpisodeLog)."""
    if seed is None:
        seed = cfg["agent"]["seed"]
    env = build_env(cfg)
    agent_rng = rng_streams(seed)[1]
    agent = build_eval_agent(cfg, checkpoint, agent_rng)

    result = env.reset(seed)
    agent.observe(result)
    rewards = []
    while not result.done:
        action = agent.select_action()
        result = env.step(action)
        agent.observe(result)
        rewards.append(result.reward)

    summary = EpisodeSummary(1, cumulative_reward(rewards),
                             env.mean_throughput_mbps, 0)
    if results_dir is not None:
        results_dir = Path(results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        _write_episode_log(env.log, results_dir / "throughput_eval.csv")
        with open(results_dir / "episodes.csv", "w", encoding="utf-8",
                  newline="\n") as f:
            f.write("episode,cum_reward,mean_throughput_mbps,train_steps\n")
            f.write(f"1,{summary.cumulative_reward:.6f},"
                    f"{summary.mean_throughput_mbps:.6f},0\n")
    return summary, env.log


def run_sweep(sweep: SweepConfig, base: RootConfig, results_dir,
              progress=None):
    """One training run per (learning rate, architecture, seed) cell.

    Failed cells are recorded in the summary with empty metrics and the
    sweep continues. Returns the summary rows; the winner is the row with
    the highest final-episode cumulative reward.
    """
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (lr, arch, seed) in enumerate(
        product(sweep.learning_rates, sweep.architectures, sweep.seeds)
    ):
        cell_dir = results_dir / f"cell_{i:03d}_lr{lr}_arch{'x'.join(map(str, arch))}_seed{seed}"
        row = {"learning_rate": lr, "architecture": "x".join(map(str, arch)),
               "seed": seed, "final_cum_reward": "", "mean_last3_cum_reward": "",
               "error": ""}
        try:
            cfg = base.with_overrides(learning_rate=lr,
                                      hidden_layers=list(arch), seed=seed)
            summaries, _ = run_training(cfg, cell_dir, progress=None)
            finals = [s.cumulative_reward for s in summaries]
            row["final_cum_reward"] = f"{finals[-1]:.6f}"
            row["mean_last3_cum_reward"] = f"{float(np.mean(finals[-3:])):.6f}"
        except Exception as exc:  # noqa: BLE001 - sweep must survive bad cells
            row["error"] = str(exc).replace(",", ";")
        rows.append(row)
        if progress is not None:
            progress(f"cell lr={lr} arch={row['architecture']} seed={seed}: "
                     f"final={row['final_cum_reward'] or 'FAILED'}")

    with open(results_dir / "sweep_summary.csv", "w", encoding="utf-8",
              newline="\n") as f:
        f.write("learning_rate,architecture,seed,final_cum_reward,"
                "mean_last3_cum_reward,error\n")
        for row in rows:
            f.write("{learning_rate},{architecture},{seed},{final_cum_reward},"
                    "{mean_last3_cum_reward},{error}\n".format(**row))
    return rows
