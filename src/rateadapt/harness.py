"""Episode orchestration: training runs, evaluation runs and grid sweeps.

Every episode runs through one loop, `_play_episode`. Training adds a
per-transition `learn(s, a, r, s_next, done)` hook, built once per run,
that fills the replay buffer and trains (DQN) or updates the table
(tabular), and counts train steps on the agent, whose epsilon schedule
reads them. Training also writes a checkpoint every `checkpoint_every`
episodes and appends each episode's row to episodes.csv as it completes.
Evaluation runs without a hook, so the policy stays frozen; a frozen greedy
policy plays as the threshold table its checkpoint compiles to once.
Every agent decides each window with select_action, from the result of the
window before.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from .agents import (ConstantAgent, DaraAgent, IdealAgent, MinstrelLikeAgent,
                     TabularDaraAgent, ThresholdTable)
from .checkpoint import Checkpoint
from .config import ALGORITHMS, RootConfig, check_work_budget
from .dqn import EpsilonSchedule, bellman_targets, dqn_train_step
from .env import LOG_FIELDS, LinkSimEnv, rng_streams
from .errors import ConfigError
from .nn import AdamState, init_mlp
from .replay import ReplayBuffer
from .results import csv_writer, write_csv
from .tabular import QTable, q_update_tabular

SWEEP_FIELDS = ("learning_rate", "architecture", "seed", "final_cum_reward",
                "mean_last3_cum_reward", "error")


@dataclass
class EpisodeSummary:
    episode: int
    cum_reward: float
    mean_throughput_mbps: float
    train_steps: int


EPISODES_HEADER = tuple(f.name for f in fields(EpisodeSummary))


@dataclass(frozen=True)
class SweepConfig:
    """Cross-product grid of learning rates and hidden-layer architectures."""

    learning_rates: tuple
    architectures: tuple
    seeds: tuple


def trained_kind(algorithm: str) -> str:
    """The checkpoint kind a trainable algorithm writes; ConfigError if none."""
    if ALGORITHMS[algorithm] is None:
        raise ConfigError([f"algorithm {algorithm!r} is not trainable"])
    return ALGORITHMS[algorithm]


def grid_configs(sweep: SweepConfig, base: RootConfig):
    """Every sweep cell's (lr, arch, seed, config), in grid order; one
    ConfigError if the algorithm is not trainable, an episode is over the
    work budget (the cells share `sim` and `gym` with `base`) or the config
    rejects grid values, listing each distinct violation once."""
    trained_kind(base["agent"]["algorithm"])
    check_work_budget(base)
    cells, problems = [], []
    for lr, arch, seed in product(sweep.learning_rates, sweep.architectures,
                                  sweep.seeds):
        try:
            cells.append((lr, arch, seed, base.with_overrides(
                learning_rate=lr, hidden_layers=list(arch), seed=seed)))
        except ConfigError as exc:
            problems += [v for v in exc.violations if v not in problems]
    if problems:
        raise ConfigError(problems)
    return cells


def check_checkpoint_kind(algorithm: str, checkpoint: Checkpoint | None):
    """Raise ConfigError unless a trainable algorithm has a checkpoint of
    its own kind and any other algorithm has none."""
    kind = ALGORITHMS[algorithm]
    if kind is None and checkpoint is not None:
        raise ConfigError([f"algorithm {algorithm!r} takes no checkpoint"])
    if kind is not None and (checkpoint is None or checkpoint.kind != kind):
        raise ConfigError([f"algorithm {algorithm!r} needs a {kind} "
                           "checkpoint for evaluation"])


def build_eval_agent(cfg: RootConfig, checkpoint: Checkpoint | None,
                     agent_rng: np.random.Generator):
    """Adapter for one evaluation episode; a trainable algorithm's is its
    checkpoint's greedy policy, compiled to a ThresholdTable."""
    name = cfg["agent"]["algorithm"]
    check_checkpoint_kind(name, checkpoint)
    return BUILDERS[name][0](cfg, checkpoint, agent_rng)


def _dqn_learner(agent_cfg, schedule, agent_rng):
    """(DaraAgent over a fresh Q-network, its learn hook, its optimizer); the
    hook empties the buffer at episode end unless replay persists."""
    online = init_mlp(agent_cfg["hidden_layers"], agent_rng)
    target = online.copy()
    opt = AdamState.for_params(online, agent_cfg["learning_rate"])
    grads = online.like(np.empty_like(online.flat))  # every train step overwrites it
    agent = DaraAgent(online, schedule, agent_rng)
    buffer = ReplayBuffer(agent_cfg["replay_capacity"])
    warmup, train_every = agent_cfg["warmup"], agent_cfg["train_every"]
    env_steps = 0

    def learn(s, action, r, s_next, done):
        nonlocal target, env_steps
        buffer.push(s, action, r, s_next, done)
        env_steps += 1
        if buffer.size >= warmup and env_steps % train_every == 0:
            s_b, a_b, y_b = buffer.sample(agent_cfg["batch_size"], agent_rng, lambda *rows:
                                          bellman_targets(target, *rows, agent_cfg["discount"]))
            dqn_train_step(online, opt, s_b, a_b, y_b, grads)
            agent.train_step += 1
            if agent.train_step % agent_cfg["target_sync_every"] == 0:
                target = online.copy()
                buffer.mark_stale()
        if done and not agent_cfg["replay_persist_across_episodes"]:
            buffer.clear()

    return agent, learn, opt


def _tabular_learner(agent_cfg, schedule, agent_rng):
    """(TabularDaraAgent over a zero QTable, its learn hook, no optimizer)."""
    table = QTable(agent_cfg["n_state_bins"])
    agent = TabularDaraAgent(table, schedule, agent_rng)
    alpha, gamma = agent_cfg["learning_rate"], agent_cfg["discount"]

    def learn(s, action, r, s_next, done):
        q_update_tabular(table, s, action, r, s_next, alpha, gamma, done)
        agent.train_step += 1

    return agent, learn, None


def _greedy_table(cfg, ckpt, rng):
    """The checkpoint's greedy policy; only a dqn table has bands to read params."""
    return ThresholdTable("observation", *ckpt.greedy_steps, ckpt.params)


# Algorithm -> (eval-agent builder (cfg, checkpoint, agent_rng), learner builder
# or None), over config.ALGORITHMS's names in order; that table holds the kinds.
BUILDERS = {
    "dara": (_greedy_table, _dqn_learner),
    "dara_tabular": (_greedy_table, _tabular_learner),
    "ideal": (lambda cfg, ckpt, rng: IdealAgent(cfg.mcs_table(), cfg["agent"]["ideal_p_min"]),
              None),
    "minstrel_like": (lambda cfg, ckpt, rng: MinstrelLikeAgent(
        cfg.mcs_table(), rng, ewma_weight=cfg["agent"]["minstrel_ewma_weight"],
        probe_prob=cfg["agent"]["minstrel_probe_prob"]), None),
    "constant": (lambda cfg, ckpt, rng: ConstantAgent(cfg["agent"]["constant_mcs"]), None),
}


def _play_episode(env: LinkSimEnv, agent, seed: int, episode: int,
                  learn=None) -> float:
    """Run one episode from env.reset(seed, episode) to done, deciding each
    window from the result before it and none after the last, and passing
    each transition to `learn` if given; returns the cumulative reward,
    summed left to right."""
    result, total = env.reset(seed, episode=episode), 0.0
    while not result.done:
        action = agent.select_action(result)
        obs = result.observation
        result = env.step(action)
        total += result.reward
        if learn is not None:
            learn(obs, action, result.reward, result.observation, result.done)
    return total


def _episode_row(s: EpisodeSummary):
    """One episodes.csv row, for training and evaluation alike."""
    return (s.episode, f"{s.cum_reward:.6f}",
            f"{s.mean_throughput_mbps:.6f}", s.train_steps)


def _write_episode_log(log: np.ndarray, path: Path):
    write_csv(path, LOG_FIELDS,
              ([f"{v:.6f}" for v in row.tolist()] for row in log))


def run_training(cfg: RootConfig, results_dir, progress=None):
    """Train the configured learner; returns (summaries, final Checkpoint).

    Writes episodes.csv, per-episode throughput logs and checkpoints into
    `results_dir` as episodes complete; a diverged episode raises before its output.
    """
    agent_cfg = cfg["agent"]
    kind = trained_kind(name := agent_cfg["algorithm"])
    check_work_budget(cfg)

    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    env = LinkSimEnv(cfg)
    seed = agent_cfg["seed"]
    schedule = EpsilonSchedule(
        agent_cfg["epsilon_mode"], agent_cfg["epsilon_start"],
        agent_cfg["epsilon_end"], agent_cfg["epsilon_decay_steps"],
    )
    agent, learn, opt = BUILDERS[name][1](agent_cfg, schedule, rng_streams(seed)[1])
    fingerprint = cfg.fingerprint()

    def make_checkpoint():
        return Checkpoint(kind, agent.model, opt, agent.train_step, fingerprint)

    episodes = agent_cfg["episodes"]
    summaries = []
    with open(results_dir / "episodes.csv", "w", encoding="utf-8",
              newline="") as f:
        writer = csv_writer(f)
        writer.writerow(EPISODES_HEADER)
        for ep in range(1, episodes + 1):
            reward = _play_episode(env, agent, seed, ep, learn)
            ckpt_io.require_finite(make_checkpoint().arrays,
                                   f"{results_dir}: diverged in episode {ep}")
            summary = EpisodeSummary(ep, reward, env.mean_throughput_mbps,
                                     agent.train_step)
            summaries.append(summary)
            writer.writerow(_episode_row(summary))
            f.flush()
            _write_episode_log(env.throughput_log(),
                               results_dir / f"throughput_{ep:03d}.csv")
            if ep % agent_cfg["checkpoint_every"] == 0 or ep == episodes:
                ckpt_io.save(results_dir / f"policy_ep{ep:03d}.ckpt",
                             make_checkpoint())
            if progress is not None:
                progress(f"episode {ep}/{episodes}: "
                         f"cum_reward={summary.cum_reward:.3f} "
                         f"mean_throughput={summary.mean_throughput_mbps:.3f} Mbit/s "
                         f"train_steps={summary.train_steps}")

    return summaries, make_checkpoint()


def run_evaluation(cfg: RootConfig, checkpoint: Checkpoint | None,
                   results_dir=None, seed: int | None = None):
    """One frozen-policy episode; returns (EpisodeSummary, throughput log
    array in LOG_FIELDS column order)."""
    check_work_budget(cfg)
    if seed is None:
        seed = cfg["agent"]["seed"]
    env = LinkSimEnv(cfg)
    agent = build_eval_agent(cfg, checkpoint, rng_streams(seed)[1])
    reward = _play_episode(env, agent, seed, 0)
    summary = EpisodeSummary(1, reward, env.mean_throughput_mbps, 0)
    log = env.throughput_log()
    if results_dir is not None:
        results_dir = Path(results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        _write_episode_log(log, results_dir / "throughput_eval.csv")
        write_csv(results_dir / "episodes.csv", EPISODES_HEADER,
                  [_episode_row(summary)])
    return summary, log


def run_sweep(sweep: SweepConfig, base: RootConfig, results_dir,
              progress=None):
    """One training run per (learning rate, architecture, seed) cell.

    A grid the config rejects raises ConfigError before anything is written.
    A cell that fails while it trains is recorded with empty metrics and the
    sweep continues. Returns the summary rows in grid order; each also holds
    the cell's EpisodeSummary list under "summaries", or None if it failed.
    """
    cells = grid_configs(sweep, base)
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (lr, arch, seed, cfg) in enumerate(cells):
        arch_name = "x".join(map(str, arch))
        row = dict.fromkeys(SWEEP_FIELDS, "")
        row.update(learning_rate=lr, architecture=arch_name, seed=seed, summaries=None)
        try:
            row["summaries"], _ = run_training(
                cfg, results_dir / f"cell_{i:03d}_lr{lr}_arch{arch_name}_seed{seed}")
            finals = [s.cum_reward for s in row["summaries"]]
            row["final_cum_reward"] = f"{finals[-1]:.6f}"
            row["mean_last3_cum_reward"] = f"{float(np.mean(finals[-3:])):.6f}"
        except Exception as exc:  # noqa: BLE001 - sweep must survive bad cells
            row["error"] = str(exc)
        rows.append(row)
        if progress is not None:
            progress(f"cell lr={lr} arch={row['architecture']} seed={seed}: "
                     f"final={row['final_cum_reward'] or 'FAILED'}")

    write_csv(results_dir / "sweep_summary.csv", SWEEP_FIELDS,
              ([row[k] for k in SWEEP_FIELDS] for row in rows))
    return rows
