"""The plainest form of each computation the tests compare a fast path
against, and the helpers the test modules share.

Each reference runs one window, one layer or one transition at a time with
the float expressions README's Determinism section names, so a fast path
that keeps those expressions equals it bit for bit. tests/test_harness.py's
equivalence matrix plays every algorithm through the real harness against
these references; a speed change adds a matrix case, not a reference.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import rateadapt
from rateadapt import checkpoint as ckpt_io, phy
from rateadapt.config import default_config, validate_config
from rateadapt.env import LinkSimEnv, StepResult, rng_streams
from rateadapt.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MlpParams,
                          mlp_backward, mlp_forward)
from rateadapt.tabular import QTable, q_update_tabular

TABLE = default_config().mcs_table()
CHANNEL = default_config().channel_params()
RATES = list(phy.DEFAULT_PHY_RATES_MBPS)


# -- configs and links --------------------------------------------------------

def tiny_data(sim=(), gym=(), **agent):
    """The default config's dict with two 2 s episodes and a checkpoint
    after each, so harness and CLI tests stay fast, then the given `sim`,
    `gym` and agent values; not validated."""
    data = json.loads(default_config().to_json())
    data["sim"].update({"duration_s": 2.0, **dict(sim)})
    data["gym"].update(gym)
    data["agent"].update({"episodes": 2, "checkpoint_every": 1, **agent})
    return data


def tiny_config(sim=(), gym=(), **agent):
    return validate_config(json.dumps(tiny_data(sim, gym, **agent)))


def make_env(start=1.0, speed=20.0, duration=60.0, window=50, log_period=1.0,
             overhead=100e-6):
    return LinkSimEnv(tiny_config(
        sim={"start_distance_m": start, "speed_mps": speed, "duration_s": duration,
             "log_period_s": log_period, "overhead_s": overhead},
        gym={"window_frames": window}))


def distance_at_snr(snr_db):
    """The distance at which the link's SNR is `snr_db` (Friis inverted)."""
    return 10 ** ((CHANNEL.tx_power_dbm
                   - CHANNEL.noise_power_dbm
                   - snr_db
                   - 20 * np.log10(4 * np.pi * CHANNEL.frequency_hz
                                   / phy.SPEED_OF_LIGHT)) / 20)


# (start distance, metres travelled in the episode): a receding link whose
# SNR falls from 30 dB, so windows mix ACKed and lost frames, one where no
# frame ever succeeds and one where every frame does.
LINKS = [pytest.param(distance_at_snr(30.0), 200.0, id="sweeping"),
         pytest.param(5000.0, 0.0, id="all_failure"),
         pytest.param(1.0, 0.0, id="all_success")]


def runs_of_actions(rng, n):
    """n actions in runs of one MCS, each 1-300 windows long (log-uniform,
    so short runs and MCS changes are common)."""
    actions = []
    while len(actions) < n:
        actions += [int(rng.integers(0, phy.N_MCS))] * int(301 ** rng.random())
    return actions[:n]


# Values the library cannot run with. The config is the only layer that
# checks them, so each one must fail validation with a violation naming the
# first key of its row, and the CLI must exit 1 on it.
REJECTED = [
    {"sim.frequency_mhz": 0.0},
    {"sim.bandwidth_mhz": 0.0},
    {"sim.noise_figure_db": -0.1},
    pytest.param({"sim.per_slopes_per_db": [1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]},
                 id="sim.per_slopes_per_db=zero_slope"),
    pytest.param({"sim.phy_rates_mbps": RATES[:7]},
                 id="sim.phy_rates_mbps=seven_rates"),
    pytest.param({"sim.phy_rates_mbps": [6.5, 13.0, 12.0, *RATES[3:]]},
                 id="sim.phy_rates_mbps=non_increasing"),
    pytest.param({"sim.per_midpoints_db": [5.0, 8.0, 11.0, 11.0, 18.0, 21.0, 24.0, 26.0]},
                 id="sim.per_midpoints_db=non_increasing"),
    {"sim.start_distance_m": 0.01},
    {"sim.start_distance_m": float("nan")},
    {"sim.start_distance_m": float("inf")},
    {"sim.speed_mps": -1.0},
    {"sim.payload_bytes": 0},
    {"sim.overhead_s": -1e-6},
    {"sim.duration_s": 0.0},
    {"sim.log_period_s": 0.0},
    # one log record per period, so this would ask for ~1e300 records
    {"sim.log_period_s": 1e-300},
    {"gym.window_frames": 0},
    # one past each size cap
    {"gym.window_frames": 100_001},
    {"agent.n_state_bins": 100_001},
    pytest.param({"agent.hidden_layers": [16] * 9}, id="agent.hidden_layers=nine_layers"),
    pytest.param({"agent.hidden_layers": [16, 1025]}, id="agent.hidden_layers=width_1025"),
    # about 7 PiB of floats each: refused before anything is allocated
    pytest.param({"gym.window_frames": 10**15}, id="gym.window_frames=10**15"),
    pytest.param({"agent.hidden_layers": [10**15]}, id="agent.hidden_layers=[10**15]"),
    {"gym.snr_lo_db": 40.0},
    {"gym.snr_hi_db": -1.0},
    {"agent.epsilon_mode": "exponential"},
    {"agent.epsilon_start": 1.1},
    {"agent.epsilon_end": -0.1},
    {"agent.epsilon_decay_steps": 0},
    {"agent.n_state_bins": 0},
    pytest.param({"agent.learning_rate": 1.5, "agent.algorithm": "dara_tabular"},
                 id="agent.learning_rate=1.5_tabular"),
    {"agent.discount": -0.1},
    {"agent.ideal_p_min": 0.0},
    {"agent.ideal_p_min": 1.0},
    {"agent.minstrel_probe_prob": 1.5},
    {"agent.minstrel_ewma_weight": -0.1},
    {"agent.constant_mcs": 8},
    {"agent.replay_capacity": 0},
    # the replay's ring arithmetic would overflow a C long
    {"agent.replay_capacity": 2**63},
    {"agent.seed": -1},
    # a rate beyond float range gives a frame airtime of exactly 0 s, and a
    # tiny one stops the clock once clock + window == clock in float64
    pytest.param({"sim.overhead_s": 0, "sim.phy_rates_mbps": [*RATES[:7], 1e303]},
                 id="sim.overhead_s=0_zero_airtime"),
    pytest.param({"sim.overhead_s": 0, "sim.phy_rates_mbps": [*RATES[:7], 1e290]},
                 id="sim.overhead_s=0_clock_stalls"),
    # integers that no float can hold
    pytest.param({"sim.speed_mps": 10**400}, id="sim.speed_mps=10**400"),
    pytest.param({"sim.duration_s": 10**400}, id="sim.duration_s=10**400"),
    pytest.param({"sim.tx_power_dbm": -10**400}, id="sim.tx_power_dbm=-10**400"),
    pytest.param({"agent.seed": 10**400}, id="agent.seed=10**400"),
    # the receiver would recede so far that the path loss overflows to inf
    pytest.param({"sim.phy_rates_mbps": [1e-305, *RATES[1:]]},
                 id="sim.phy_rates_mbps=1e-305_first_rate"),
    {"sim.speed_mps": 1e306},
    # a window's sum of ACK SNRs would overflow to inf
    {"sim.tx_power_dbm": 1e308},
    {"sim.tx_power_dbm": -1e308},
    # every airtime overflows the farthest distance, and a subnormal
    # frequency the path loss at the start; the messages name these keys
    {"sim.overhead_s": 1.7e308},
    {"sim.frequency_mhz": 5e-324},
]


def row_id(overrides):
    key, value = next(iter(overrides.items()))
    return f"{key}={value}"


def apply_overrides(data, overrides):
    """Set each dotted `section.key` of `overrides` in the config dict."""
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        data[section][key] = value
    return data


def with_header(raw: bytes, edit) -> bytes:
    """`raw` with its JSON header passed through `edit`, which changes it
    in place; the array bytes stay as they are."""
    start = len(ckpt_io.MAGIC)
    nl = raw.index(b"\n", start)
    header = json.loads(raw[start:nl])
    edit(header)
    return raw[:start] + json.dumps(header).encode() + raw[nl:]


def subprocess_env():
    """The environment for a child Python that imports this package."""
    src = str(Path(rateadapt.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


# -- the link, one window at a time -------------------------------------------

def snr_db_reference(distance_m, params):
    """The scalar math.log10 formula snr_db evaluated before it took arrays."""
    friis = 20.0 * math.log10(4.0 * math.pi * distance_m * params.frequency_hz
                              / phy.SPEED_OF_LIGHT)
    noise = -174.0 + 10.0 * math.log10(params.bandwidth_hz) + params.noise_figure_db
    return params.tx_power_dbm - friis - noise


def dara_reward(fsr, mcs, table):
    """The DARA reward: FSR times the chosen rate over the top rate, in [0, 1]."""
    return fsr * float(table.rates_mbps[mcs]) / table.max_rate_mbps


class ReferenceLink:
    """The link of `env`, reset and stepped with the plain per-window
    expressions: ACK times clock + dt * (1..w), the SNR at each receiver
    position, the episode stream's next w uniforms, and np.mean over the
    acknowledged frames' SNRs. The clock may be set between windows."""

    def __init__(self, env: LinkSimEnv):
        self.env = env

    def _window(self, dt, mcs):
        """The window's SNRs and success mask at MCS `mcs` from the clock."""
        env, w = self.env, self.env.window_frames
        snrs = phy.snr_db(env.position_at(self.clock + dt * np.arange(1, w + 1)),
                          env.channel)
        p = phy.frame_success_prob(snrs, env.table.slopes_per_db[mcs],
                                   env.table.midpoints_db[mcs])
        return snrs, self.rng.random(w) < p

    def reset(self, seed, episode=0) -> StepResult:
        """The probe window: MCS 0 with every frame ACKed at t=0."""
        self.rng = rng_streams(seed, episode)[0]
        self.clock, self.ends, self.bits = 0.0, [], []
        snrs, ok = self._window(0.0, 0)
        self.observation = phy.scale_snr(snrs[-1], self.env.snr_lo_db, self.env.snr_hi_db)
        fsr = int(np.count_nonzero(ok)) / self.env.window_frames
        return StepResult(self.observation, 0.0, False, fsr, snrs[-1])

    def step(self, mcs) -> StepResult:
        env, w = self.env, self.env.window_frames
        dt = float(env.airtime_s[mcs])
        snrs, ok = self._window(dt, mcs)
        n_ok = int(np.count_nonzero(ok))
        if n_ok > 0:  # with no ACKs to measure, the last observation stands
            self.observation = phy.scale_snr(float(np.mean(snrs[ok])),
                                             env.snr_lo_db, env.snr_hi_db)
        self.clock += w * dt
        self.ends.append(self.clock)
        self.bits.append(n_ok * env.payload_bits)
        fsr = n_ok / w
        return StepResult(self.observation, dara_reward(fsr, mcs, env.table),
                          self.clock >= env.duration_s, fsr, snrs[-1])

    def log(self):
        return reference_log(self.env, self.ends, self.bits)


def reference_episode(env, seed, actions, set_clock=None):
    """ReferenceLink's reset(seed) and one step per action; `set_clock` maps
    an action's index to the clock set before it. Returns the results and
    the clock after each."""
    link = ReferenceLink(env)
    results, clocks = [link.reset(seed)], [0.0]
    for i, a in enumerate(actions):
        link.clock = (set_clock or {}).get(i, link.clock)
        results.append(link.step(a))
        clocks.append(link.clock)
    return results, clocks


def reference_log(env, ends, bits):
    """The log accumulated one window at a time: after each window, every
    tick before duration_s that the window reached gets the bits gathered
    since the previous record; the episode end gets the rest."""
    records, pending, next_tick = [], 0.0, env.log_period_s

    def emit(now):
        nonlocal pending
        period = now - (records[-1][0] if records else 0.0)
        thpt = pending / period / 1e6 if period > 0 else 0.0
        records.append((now, 0.0, env.position_at(now), thpt))
        pending = 0.0

    for end, b in zip(ends, bits):
        pending += b
        while next_tick <= end and next_tick < env.duration_s:
            emit(next_tick)
            next_tick += env.log_period_s
    if ends[-1] > (records[-1][0] if records else 0.0):
        emit(ends[-1])
    return np.array(records)


# -- the Ideal rule -----------------------------------------------------------

def reference_ideal(snr, p_min, table=TABLE):
    """The per-window Ideal rule: one call over the 8 MCS entries at `snr`."""
    p = phy.frame_success_prob(snr, table.slopes_per_db, table.midpoints_db)
    feasible = np.flatnonzero(p >= p_min)
    return int(feasible[-1]) if feasible.size else 0


def ideal_mismatches(agent, p_min, table=TABLE, snrs=()):
    """The raw SNRs at which an IdealAgent decides otherwise than
    reference_ideal, among `snrs` and each finite threshold and the floats
    one ulp either side of it."""
    edges = [np.nextafter(t, to) for t in agent.thresholds if math.isfinite(t)
             for to in (-np.inf, t, np.inf)]
    return [s for s in [*edges, *snrs] if reference_ideal(s, p_min, table) != (
        agent.select_action(StepResult(0.0, 0.0, False, 0.0, float(s))))]


def crossings(p_min):
    """Each MCS's p_min crossing, the least raw SNR at which its success
    probability is at least p_min (bisection over floats), preceded by the
    float one ulp below and followed by the one above: 3 per MCS."""
    snrs = []
    for slope, mid in zip(TABLE.slopes_per_db, TABLE.midpoints_db):
        below, at = mid - 100.0, mid + 100.0
        while (half := (below + at) / 2) not in (below, at):
            if phy.frame_success_prob(half, slope, mid) >= p_min:
                at = half
            else:
                below = half
        snrs += [below, at, np.nextafter(at, np.inf)]
    return np.array(snrs)


# -- the network, one layer at a time -----------------------------------------

def random_net(hidden, rng):
    """Fully random network (including output layer) for gradient checks."""
    sizes = [1, *hidden, 8]
    return MlpParams(
        [rng.normal(size=(a, b)) * 0.7 for a, b in zip(sizes, sizes[1:])],
        [rng.normal(size=b) * 0.1 for b in sizes[1:]],
    )


def grad_buffer(params):
    """An uninitialized gradient laid out like params."""
    return params.like(np.empty_like(params.flat))


def backward(params, observations, actions, targets):
    """(gradient, loss) of mlp_backward, into a fresh gradient buffer."""
    grads = grad_buffer(params)
    loss = mlp_backward(params, observations, actions, targets, grads)
    return grads, loss


def gradient_error(params, obs, action, target, h=1e-5):
    """The largest error of mlp_backward's gradient of one transition's loss
    0.5 * (Q(obs)[action] - target)^2 against central finite differences,
    relative to max(|finite difference|, 1e-3), over every parameter."""
    def loss():
        return 0.5 * (mlp_forward(params, obs)[action] - target) ** 2

    grads, _ = backward(params, np.array([obs]), np.array([action]), np.array([target]))
    worst = 0.0
    for a, g in zip(params.weights + params.biases, grads.weights + grads.biases):
        for idx in np.ndindex(a.shape):
            orig = a[idx]
            a[idx] = orig + h
            up = loss()
            a[idx] = orig - h
            down = loss()
            a[idx] = orig
            numeric = (up - down) / (2 * h)
            worst = max(worst, abs(g[idx] - numeric) / max(abs(numeric), 1e-3))
    return worst


def layer_outputs(weights, biases, obs):
    """The input of each layer and the output, for a column of observations:
    x @ w + b, then ReLU after every layer but the last."""
    post = [np.asarray(obs, dtype=float).reshape(-1, 1)]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = post[-1] @ w + b
        post.append(z if i == len(weights) - 1 else np.maximum(z, 0.0))
    return post


def reference_forward(weights, biases, obs):
    """The (n, 8) output for n observations, one layer at a time."""
    return layer_outputs(weights, biases, obs)[-1]


def reference_backward(weights, biases, obs, actions, targets):
    """Per-layer gradients of the mean loss 0.5 * (Q(s)[a] - target)^2 as
    separate arrays, written out independently of mlp_backward's flat
    gradient buffer."""
    n = len(obs)
    post = layer_outputs(weights, biases, obs)
    delta = np.zeros_like(post[-1])
    delta[np.arange(n), actions] = (post[-1][np.arange(n), actions] - targets) / n
    gw, gb = [None] * len(weights), [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        gw[i] = post[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (post[i] > 0)
    return gw, gb


def reference_adam(t, lr, params, grads, m, v):
    """Adam step t on lists of separate per-layer arrays, in place."""
    bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= ADAM_BETA1
        mm += (1.0 - ADAM_BETA1) * g
        vv *= ADAM_BETA2
        vv += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + ADAM_EPS)


def flat(weights, biases):
    """Per-layer arrays in MlpParams.flat's order: w0, b0, w1, b1, ..."""
    return np.concatenate([a.ravel() for layer in zip(weights, biases) for a in layer])


# -- the learners, one transition at a time -----------------------------------

class ReferenceReplay:
    """A ring of transition tuples in a list: once full, a push overwrites
    the oldest row's slot, and a sample draws slots uniformly."""

    def __init__(self, capacity):
        self.capacity, self.rows, self.next = capacity, [], 0

    def push(self, *row):
        if len(self.rows) < self.capacity:
            self.rows.append(row)
        else:
            self.rows[self.next] = row
        self.next = (self.next + 1) % self.capacity

    def clear(self):
        self.rows, self.next = [], 0

    def sample(self, batch_size, rng):
        """(s, a, r, s_next, done) arrays of the drawn slots' rows."""
        rows = [self.rows[i] for i in rng.integers(0, len(self.rows), batch_size)]
        return tuple(np.array([row[j] for row in rows], dtype=t)
                     for j, t in enumerate((float, int, float, float, bool)))


class ReferenceLearner:
    """A trainable algorithm's agent and learn hook, one transition at a
    time: a Q-network as per-layer arrays with Adam moments to match (dara),
    or a Q-table as a list of rows (dara_tabular). It makes the harness's
    agent-generator draws in the same order: the network's Glorot draws,
    then per window the epsilon coin and any random MCS, then a train step's
    replay sample. The DQN's target network is a copy taken at each sync."""

    def __init__(self, cfg, rng):
        self.cfg, self.rng, self.train_step, self.table = cfg, rng, 0, None
        if cfg["algorithm"] == "dara_tabular":
            self.table = [[0.0] * phy.N_MCS for _ in range(cfg["n_state_bins"])]
            return
        sizes = [1, *cfg["hidden_layers"], phy.N_MCS]
        limits = [math.sqrt(6.0 / (a + b)) for a, b in zip(sizes, sizes[1:])]
        self.weights = [rng.uniform(-lim, lim, size=(a, b))
                        for lim, a, b in zip(limits, sizes, sizes[1:])]
        self.weights[-1][:] = 0.0  # a fresh network's Q is 0 everywhere
        self.biases = [np.zeros(b) for b in sizes[1:]]
        self.m = [np.zeros_like(p) for p in self.weights + self.biases]
        self.v = [np.zeros_like(p) for p in self.m]
        self.t, self.env_steps, self.replay = 0, 0, ReferenceReplay(cfg["replay_capacity"])
        self.target = ([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def state(self):
        """The bytes of the Q-table, or of the network, Adam's step count
        and the bytes of its moments, laid out as MlpParams.flat is."""
        if self.table is not None:
            return (np.array(self.table).tobytes(),)
        n = len(self.weights)
        return (flat(self.weights, self.biases).tobytes(), self.t,
                flat(self.m[:n], self.m[n:]).tobytes(), flat(self.v[:n], self.v[n:]).tobytes())

    def q(self, observation):
        if self.table is None:
            return reference_forward(self.weights, self.biases, [observation])[0]
        n = len(self.table)
        return self.table[min(max(int(observation * n), 0), n - 1)]

    def greedy(self, result):
        return int(np.argmax(self.q(result.observation)))

    def act(self, result):
        """Epsilon-greedy, with epsilon read at the train-step count."""
        c = self.cfg
        progress = min(max(self.train_step / c["epsilon_decay_steps"], 0.0), 1.0)
        epsilon = (c["epsilon_start"] if c["epsilon_mode"] == "fixed" else
                   c["epsilon_start"] + (c["epsilon_end"] - c["epsilon_start"]) * progress)
        if epsilon > 0.0 and self.rng.random() < epsilon:
            return int(self.rng.integers(0, phy.N_MCS))
        return self.greedy(result)

    def learn(self, s, a, r, s_next, done):
        c = self.cfg
        if self.table is not None:
            future = 0.0 if done else c["discount"] * max(self.q(s_next))
            row = self.q(s)
            row[a] = (1.0 - c["learning_rate"]) * row[a] + c["learning_rate"] * (r + future)
            self.train_step += 1
            return
        self.replay.push(s, a, r, s_next, done)
        self.env_steps += 1
        if len(self.replay.rows) >= c["warmup"] and self.env_steps % c["train_every"] == 0:
            s_b, a_b, r_b, next_b, done_b = self.replay.sample(c["batch_size"], self.rng)
            q_next = reference_forward(*self.target, next_b).max(axis=1)
            y = [ri if di else ri + c["discount"] * qi
                 for ri, di, qi in zip(r_b.tolist(), done_b.tolist(), q_next.tolist())]
            gw, gb = reference_backward(self.weights, self.biases, s_b, a_b, np.array(y))
            self.t += 1
            reference_adam(self.t, c["learning_rate"], self.weights + self.biases,
                           gw + gb, self.m, self.v)
            self.train_step += 1
            if self.train_step % c["target_sync_every"] == 0:
                self.target = ([w.copy() for w in self.weights], [b.copy() for b in self.biases])
        if done and not c["replay_persist_across_episodes"]:
            self.replay.clear()


# -- tabular Q-learning's oracle ----------------------------------------------

def value_iteration(rewards, transitions, gamma, iters=10_000, tol=1e-12):
    """Independent Q* oracle for a deterministic finite MDP.

    rewards[s][a] and transitions[s][a] give the reward and next state for
    action a in state s.
    """
    n_s = len(rewards)
    n_a = len(rewards[0])
    q = np.zeros((n_s, n_a))
    for _ in range(iters):
        new = np.array([
            [rewards[s][a] + gamma * np.max(q[transitions[s][a]])
             for a in range(n_a)]
            for s in range(n_s)
        ])
        if np.max(np.abs(new - q)) < tol:
            return new
        q = new
    return q


# 2-state, 2-action deterministic MDP used by the convergence oracle.
MDP_REWARDS = [[1.0, 0.0], [0.0, 2.0]]
MDP_NEXT = [[0, 1], [0, 1]]
MDP_GAMMA = 0.5


def run_tabular_convergence(max_updates=10_000, alpha=0.5):
    """Sweep q_update_tabular over all (s, a) pairs until close to Q*.

    States 0 and 1 are mapped onto observations 0.1 and 0.9 in a 2-bin
    table. Returns (updates used, max abs error vs value iteration).
    """
    q_star = value_iteration(MDP_REWARDS, MDP_NEXT, MDP_GAMMA)
    obs = [0.1, 0.9]
    q = QTable(2)
    assert [q.bin_of(o) for o in obs] == [0, 1]
    updates = 0
    while updates < max_updates:
        for s in (0, 1):
            for a in (0, 1):
                q_update_tabular(q, obs[s], a, MDP_REWARDS[s][a],
                                 obs[MDP_NEXT[s][a]], alpha, MDP_GAMMA, False)
                updates += 1
        err = np.max(np.abs(q.values[:, :2] - q_star))
        if err < 1e-3:
            return updates, err
    return updates, np.max(np.abs(q.values[:, :2] - q_star))
