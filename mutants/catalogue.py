"""The mutation catalogue: each entry is one small fault put into a copy of
the package, and the property of the package that it breaks.

`old` is exact text that occurs once in `file` (tests/test_mutants.py
checks that, so a refactor that moves the code updates the entry here);
`mutants/run.py` replaces it with `new` in a copy of the checkout and runs
the fast suite there. A catalogued mutant that no test kills is a fault the
suite misses: report it, do not edit the entry until it is killed.

The entries are the mutations that earlier changes ran by hand and
recorded in CHANGES.md, re-targeted at the current code, and one per check
of the config, the CLI, the checkpoint reader, the PHY formulas and the
results. DROPPED lists those that have no place in the code any more or
that no input can tell from it. A change that checks a test by mutating the
code adds its mutation here.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    breaks: str


ENV = "src/rateadapt/env.py"
REPLAY = "src/rateadapt/replay.py"
HARNESS = "src/rateadapt/harness.py"
NN = "src/rateadapt/nn.py"
DQN = "src/rateadapt/dqn.py"
AGENTS = "src/rateadapt/agents.py"
TABULAR = "src/rateadapt/tabular.py"
CONFIG = "src/rateadapt/config.py"
CHECKPOINT = "src/rateadapt/checkpoint.py"
CLI = "src/rateadapt/cli.py"
PHY = "src/rateadapt/phy.py"
RESULTS = "src/rateadapt/results.py"

CATALOGUE = [
    # -- the link's run blocks (the run-block and one-stream changes) -------
    Mutant(
        "env-no-clock-guard", ENV,
        "        if (action != self._block_action or i == len(self._block_clocks)\n"
        "                or self.clock != self._block_clocks[i]):\n",
        "        if action != self._block_action or i == len(self._block_clocks):\n",
        "a clock set from outside refills the block instead of serving a stale row"),
    Mutant(
        "env-reset-keeps-block", ENV,
        "        self._window_bits = []\n"
        "        self._drop_block()\n",
        "        self._window_bits = []\n",
        "reset forgets the last episode's run block and uniforms"),
    Mutant(
        "env-acked-sum-reversed", ENV,
        "float(np.add.reduce(acked)) / n_ok",
        "float(np.add.reduce(acked[::-1])) / n_ok",
        "the mean ACK SNR sums the ACKed frames in window order, as np.mean does"),
    Mutant(
        "env-masked-sum", ENV,
        "float(np.add.reduce(acked)) / n_ok",
        "float(np.add.reduce(np.where(self._block_ok[i], snrs, 0.0))) / n_ok",
        "the mean ACK SNR is the compacted sum, not a masked one with zeros"),
    Mutant(
        "env-fill-drops-tail", ENV,
        "        self._uniforms = uniforms\n",
        "        self._uniforms = uniforms[:n]\n",
        "uniforms drawn beyond the new block are carried to the next block"),
    Mutant(
        "env-fill-fresh-uniforms", ENV,
        "        uniforms = self._uniforms[self._block_next * self.window_frames:]\n",
        "        uniforms = self._uniforms[:0]\n",
        "a refill keeps the uniforms the last block held for its unplayed rows"),
    Mutant(
        "env-fill-carry-one-row-early", ENV,
        "self._uniforms[self._block_next * self.window_frames:]",
        "self._uniforms[max(self._block_next - 1, 0) * self.window_frames:]",
        "window n uses the stream's uniforms [(n+1)w, (n+2)w) whatever its MCS"),

    # -- the play loop and the harness --------------------------------------
    Mutant(
        "harness-eval-episode-1", HARNESS,
        "    reward = _play_episode(env, agent, seed, 0)\n",
        "    reward = _play_episode(env, agent, seed, 1)\n",
        "an evaluation plays episode 0's channel stream"),
    Mutant(
        "harness-decides-after-last-window", HARNESS,
        "            learn(obs, action, result.reward, result.observation, result.done)\n"
        "    return total\n",
        "            learn(obs, action, result.reward, result.observation, result.done)\n"
        "    agent.select_action(result)\n"
        "    return total\n",
        "no decision is made after an episode's final window"),
    Mutant(
        "harness-step-bound-at-import", HARNESS,
        "def _play_episode(env: LinkSimEnv, agent, seed: int, episode: int,\n"
        "                  learn=None) -> float:\n",
        "def _play_episode(env: LinkSimEnv, agent, seed: int, episode: int,\n"
        "                  learn=None, _step=LinkSimEnv.step) -> float:\n"
        "    env.step = _step.__get__(env)\n",
        "the loop looks LinkSimEnv.step up per call, so perfbench's hook counts "
        "every window"),
    Mutant(
        "harness-no-target-copy", HARNESS,
        "                target = online.copy()\n"
        "                buffer.mark_stale()\n",
        "                buffer.mark_stale()\n",
        "the target network is synced to the online one every target_sync_every steps"),
    Mutant(
        "harness-no-mark-stale", HARNESS,
        "                target = online.copy()\n"
        "                buffer.mark_stale()\n",
        "                target = online.copy()\n",
        "a target sync makes every cached replay target stale"),
    Mutant(
        "harness-no-divergence-check", HARNESS,
        "            ckpt_io.require_finite(make_checkpoint().arrays,\n"
        "                                   f\"{results_dir}: diverged in episode {ep}\")\n",
        "",
        "a diverged episode ends training before its output is written"),
    Mutant(
        "harness-no-constant-builder", HARNESS,
        "    \"constant\": (lambda cfg, ckpt, rng: ConstantAgent(cfg[\"agent\"][\"constant_mcs\"]), None),\n",
        "",
        "every algorithm in config.ALGORITHMS has a harness.BUILDERS entry"),
    Mutant(
        "harness-checkpoint-any-kind", HARNESS,
        "    if kind is not None and (checkpoint is None or checkpoint.kind != kind):\n",
        "    if kind is not None and checkpoint is None:\n",
        "a trainable algorithm refuses a checkpoint of the other kind"),

    # -- the replay buffer and its cached targets ----------------------------
    Mutant(
        "replay-cursor-stops-wrapping", REPLAY,
        "        self._next = (i + 1) % self.capacity\n",
        "        self._next = min(i + 1, self.capacity - 1)\n",
        "a full ring overwrites strictly oldest-first"),
    Mutant(
        "replay-y-from-wrong-rows", REPLAY,
        "        return s[idx], a[idx], y[idx]\n",
        "        return s[idx], a[idx], y[(idx + 1) % self.size]\n",
        "a sample returns each drawn row's own target"),
    Mutant(
        "replay-refresh-done-flipped", REPLAY,
        "targets(r[chunk], s_next[chunk], done[chunk])",
        "targets(r[chunk], s_next[chunk], ~done[chunk])",
        "a refresh passes each row's own done flag"),
    Mutant(
        "replay-refresh-r-as-s-next", REPLAY,
        "targets(r[chunk], s_next[chunk], done[chunk])",
        "targets(r[chunk], r[chunk], done[chunk])",
        "a refresh passes each row's own next state"),
    Mutant(
        "replay-clear-keeps-cursor", REPLAY,
        "    def clear(self):\n"
        "        self._next = 0\n",
        "    def clear(self):\n",
        "clear restarts the ring empty, at slot 0"),
    Mutant(
        "replay-growth-drops-copy", REPLAY,
        "columns[j] = np.concatenate((c, np.empty(rows - len(c), c.dtype)))",
        "columns[j] = np.empty(rows, c.dtype)",
        "growing the columns keeps every row written"),
    Mutant(
        "replay-growth-drops-row", REPLAY,
        "columns[j] = np.concatenate((c, np.empty(rows - len(c), c.dtype)))",
        "columns[j] = np.concatenate((c[:-1], np.empty(rows - len(c) + 1, c.dtype)))",
        "growing the columns keeps the last row written"),
    Mutant(
        "replay-no-lone-row-padding", REPLAY,
        "                rows = min(batch_size, -(-(stop - start) // 4) * 4)\n",
        "                rows = stop - start\n",
        "a stale chunk is padded with its last row, so a lone row's y has the bits "
        "a batch gives"),
    Mutant(
        "replay-pads-to-pairs", REPLAY,
        "min(batch_size, -(-(stop - start) // 4) * 4)",
        "min(batch_size, max(stop - start, 2))",
        "a stale chunk is padded to a multiple of 4 rows, whose y the BLAS kernels "
        "give the bits of a forward of the whole batch"),
    Mutant(
        "replay-refresh-chunks-4x", REPLAY,
        "            for start in range(first, self._next, batch_size):\n"
        "                stop = min(start + batch_size, self._next)\n"
        "                rows = min(batch_size, ",
        "            for start in range(first, self._next, 4 * batch_size):\n"
        "                stop = min(start + 4 * batch_size, self._next)\n"
        "                rows = min(4 * batch_size, ",
        "refresh forwards are at most batch_size rows, the row counts a train step used"),
    Mutant(
        "replay-mark-stale-noop", REPLAY,
        "        self._stale = self.capacity\n",
        "        pass\n",
        "mark_stale makes every row's cached target stale"),
    Mutant(
        "replay-push-not-stale", REPLAY,
        "        self._stale += 1\n",
        "",
        "a pushed row's target is stale until refreshed"),
    Mutant(
        "replay-stale-never-reset", REPLAY,
        "            self._stale = 0\n",
        "",
        "a refresh leaves no row stale, so the next one computes only new rows"),
    Mutant(
        "replay-no-refresh", REPLAY,
        "        if self._stale and ((self._next - 1 - idx) % self.capacity < self._stale).any():\n",
        "        if False:\n",
        "a draw that hits a stale row refreshes the targets first"),

    # -- the network, Adam and the Bellman target ----------------------------
    Mutant(
        "dqn-where-swapped", DQN,
        "np.where(done, r, r + gamma * q_next_max)",
        "np.where(done, r + gamma * q_next_max, r)",
        "a terminal row's target is r alone"),
    Mutant(
        "nn-adam-operand-order", NN,
        "    p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)\n",
        "    p -= state.learning_rate * m / bc1 / (np.sqrt(v / bc2) + ADAM_EPS)\n",
        "Adam's update keeps its operand order, so parameters are bit-identical"),
    Mutant(
        "nn-bias-grad-order", NN,
        "np.add.reduce(delta, axis=0, out=grads.biases[i])",
        "np.add.reduce(delta[::-1], axis=0, out=grads.biases[i])",
        "bias gradients sum the batch in row order"),
    Mutant(
        "nn-copy-shares-buffer", NN,
        "        return self.like(self._flat.copy())\n",
        "        return self.like(self._flat)\n",
        "a copied network (the target) is independent of the online one"),
    Mutant(
        "nn-no-adam-m-w", NN,
        "    m_w = property(lambda self: self.m.weights)\n",
        "",
        "every name perfbench reads from the package exists"),
    Mutant(
        "nn-no-margin", NN,
        "        margin = ((4 * len(w) + 4) * 2.0 ** -53 * (up @ np.abs(w))\n"
        "                  + 2.0 ** -1000 * np.count_nonzero(w, axis=0))\n",
        "        margin = 0.0\n",
        "the interval bounds cover the forward's rounding in any summation order"),
    Mutant(
        "nn-no-gamma-margin", NN,
        "(4 * len(w) + 4) * 2.0 ** -53 * (up @ np.abs(w))",
        "0.0 * (up @ np.abs(w))",
        "the interval bounds cover the rounding of each layer's sum"),
    Mutant(
        "nn-greedy-tie-strict", NN,
        "higher & (low_a >= up_j)",
        "higher & (low_a > up_j)",
        "a tie with a higher action certifies the lower one, as argmax breaks ties"),
    Mutant(
        "nn-first-layer-one-end", NN,
        "for x in (lo, hi)]",
        "for x in (lo, lo)]",
        "the first layer's bounds take both ends of the interval"),

    # -- the threshold tables ------------------------------------------------
    Mutant(
        "agents-bisect-left", AGENTS,
        "bisect.bisect_right(self.edges, result[self._field])",
        "bisect.bisect_left(self.edges, result[self._field])",
        "a value equal to an edge takes the action above it"),
    Mutant(
        "agents-ideal-no-suffix-minimum", AGENTS,
        "        self.thresholds = np.minimum.accumulate(least[::-1])[::-1].tolist()\n",
        "        self.thresholds = least.tolist()\n",
        "Ideal's thresholds never decrease, even where a higher MCS crosses first"),
    Mutant(
        "tabular-start-strict", TABULAR,
        "lambda x: x * table.n_state_bins >= starts",
        "lambda x: x * table.n_state_bins > starts",
        "a compiled Q-table's edge is the first float of its bin"),
    Mutant(
        "tabular-no-leading-bin", TABULAR,
        "best[np.r_[0, starts]]",
        "best[starts]",
        "a compiled Q-table's first interval takes bin 0's action"),
    Mutant(
        "tabular-last-index-ties", TABULAR,
        "    best = table.values.argmax(1)\n",
        "    best = N_MCS - 1 - table.values[:, ::-1].argmax(1)\n",
        "a compiled Q-table breaks ties to the lowest MCS, as argmax does"),

    # -- the config schema and checkpoints -----------------------------------
    Mutant(
        "config-choice-any-string", CONFIG,
        "        if v not in list(options):",
        "        if not isinstance(v, str):",
        "a choice key accepts only its listed values"),
    Mutant(
        "config-choice-hashes", CONFIG,
        "        if v not in list(options):",
        "        if v not in options:",
        "an unhashable choice is refused, not raised on"),
    Mutant(
        "config-tabular-cap-by-name", CONFIG,
        "        if ALGORITHMS[agent[\"algorithm\"]] == \"tabular\" and agent[\"learning_rate\"] > 1:\n",
        "        if agent[\"algorithm\"] == \"dara_tabular\" and agent[\"learning_rate\"] > 1:\n",
        "the tabular learning-rate cap follows the checkpoint kind, not one name"),
    Mutant(
        "checkpoint-no-moment-size-check", CHECKPOINT,
        "        if not sizes == params.layer_sizes == m.layer_sizes == v.layer_sizes:\n",
        "        if not sizes == params.layer_sizes:\n",
        "a checkpoint whose Adam moments chain at other widths is refused"),
    # -- the config schema's value bounds (one per SCHEMA bound) -------------
    Mutant(
        "config-seed-negative", CONFIG,
        '        "seed": (1, _int(lo=0)),\n',
        '        "seed": (1, _int()),\n',
        "agent.seed is refused below 0"),
    Mutant(
        "config-episodes-zero", CONFIG,
        '        "episodes": (15, _int(lo=1)),\n',
        '        "episodes": (15, _int(lo=0)),\n',
        "agent.episodes is refused below 1"),
    Mutant(
        "config-learning-rate-zero", CONFIG,
        '        "learning_rate": (0.01, _num(lo=0, lo_open=True)),\n',
        '        "learning_rate": (0.01, _num(lo=0)),\n',
        "agent.learning_rate is refused at 0"),
    Mutant(
        "config-discount-negative", CONFIG,
        '        "discount": (0.5, _num(lo=0, hi=1)),\n',
        '        "discount": (0.5, _num(hi=1)),\n',
        "agent.discount is refused below 0"),
    Mutant(
        "config-discount-above-one", CONFIG,
        '        "discount": (0.5, _num(lo=0, hi=1)),\n',
        '        "discount": (0.5, _num(lo=0)),\n',
        "agent.discount is refused above 1"),
    Mutant(
        "config-epsilon-mode-any", CONFIG,
        '        "epsilon_mode": ("fixed", _choice(("fixed", "linear"))),\n',
        '        "epsilon_mode": ("fixed", _choice(("fixed", "linear", "exponential"))),\n',
        "agent.epsilon_mode is fixed or linear"),
    Mutant(
        "config-epsilon-start-above-one", CONFIG,
        '        "epsilon_start": (0.1, _num(lo=0, hi=1)),\n',
        '        "epsilon_start": (0.1, _num(lo=0)),\n',
        "agent.epsilon_start is refused above 1"),
    Mutant(
        "config-epsilon-end-negative", CONFIG,
        '        "epsilon_end": (0.1, _num(lo=0, hi=1)),\n',
        '        "epsilon_end": (0.1, _num(hi=1)),\n',
        "agent.epsilon_end is refused below 0"),
    Mutant(
        "config-epsilon-decay-zero", CONFIG,
        '        "epsilon_decay_steps": (10_000, _int(lo=1)),\n',
        '        "epsilon_decay_steps": (10_000, _int(lo=0)),\n',
        "agent.epsilon_decay_steps is refused below 1"),
    Mutant(
        "config-batch-size-zero", CONFIG,
        '        "batch_size": (64, _int(lo=1)),\n',
        '        "batch_size": (64, _int(lo=0)),\n',
        "agent.batch_size is refused below 1"),
    Mutant(
        "config-replay-capacity-beyond-long", CONFIG,
        '        "replay_capacity": (1_000_000, _int(lo=1, hi=2**63 - 1)),\n',
        '        "replay_capacity": (1_000_000, _int(lo=1)),\n',
        "agent.replay_capacity is refused beyond a C long"),
    Mutant(
        "config-bool-any", CONFIG,
        '    return None if isinstance(v, bool) else "must be true or false"\n',
        '    return None\n',
        "a true/false key takes only true or false"),
    Mutant(
        "config-train-every-zero", CONFIG,
        '        "train_every": (8, _int(lo=1)),\n',
        '        "train_every": (8, _int(lo=0)),\n',
        "agent.train_every is refused below 1"),
    Mutant(
        "config-target-sync-zero", CONFIG,
        '        "target_sync_every": (200, _int(lo=1)),\n',
        '        "target_sync_every": (200, _int(lo=0)),\n',
        "agent.target_sync_every is refused below 1"),
    Mutant(
        "config-checkpoint-every-zero", CONFIG,
        '        "checkpoint_every": (5, _int(lo=1)),\n',
        '        "checkpoint_every": (5, _int(lo=0)),\n',
        "agent.checkpoint_every is refused below 1"),
    Mutant(
        "config-state-bins-zero", CONFIG,
        '        "n_state_bins": (32, _int(lo=1, hi=100_000)),\n',
        '        "n_state_bins": (32, _int(lo=0, hi=100_000)),\n',
        "agent.n_state_bins is refused below 1"),
    Mutant(
        "config-state-bins-no-cap", CONFIG,
        '        "n_state_bins": (32, _int(lo=1, hi=100_000)),\n',
        '        "n_state_bins": (32, _int(lo=1)),\n',
        "agent.n_state_bins is capped at 100,000"),
    Mutant(
        "config-p-min-closed", CONFIG,
        '        "ideal_p_min": (0.9, _num(lo=0, hi=1, lo_open=True, hi_open=True)),\n',
        '        "ideal_p_min": (0.9, _num(lo=0, hi=1)),\n',
        "agent.ideal_p_min is refused at 0 and at 1"),
    Mutant(
        "config-probe-prob-above-one", CONFIG,
        '        "minstrel_probe_prob": (0.1, _num(lo=0, hi=1)),\n',
        '        "minstrel_probe_prob": (0.1, _num(lo=0)),\n',
        "agent.minstrel_probe_prob is refused above 1"),
    Mutant(
        "config-ewma-weight-negative", CONFIG,
        '        "minstrel_ewma_weight": (0.25, _num(lo=0, hi=1)),\n',
        '        "minstrel_ewma_weight": (0.25, _num(hi=1)),\n',
        "agent.minstrel_ewma_weight is refused below 0"),
    Mutant(
        "config-constant-mcs-above-7", CONFIG,
        '        "constant_mcs": (0, _int(lo=0, hi=phy.N_MCS - 1)),\n',
        '        "constant_mcs": (0, _int(lo=0, hi=phy.N_MCS)),\n',
        "agent.constant_mcs is an MCS index, at most 7"),
    Mutant(
        "config-window-frames-zero", CONFIG,
        '        "window_frames": (50, _int(lo=1, hi=100_000)),\n',
        '        "window_frames": (50, _int(lo=0, hi=100_000)),\n',
        "gym.window_frames is refused below 1"),
    Mutant(
        "config-window-frames-no-cap", CONFIG,
        '        "window_frames": (50, _int(lo=1, hi=100_000)),\n',
        '        "window_frames": (50, _int(lo=1)),\n',
        "gym.window_frames is capped at 100,000"),
    Mutant(
        "config-bandwidth-zero", CONFIG,
        '        "bandwidth_mhz": (20.0, _num(lo=0, lo_open=True)),\n',
        '        "bandwidth_mhz": (20.0, _num(lo=0)),\n',
        "sim.bandwidth_mhz is refused at 0"),
    Mutant(
        "config-noise-figure-negative", CONFIG,
        '        "noise_figure_db": (7.0, _num(lo=0)),\n',
        '        "noise_figure_db": (7.0, _num()),\n',
        "sim.noise_figure_db is refused below 0"),
    Mutant(
        "config-payload-zero", CONFIG,
        '        "payload_bytes": (1400, _int(lo=1)),\n',
        '        "payload_bytes": (1400, _int(lo=0)),\n',
        "sim.payload_bytes is refused below 1"),
    Mutant(
        "config-overhead-negative", CONFIG,
        '        "overhead_s": (100e-6, _num(lo=0)),\n',
        '        "overhead_s": (100e-6, _num()),\n',
        "sim.overhead_s is refused below 0"),
    Mutant(
        "config-start-distance-any", CONFIG,
        '        "start_distance_m": (1.0, _num(lo=phy.MINIMUM_DISTANCE_M)),\n',
        '        "start_distance_m": (1.0, _num(lo=0)),\n',
        "sim.start_distance_m is refused below phy.MINIMUM_DISTANCE_M"),
    Mutant(
        "config-speed-negative", CONFIG,
        '        "speed_mps": (20.0, _num(lo=0)),\n',
        '        "speed_mps": (20.0, _num()),\n',
        "sim.speed_mps is refused below 0"),
    Mutant(
        "config-duration-zero", CONFIG,
        '        "duration_s": (60.0, _num(lo=0, lo_open=True)),\n',
        '        "duration_s": (60.0, _num(lo=0)),\n',
        "sim.duration_s is refused at 0"),
    Mutant(
        "config-log-period-zero", CONFIG,
        '        "log_period_s": (1.0, _num(lo=0, lo_open=True)),\n',
        '        "log_period_s": (1.0, _num(lo=0)),\n',
        "sim.log_period_s is refused at 0"),
    Mutant(
        "config-rates-non-positive", CONFIG,
        '                           _num_list(length=phy.N_MCS, lo=0)),\n'
        '        "per_midpoints_db"',
        '                           _num_list(length=phy.N_MCS)),\n'
        '        "per_midpoints_db"',
        "sim.phy_rates_mbps entries are refused at or below 0"),
    Mutant(
        "config-slopes-non-positive", CONFIG,
        '        "per_slopes_per_db": (list(phy.DEFAULT_PER_SLOPES_PER_DB),\n'
        '                              _num_list(length=phy.N_MCS, lo=0)),\n',
        '        "per_slopes_per_db": (list(phy.DEFAULT_PER_SLOPES_PER_DB),\n'
        '                              _num_list(length=phy.N_MCS)),\n',
        "sim.per_slopes_per_db entries are refused at or below 0"),
    Mutant(
        "config-midpoints-any-length", CONFIG,
        '                             _num_list(length=phy.N_MCS)),\n',
        '                             _num_list()),\n',
        "sim.per_midpoints_db has exactly 8 entries"),

    # -- the config schema's validators --------------------------------------
    Mutant(
        "config-num-takes-bool", CONFIG,
        '        if isinstance(v, bool) or not isinstance(v, (int, float)):\n'
        '            return "must be a number"\n',
        '        if not isinstance(v, (int, float)):\n'
        '            return "must be a number"\n',
        "a number key refuses true and false"),
    Mutant(
        "config-num-non-finite", CONFIG,
        '        if not finite:\n'
        '            return "must be finite"\n',
        '',
        "a number key refuses NaN and the infinities"),
    Mutant(
        "config-num-overflow-raises", CONFIG,
        '        except OverflowError:  # an integer beyond float range\n'
        '            finite = False\n',
        '        except ZeroDivisionError:\n'
        '            finite = False\n',
        "an integer beyond float range is refused, not raised on"),
    Mutant(
        "config-num-lo-open-ignored", CONFIG,
        "(v <= lo if lo_open else v < lo)",
        "(v < lo)",
        "an open lower bound refuses the bound itself"),
    Mutant(
        "config-num-hi-open-ignored", CONFIG,
        "(v >= hi if hi_open else v > hi)",
        "(v > hi)",
        "an open upper bound refuses the bound itself"),
    Mutant(
        "config-int-takes-float", CONFIG,
        '        if isinstance(v, bool) or not isinstance(v, int):\n'
        '            return "must be an integer"\n',
        '        if isinstance(v, bool):\n'
        '            return "must be an integer"\n',
        "an integer key refuses a float"),
    Mutant(
        "config-list-any-length", CONFIG,
        '        if length is not None and len(v) != length:\n',
        '        if False:\n',
        "a list key has exactly its length"),
    Mutant(
        "config-list-lo-ignored", CONFIG,
        '        if lo is not None and any(x <= lo for x in v):\n',
        '        if False:\n',
        "a list key with a lower bound refuses entries at or below it"),
    Mutant(
        "config-list-non-finite", CONFIG,
        "any(_num()(x) for x in v)",
        "any(isinstance(x, str) for x in v)",
        "a list key's entries are finite numbers"),
    Mutant(
        "config-layers-no-cap", CONFIG,
        '    if len(v) > 8 or max(v) > 1024:\n',
        '    if False:\n',
        "agent.hidden_layers has at most 8 layers of at most 1024 units"),
    Mutant(
        "config-layers-width-zero", CONFIG,
        "and not isinstance(x, bool) and x >= 1",
        "and not isinstance(x, bool) and x >= 0",
        "agent.hidden_layers widths are at least 1"),
    Mutant(
        "config-unknown-key-accepted", CONFIG,
        '                problems.append(f"{section}.{key}: unknown key")\n',
        '                pass\n',
        "an unknown key is refused"),
    Mutant(
        "config-unknown-section-accepted", CONFIG,
        '            problems.append(f"{section}: unknown section")\n',
        '            pass\n',
        "an unknown section is refused"),
    Mutant(
        "config-missing-section-accepted", CONFIG,
        '            problems.append(f"{section}: missing section")\n',
        '            pass\n',
        "a missing section is refused"),
    Mutant(
        "config-parse-recursion-raised", CONFIG,
        "    except (ValueError, RecursionError) as exc:\n",
        "    except ValueError as exc:\n",
        "a config nested past the recursion limit is refused, not raised on"),

    # -- the config's cross-field checks and work budget ---------------------
    Mutant(
        "config-snr-range-unchecked", CONFIG,
        '        if gym["snr_lo_db"] >= gym["snr_hi_db"]:\n',
        '        if gym["snr_lo_db"] > gym["snr_hi_db"]:\n',
        "gym.snr_lo_db is refused at or above gym.snr_hi_db"),
    Mutant(
        "config-warmup-below-batch", CONFIG,
        '        if agent["warmup"] < agent["batch_size"]:\n',
        '        if False:\n',
        "agent.warmup is refused below agent.batch_size"),
    Mutant(
        "config-warmup-above-capacity", CONFIG,
        '        if agent["warmup"] > agent["replay_capacity"]:\n',
        '        if agent["warmup"] >= agent["replay_capacity"]:\n',
        "agent.warmup is refused above agent.replay_capacity, not at it"),
    Mutant(
        "config-log-records-unbounded", CONFIG,
        '        if sim["duration_s"] / sim["log_period_s"] > MAX_LOG_RECORDS:\n',
        '        if sim["duration_s"] / sim["log_period_s"] > 100 * MAX_LOG_RECORDS:\n',
        "an episode logs at most MAX_LOG_RECORDS records"),
    Mutant(
        "config-log-records-at-bound", CONFIG,
        '        if sim["duration_s"] / sim["log_period_s"] > MAX_LOG_RECORDS:\n',
        '        if sim["duration_s"] / sim["log_period_s"] >= MAX_LOG_RECORDS:\n',
        "exactly MAX_LOG_RECORDS records are accepted"),
    Mutant(
        "config-rates-any-order", CONFIG,
        '            problems.append("sim.phy_rates_mbps must be strictly increasing")\n',
        '            pass\n',
        "sim.phy_rates_mbps must increase strictly"),
    Mutant(
        "config-midpoints-any-order", CONFIG,
        '            problems.append("sim.per_midpoints_db must be strictly increasing")\n',
        '            pass\n',
        "sim.per_midpoints_db must increase strictly"),
    Mutant(
        "config-clock-unchecked", CONFIG,
        '        if not clock_ok:\n',
        '        if False:\n',
        "a config whose clock stops short of duration_s is refused"),
    Mutant(
        "config-snr-sum-unchecked", CONFIG,
        '        elif not np.isfinite(snr_sum_bound):\n',
        '        elif False:\n',
        "a config whose window SNR sums overflow is refused"),
    Mutant(
        "config-work-budget-100x", CONFIG,
        '    if not windows <= MAX_WINDOWS:\n',
        '    if not windows <= 100 * MAX_WINDOWS:\n',
        "an episode over MAX_WINDOWS windows is refused"),
    Mutant(
        "config-work-budget-no-crossing-window", CONFIG,
        " * cfg.airtime_s().min()) + 1\n",
        " * cfg.airtime_s().min())\n",
        "the work budget counts the window that crosses duration_s"),

    # -- the CLI's checks before the run folder, and its exit codes ----------
    Mutant(
        "cli-no-work-budget", CLI,
        "    check_work_budget(cfg)  # before any command makes a run folder\n",
        "",
        "every command refuses an episode over the work budget before its run folder"),
    Mutant(
        "cli-train-kind-after-folder", CLI,
        "    trained_kind(cfg[\"agent\"][\"algorithm\"])  # before the run folder is made\n",
        "",
        "train refuses an algorithm that does not train before its run folder"),
    Mutant(
        "cli-eval-kind-after-folder", CLI,
        "    check_checkpoint_kind(algorithm, ckpt)  # before the run folder is made\n",
        "",
        "eval refuses a checkpoint of the wrong kind, or none, before its run folder"),
    Mutant(
        "cli-sweep-grid-after-folder", CLI,
        "    grid_configs(sweep, cfg)  # before the run folder is made\n",
        "",
        "sweep refuses a bad grid before its run folder"),
    Mutant(
        "cli-config-read-error-raised", CLI,
        "    try:\n"
        "        text = Path(args.config).read_text(encoding=\"utf-8\")\n"
        "    except (OSError, UnicodeDecodeError) as exc:\n"
        "        raise ConfigError([f\"cannot read config: {exc}\"]) from exc\n",
        "    text = Path(args.config).read_text(encoding=\"utf-8\")\n",
        "a config file that cannot be read or decoded exits 1"),
    Mutant(
        "cli-overrides-unvalidated", CLI,
        "    return cfg.with_overrides(**overrides) if overrides else cfg\n",
        "    cfg[\"agent\"].update(overrides)\n"
        "    return cfg\n",
        "--seed and --episodes pass the config's checks"),
    Mutant(
        "cli-run-dir-error-exit-2", CLI,
        "    except OSError as exc:\n"
        "        raise ConfigError([f\"cannot create a run folder",
        "    except ZeroDivisionError as exc:\n"
        "        raise ConfigError([f\"cannot create a run folder",
        "a --results where no run folder can be made exits 1"),
    Mutant(
        "cli-grid-parse-error-raised", CLI,
        "    except ValueError as exc:\n"
        "        raise ConfigError([f\"bad sweep grid: {exc}\"]) from exc\n",
        "    except ZeroDivisionError as exc:\n"
        "        raise ConfigError([f\"bad sweep grid: {exc}\"]) from exc\n",
        "a sweep grid that does not parse exits 1 with an error: line"),
    Mutant(
        "cli-eval-mismatch-flag-ignored", CLI,
        "        allow_fingerprint_mismatch=args.allow_fingerprint_mismatch)\n",
        "        allow_fingerprint_mismatch=False)\n",
        "eval --allow-fingerprint-mismatch loads a checkpoint trained under "
        "another config"),
    Mutant(
        "cli-config-error-exit-2", CLI,
        "    except (ConfigError, CheckpointError) as exc:\n",
        "    except CheckpointError as exc:\n",
        "a ConfigError exits 1"),
    Mutant(
        "cli-checkpoint-error-exit-2", CLI,
        "    except (ConfigError, CheckpointError) as exc:\n",
        "    except ConfigError as exc:\n",
        "a CheckpointError exits 1"),
    Mutant(
        "cli-runtime-error-exit-1", CLI,
        "        print(f\"error: {exc}\", file=sys.stderr)\n"
        "        return EXIT_RUNTIME\n",
        "        print(f\"error: {exc}\", file=sys.stderr)\n"
        "        return EXIT_CONFIG\n",
        "a RateAdaptError, OSError or MemoryError exits 2"),
    Mutant(
        "cli-os-error-raised", CLI,
        "    except (RateAdaptError, MemoryError, OSError) as exc:\n",
        "    except (RateAdaptError, MemoryError) as exc:\n",
        "an OSError exits 2 with an error: line, not a traceback"),
    Mutant(
        "cli-memory-error-raised", CLI,
        "    except (RateAdaptError, MemoryError, OSError) as exc:\n",
        "    except (RateAdaptError, OSError) as exc:\n",
        "a MemoryError exits 2 with an error: line, not a traceback"),
    Mutant(
        "cli-error-line-unprefixed", CLI,
        "        print(f\"error: {exc}\", file=sys.stderr)\n"
        "        return EXIT_CONFIG\n",
        "        print(exc, file=sys.stderr)\n"
        "        return EXIT_CONFIG\n",
        "a refusal prints one error: line"),
    Mutant(
        "cli-usage-error-exit-2", CLI,
        "        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK\n",
        "        return EXIT_RUNTIME if exc.code not in (0, None) else EXIT_OK\n",
        "a usage error exits 1"),

    # -- the checkpoint reader's checks (checkpoint._parse) -----------------
    Mutant(
        "checkpoint-no-magic-check", CHECKPOINT,
        "    if not raw.startswith(MAGIC):\n",
        "    if not raw:\n",
        "a file without the magic line is refused"),
    Mutant(
        "checkpoint-trailing-bytes", CHECKPOINT,
        "    if offset != len(blob):\n",
        "    if offset > len(blob):\n",
        "bytes after the declared arrays are refused"),
    Mutant(
        "checkpoint-non-finite-loaded", CHECKPOINT,
        "    require_finite(arrays, f\"{p}: corrupt checkpoint\")\n",
        "",
        "a checkpoint with a NaN or an infinity is refused"),
    Mutant(
        "checkpoint-fingerprint-unchecked", CHECKPOINT,
        "    if expected_fingerprint is not None and fingerprint != expected_fingerprint:\n",
        "    if expected_fingerprint is None and fingerprint != expected_fingerprint:\n",
        "a checkpoint trained under another config is refused"),
    Mutant(
        "checkpoint-mismatch-always-allowed", CHECKPOINT,
        "        if not allow_fingerprint_mismatch:\n",
        "        if False:\n",
        "a fingerprint mismatch is refused unless allowed"),
    Mutant(
        "checkpoint-mismatch-silent", CHECKPOINT,
        "        warnings.warn(msg, stacklevel=3)\n",
        "",
        "an allowed fingerprint mismatch warns"),
    Mutant(
        "checkpoint-train-step-unchecked", CHECKPOINT,
        "    train_step = _field(header, \"train_step\", _int(lo=0))\n",
        "    train_step = header[\"train_step\"]\n",
        "train_step is a count"),
    Mutant(
        "checkpoint-adam-lr-unchecked", CHECKPOINT,
        "_field(meta, \"learning_rate\", _num(lo=0, lo_open=True))",
        "meta[\"learning_rate\"]",
        "Adam's learning rate is a finite number above 0"),
    Mutant(
        "checkpoint-adam-lr-zero", CHECKPOINT,
        "_field(meta, \"learning_rate\", _num(lo=0, lo_open=True))",
        "_field(meta, \"learning_rate\", _num())",
        "Adam's learning rate is above 0"),
    Mutant(
        "checkpoint-adam-t-unchecked", CHECKPOINT,
        "                        _field(meta, \"t\", _int(lo=0)), m, v)\n",
        "                        meta[\"t\"], m, v)\n",
        "Adam's step count is a count"),
    Mutant(
        "checkpoint-layer-sizes-unchecked", CHECKPOINT,
        "        if not sizes == params.layer_sizes == m.layer_sizes == v.layer_sizes:\n",
        "        if not params.layer_sizes == m.layer_sizes == v.layer_sizes:\n",
        "the header's layer_sizes match the array shapes"),
    Mutant(
        "checkpoint-q-values-any-width", CHECKPOINT,
        "values.shape[1] == N_MCS",
        "values.shape[1] >= 1",
        "a Q-table has one column per MCS"),
    Mutant(
        "checkpoint-q-values-empty", CHECKPOINT,
        "and 1 <= len(values) == header[\"n_state_bins\"]",
        "and len(values) == header[\"n_state_bins\"]",
        "a Q-table has at least one bin"),
    Mutant(
        "checkpoint-state-bins-unchecked", CHECKPOINT,
        "and 1 <= len(values) == header[\"n_state_bins\"]",
        "and 1 <= len(values)",
        "the header's n_state_bins matches the Q-table"),
    Mutant(
        "checkpoint-unknown-kind-tabular", CHECKPOINT,
        "    elif header[\"kind\"] == \"tabular\":\n",
        "    elif True:\n",
        "a checkpoint of an unknown kind is refused"),
    Mutant(
        "checkpoint-manifest-unchecked", CHECKPOINT,
        "    if manifest != [(name, a.shape) for name, a in ckpt.arrays.items()]:\n",
        "    if False:\n",
        "the array manifest is the one save writes"),
    Mutant(
        "checkpoint-recursion-raised", CHECKPOINT,
        "OverflowError, RecursionError) as exc:",
        "OverflowError) as exc:",
        "a deeply nested header is refused, not raised on"),
    Mutant(
        "checkpoint-overflow-raised", CHECKPOINT,
        "OverflowError, RecursionError) as exc:",
        "RecursionError) as exc:",
        "a shape beyond integer range is refused, not raised on"),

    # -- the PHY formulas ---------------------------------------------------
    Mutant(
        "phy-friis-10-log", PHY,
        "    return 20.0 * np.log10(4.0 * math.pi",
        "    return 10.0 * np.log10(4.0 * math.pi",
        "the path loss is 20 log10 of 4 pi d f / c"),
    Mutant(
        "phy-friis-no-4pi", PHY,
        "np.log10(4.0 * math.pi * distance_m",
        "np.log10(math.pi * distance_m",
        "the path loss carries the 4 pi of the free-space formula"),
    Mutant(
        "phy-noise-floor-offset", PHY,
        "        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db\n",
        "        return -171.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db\n",
        "the thermal noise floor is -174 dBm/Hz"),
    Mutant(
        "phy-noise-bandwidth-20-log", PHY,
        "        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db\n",
        "        return -174.0 + 20.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db\n",
        "the noise power grows by 10 log10 of the bandwidth"),
    Mutant(
        "phy-noise-figure-subtracted", PHY,
        "        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db\n",
        "        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) - self.noise_figure_db\n",
        "the noise figure adds to the noise power"),
    Mutant(
        "phy-snr-noise-added", PHY,
        "    return params.tx_power_dbm - friis_path_loss(distance_m, params) - params.noise_power_dbm\n",
        "    return params.tx_power_dbm - friis_path_loss(distance_m, params) + params.noise_power_dbm\n",
        "SNR is transmit power less path loss less noise power"),
    Mutant(
        "phy-success-sign", PHY,
        "np.exp(-slope_per_db * (snr - midpoint_db))",
        "np.exp(slope_per_db * (snr - midpoint_db))",
        "frame success rises with SNR"),
    Mutant(
        "phy-success-no-slope", PHY,
        "np.exp(-slope_per_db * (snr - midpoint_db))",
        "np.exp(-(snr - midpoint_db))",
        "each MCS's success curve has its own slope"),
    Mutant(
        "phy-success-warns", PHY,
        "    with np.errstate(over=\"ignore\"):\n"
        "        return 1.0 / (1.0 + np.exp(",
        "    if True:\n"
        "        return 1.0 / (1.0 + np.exp(",
        "an overflowing exponent saturates p silently"),
    Mutant(
        "phy-scale-no-floor", PHY,
        "    return min(1.0, max(0.0, (snr - lo_db) / (hi_db - lo_db)))\n",
        "    return min(1.0, (snr - lo_db) / (hi_db - lo_db))\n",
        "an SNR below the range scales to 0"),
    Mutant(
        "phy-scale-no-ceiling", PHY,
        "    return min(1.0, max(0.0, (snr - lo_db) / (hi_db - lo_db)))\n",
        "    return max(0.0, (snr - lo_db) / (hi_db - lo_db))\n",
        "an SNR above the range scales to 1"),
    Mutant(
        "phy-scale-from-zero", PHY,
        "    return min(1.0, max(0.0, (snr - lo_db) / (hi_db - lo_db)))\n",
        "    return min(1.0, max(0.0, snr / (hi_db - lo_db)))\n",
        "the observation range starts at gym.snr_lo_db"),

    # -- the CCDF and the results folder ------------------------------------
    Mutant(
        "results-ccdf-counts-not-cumulative", RESULTS,
        "    probs = (xs.size - np.cumsum(counts)) / xs.size\n",
        "    probs = (xs.size - counts) / xs.size\n",
        "P(X > v) counts every sample above v"),
    Mutant(
        "results-ccdf-at-or-above", RESULTS,
        "    probs = (xs.size - np.cumsum(counts)) / xs.size\n",
        "    probs = (xs.size - np.cumsum(counts) + counts) / xs.size\n",
        "P(X > v) counts samples strictly above v"),
    Mutant(
        "results-ccdf-no-leading-point", RESULTS,
        "    return [CcdfPoint(lo - margin, 1.0),\n"
        "            *map(",
        "    return [\n"
        "            *map(",
        "the CCDF starts with a point at probability 1 below the minimum"),
    Mutant(
        "results-ccdf-leading-point-at-minimum", RESULTS,
        "    margin = 0.01 * (hi - lo) if hi > lo else max(abs(lo) * 1e-9, 1e-9)\n",
        "    margin = 0.0\n",
        "the leading point lies strictly below the minimum"),
    Mutant(
        "results-ccdf-non-finite", RESULTS,
        "    if not np.isfinite(xs).all():\n",
        "    if False:\n",
        "a non-finite sample is refused"),
    Mutant(
        "results-dir-collision-reused", RESULTS,
        "            candidate.mkdir()\n",
        "            candidate.mkdir(exist_ok=True)\n",
        "two runs in one second get two folders"),
    Mutant(
        "results-dir-suffix-unpadded", RESULTS,
        "            candidate = base / f\"{run_name}_{stamp}_{suffix:02d}\"\n",
        "            candidate = base / f\"{run_name}_{stamp}_{suffix}\"\n",
        "a colliding run's folder takes a two-digit suffix"),
]

# Mutations with no place in the current code, or equivalent to it.
DROPPED = [
    ("the frozen lookahead's state restore, redraw, gemm column forward, "
     "break on a changed decision, rounded bins, observation carried between "
     "looked-ahead rows, and an epsilon-greedy agent sent to the frozen loop",
     "LinkSimEnv.lookahead, select_actions and the frozen loop are deleted"),
    ("`rng.random(w)` in `step` with the buffer in `lookahead`; "
     "`_fill_block` not clearing `_ahead`",
     "the lookahead and its `_ahead` cache are deleted"),
    ("`_play_frozen` or the merged loop stepping one more window after a "
     "looked-ahead decision changes; the decisions not reversed",
     "the loop no longer looks ahead: every agent decides each window"),
    ("no `learn is None` guard in the frozen predicate",
     "the frozen predicate is deleted; without the remaining guard every "
     "evaluation calls None"),
    ("`phy.snr_db` renamed",
     "every test then fails at import, which names no test; "
     "nn-no-adam-m-w removes a name only perfbench reads"),
    ("no clock guard and no reset drop together",
     "each is catalogued alone"),
    ("`agent.replay_capacity` or `agent.warmup` allowed at 0, `sim.frequency_mhz` "
     "at 0, or no path-loss check in `validate_config`",
     "equivalent: the warmup checks, and the check that a window's SNR sum is "
     "finite, refuse the same values with a message naming the same key"),
    ("`check_work_budget` that never refuses",
     "the suite's over-budget runs then play until the runner's timeout, which names "
     "no test; config-work-budget-100x moves the bound instead"),
]
