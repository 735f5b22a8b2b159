"""The mutation catalogue: each entry is one small fault put into a copy of
the package, and the property of the package that it breaks.

`old` is exact text that occurs once in `file` (tests/test_mutants.py
checks that, so a refactor that moves the code updates the entry here);
`mutants/run.py` replaces it with `new` in a copy of the checkout and runs
the fast suite there. A catalogued mutant that no test kills is a fault the
suite misses: report it, do not edit the entry until it is killed.

The entries are the mutations that earlier changes ran by hand and
recorded in CHANGES.md, re-targeted at the current code; DROPPED lists those
that have no place in it any more. A change that checks a test by mutating
the code adds its mutation here.
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
        "                if len(chunk) < 2 <= batch_size:\n"
        "                    chunk = np.repeat(chunk, 2)\n",
        "",
        "a lone stale row is refreshed in a 2-row forward, so its y has the bits "
        "a batch gives"),
    Mutant(
        "replay-refresh-chunks-4x", REPLAY,
        "            for start in range(first, self._next, batch_size):\n"
        "                chunk = np.arange(start, min(start + batch_size, self._next)) % self.capacity\n",
        "            for start in range(first, self._next, 4 * batch_size):\n"
        "                chunk = np.arange(start, min(start + 4 * batch_size, self._next)) % self.capacity\n",
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
]

# Mutations CHANGES.md records that have no place in the current code.
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
]
