"""JSON configuration: schema, validation with full error lists, defaults
and the config fingerprint stored in checkpoints.

The file has three sections: `agent` (RL hyperparameters and the algorithm
name), `gym` (observation scaling and decision-window parameters) and `sim`
(PHY, traffic, mobility and episode parameters). Key names carry explicit
units (_mhz, _dbm, _s, _bytes) so values cannot silently drift. Unknown keys
are rejected.

This module is the one place where config values are validated: SCHEMA
holds the per-key rules and validate_config the cross-field ones. Library
constructors trust their arguments, which reach them through a RootConfig.
"""

from __future__ import annotations

import hashlib
import json
import math
from copy import deepcopy

import numpy as np

from . import phy
from .errors import ConfigError
# snr_db by its own name: phy.snr_db's call count is the env's alone, once
# per window plus reset's probe.
from .phy import ChannelParams, McsTable, snr_db

ALGORITHMS = ("dara", "dara_tabular", "ideal", "minstrel_like", "constant")


def _num(lo=None, hi=None, lo_open=False, hi_open=False):
    def check(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return "must be a number"
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an integer beyond float range
            finite = False
        if not finite:
            return "must be finite"
        if lo is not None and (v <= lo if lo_open else v < lo):
            return f"must be {'>' if lo_open else '>='} {lo}"
        if hi is not None and (v >= hi if hi_open else v > hi):
            return f"must be {'<' if hi_open else '<='} {hi}"
        return None
    return check


def _int(lo=None, hi=None):
    base = _num(lo, hi)
    def check(v):
        if isinstance(v, bool) or not isinstance(v, int):
            return "must be an integer"
        return base(v)
    return check


def _bool(v):
    return None if isinstance(v, bool) else "must be true or false"


def _choice(options):
    def check(v):
        if v not in options:
            return f"must be one of {sorted(options)}"
        return None
    return check


def _num_list(length=None, lo=None):
    def check(v):
        if not isinstance(v, list) or any(_num()(x) for x in v):
            return "must be a list of finite numbers"
        if length is not None and len(v) != length:
            return f"must have exactly {length} elements"
        if lo is not None and any(x <= lo for x in v):
            return f"elements must be > {lo}"
        return None
    return check


def _layer_widths(v):
    if (not isinstance(v, list) or not v
            or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 1
                       for x in v)):
        return "must be a non-empty list of integers >= 1"
    if len(v) > 8 or max(v) > 1024:
        return "must have at most 8 entries, each <= 1024"
    return None


# Schema: section -> key -> (default, validator). The caps on window_frames,
# hidden_layers and n_state_bins keep every array a run allocates small.
SCHEMA = {
    "agent": {
        "algorithm": ("dara", _choice(ALGORITHMS)),
        "seed": (1, _int(lo=0)),
        "episodes": (15, _int(lo=1)),
        "learning_rate": (0.01, _num(lo=0, lo_open=True)),
        "discount": (0.5, _num(lo=0, hi=1)),
        "epsilon_mode": ("fixed", _choice(("fixed", "linear"))),
        "epsilon_start": (0.1, _num(lo=0, hi=1)),
        "epsilon_end": (0.1, _num(lo=0, hi=1)),
        "epsilon_decay_steps": (10_000, _int(lo=1)),
        "batch_size": (64, _int(lo=1)),
        "replay_capacity": (1_000_000, _int(lo=1, hi=2**63 - 1)),
        "replay_persist_across_episodes": (True, _bool),
        "hidden_layers": ([16, 16, 16], _layer_widths),
        "train_every": (8, _int(lo=1)),
        "warmup": (1000, _int(lo=1)),
        "target_sync_every": (200, _int(lo=1)),
        "checkpoint_every": (5, _int(lo=1)),
        "n_state_bins": (32, _int(lo=1, hi=100_000)),
        "ideal_p_min": (0.9, _num(lo=0, hi=1, lo_open=True, hi_open=True)),
        "minstrel_probe_prob": (0.1, _num(lo=0, hi=1)),
        "minstrel_ewma_weight": (0.25, _num(lo=0, hi=1)),
        "constant_mcs": (0, _int(lo=0, hi=phy.N_MCS - 1)),
    },
    "gym": {
        "snr_lo_db": (0.0, _num()),
        "snr_hi_db": (40.0, _num()),
        "window_frames": (50, _int(lo=1, hi=100_000)),
    },
    "sim": {
        "frequency_mhz": (5180.0, _num(lo=0, lo_open=True)),
        "bandwidth_mhz": (20.0, _num(lo=0, lo_open=True)),
        "tx_power_dbm": (20.0, _num()),
        "noise_figure_db": (7.0, _num(lo=0)),
        "payload_bytes": (1400, _int(lo=1)),
        "overhead_s": (100e-6, _num(lo=0)),
        "start_distance_m": (1.0, _num(lo=phy.MINIMUM_DISTANCE_M)),
        "speed_mps": (20.0, _num(lo=0)),
        "duration_s": (60.0, _num(lo=0, lo_open=True)),
        "log_period_s": (1.0, _num(lo=0, lo_open=True)),
        "phy_rates_mbps": (list(phy.DEFAULT_PHY_RATES_MBPS),
                           _num_list(length=phy.N_MCS, lo=0)),
        "per_midpoints_db": (list(phy.DEFAULT_PER_MIDPOINTS_DB),
                             _num_list(length=phy.N_MCS)),
        "per_slopes_per_db": (list(phy.DEFAULT_PER_SLOPES_PER_DB),
                              _num_list(length=phy.N_MCS, lo=0)),
    },
}

# Keys that may legitimately differ between a training run and a later
# evaluation of its checkpoint; excluded from the fingerprint.
FINGERPRINT_EXCLUDE = {("agent", "seed"), ("agent", "episodes"),
                       ("agent", "checkpoint_every")}

# The throughput log holds one row per sim.log_period_s tick in memory.
MAX_LOG_RECORDS = 1_000_000

# An episode keeps each window's end time and bits in memory; a default
# episode plays about 1,650 windows.
MAX_WINDOWS = 1_000_000


class RootConfig:
    """A fully resolved, validated configuration."""

    def __init__(self, data: dict):
        self.data = data

    def __getitem__(self, section):
        return self.data[section]

    # -- domain object builders -------------------------------------------

    def channel_params(self) -> ChannelParams:
        sim = self.data["sim"]
        return ChannelParams(
            frequency_hz=sim["frequency_mhz"] * 1e6,
            tx_power_dbm=sim["tx_power_dbm"],
            bandwidth_hz=sim["bandwidth_mhz"] * 1e6,
            noise_figure_db=sim["noise_figure_db"],
        )

    def mcs_table(self) -> McsTable:
        sim = self.data["sim"]
        return McsTable(np.array(sim["phy_rates_mbps"], dtype=float),
                        np.array(sim["per_midpoints_db"], dtype=float),
                        np.array(sim["per_slopes_per_db"], dtype=float))

    def airtime_s(self) -> np.ndarray:
        """Seconds one frame occupies the channel at each MCS: payload time
        plus the fixed overhead. A rate whose bit rate overflows float64
        gives 0 s, which validate_config rejects."""
        sim = self.data["sim"]
        with np.errstate(over="ignore"):
            return (sim["payload_bytes"] * 8 / (self.mcs_table().rates_mbps * 1e6)
                    + sim["overhead_s"])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    def fingerprint(self) -> str:
        """SHA-256 over the resolved config minus run-length/seed keys, so a
        checkpoint stays usable for evaluation under different seeds."""
        basis = deepcopy(self.data)
        for section, key in FINGERPRINT_EXCLUDE:
            basis[section].pop(key, None)
        canonical = json.dumps(basis, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_overrides(self, **agent_overrides) -> "RootConfig":
        data = deepcopy(self.data)
        data["agent"].update(agent_overrides)
        return validate_config(json.dumps(data))


def validate_config(raw_json: str) -> RootConfig:
    """Parse, default-fill and range-check a config; raises ConfigError with
    the complete list of violations."""
    # ValueError is a JSONDecodeError or an integer literal longer than
    # Python's int-to-str digit limit.
    try:
        parsed = json.loads(raw_json)
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"JSON parse error: {exc}"]) from exc
    if not isinstance(parsed, dict):
        raise ConfigError(["top level must be a JSON object"])

    problems = []
    resolved = {}
    for section in parsed:
        if section not in SCHEMA:
            problems.append(f"{section}: unknown section")
    for section, keys in SCHEMA.items():
        if section not in parsed:
            problems.append(f"{section}: missing section")
            parsed = {**parsed, section: {}}
        given = parsed.get(section, {})
        if not isinstance(given, dict):
            problems.append(f"{section}: must be a JSON object")
            given = {}
        for key in given:
            if key not in keys:
                problems.append(f"{section}.{key}: unknown key")
        out = {}
        for key, (default, validator) in keys.items():
            value = given.get(key, deepcopy(default))
            err = validator(value)
            if err:
                problems.append(f"{section}.{key}: {err} (got {value!r})")
            out[key] = value
        resolved[section] = out

    # Cross-field checks only make sense on well-typed values. Their float
    # expressions may overflow or divide by zero, and each check reads the
    # non-finite result, so no numpy warning is raised.
    if not problems:
        agent, gym, sim = resolved["agent"], resolved["gym"], resolved["sim"]
        if gym["snr_lo_db"] >= gym["snr_hi_db"]:
            problems.append("gym.snr_lo_db must be < gym.snr_hi_db")
        if agent["warmup"] < agent["batch_size"]:
            problems.append("agent.warmup must be >= agent.batch_size")
        if agent["warmup"] > agent["replay_capacity"]:
            problems.append("agent.warmup must be <= agent.replay_capacity")
        if agent["algorithm"] == "dara_tabular" and agent["learning_rate"] > 1:
            problems.append("agent.learning_rate must be <= 1 for dara_tabular")
        if sim["duration_s"] / sim["log_period_s"] > MAX_LOG_RECORDS:
            problems.append(f"sim.log_period_s must be >= sim.duration_s / {MAX_LOG_RECORDS}")
        rates, mids = sim["phy_rates_mbps"], sim["per_midpoints_db"]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            problems.append("sim.phy_rates_mbps must be strictly increasing")
        if any(b <= a for a, b in zip(mids, mids[1:])):
            problems.append("sim.per_midpoints_db must be strictly increasing")
        # The clock must advance by at least one float64 ulp per window for
        # every clock value short of duration_s, or the episode never ends.
        # The receiver is farthest at the end of a slowest-MCS window that
        # starts just before duration_s; phy needs a finite path loss there.
        # A window's mean ACK SNR sums window_frames SNRs, and SNR falls with
        # distance, so the SNRs at the start and the farthest distance bound
        # every term of every window's sum.
        cfg = RootConfig(resolved)
        channel, airtime = cfg.channel_params(), cfg.airtime_s()
        with np.errstate(all="ignore"):
            clock_ok = gym["window_frames"] * airtime.min() >= sim["duration_s"] * 2.0**-52
            farthest = sim["start_distance_m"] + sim["speed_mps"] * (
                sim["duration_s"] + gym["window_frames"] * airtime.max())
            loss = phy.friis_path_loss(farthest, channel)
            ends = snr_db(np.array([sim["start_distance_m"], farthest]), channel)
            snr_sum_bound = gym["window_frames"] * np.abs(ends).max()
        airtime_text = ("frame airtime sim.overhead_s + sim.payload_bytes * 8 / a "
                        "sim.phy_rates_mbps entry")
        farthest_text = ("the farthest distance sim.start_distance_m + sim.speed_mps * T at "
                         "T = sim.duration_s + gym.window_frames * the longest "
                         + airtime_text)
        if not clock_ok:
            problems.append("sim.overhead_s too small for sim.phy_rates_mbps: "
                            "gym.window_frames times the shortest " + airtime_text
                            + " must be >= sim.duration_s * 2**-52, or the clock "
                            "stops before sim.duration_s")
        if not np.isfinite(loss):
            problems.append("sim.speed_mps too high for sim.phy_rates_mbps: the path "
                            "loss at sim.frequency_mhz must be finite at " + farthest_text)
        elif not np.isfinite(snr_sum_bound):
            problems.append("sim.tx_power_dbm out of range for sim.noise_figure_db "
                            "sim.bandwidth_mhz and sim.frequency_mhz: gym.window_frames "
                            "times the larger |SNR| in dB must be finite at "
                            "sim.start_distance_m and at " + farthest_text)

    if problems:
        raise ConfigError(problems)
    return RootConfig(resolved)


def check_work_budget(cfg: RootConfig):
    """Raise ConfigError if an episode could play more than MAX_WINDOWS
    windows: duration_s over the shortest window, plus the one that crosses
    it. Kept out of validate_config, which also serves envs driven directly
    for longer."""
    sim, gym = cfg["sim"], cfg["gym"]
    windows = sim["duration_s"] / (gym["window_frames"] * cfg.airtime_s().min()) + 1
    if not windows <= MAX_WINDOWS:
        raise ConfigError([f"sim.duration_s too long: an episode could play {windows:.3g} "
                           f"windows of gym.window_frames frames at the shortest "
                           f"airtime, more than {MAX_WINDOWS}"])


def default_config() -> RootConfig:
    """The fully resolved defaults (all three sections present but empty)."""
    return validate_config('{"agent": {}, "gym": {}, "sim": {}}')


def reference_config_text() -> str:
    """The reference config: every default, rendered from SCHEMA."""
    return json.dumps(default_config().data, indent=2) + "\n"
