import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rateadapt
from rateadapt import phy
from rateadapt.config import (default_config, reference_config_text,
                              validate_config)
from rateadapt.errors import ConfigError

RATES = list(phy.DEFAULT_PHY_RATES_MBPS)

# Values the library cannot run with. The config is the only layer that
# checks them, so each one must fail here, with a violation naming the first
# key of its row.
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


def names_key(violation, key):
    return key in violation.replace(":", " ").split()


class TestValidation:
    def test_reference_config_accepted(self):
        cfg = validate_config(reference_config_text())
        assert cfg["agent"]["algorithm"] == "dara"
        assert cfg["sim"]["frequency_mhz"] == 5180.0

    def test_reference_config_text_pinned(self):
        # Every benchmark workload and the acceptance suite start from this
        # text, so a changed default must show up here as a deliberate edit.
        text = reference_config_text().encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == (
            "784a892510c79aa40085af2b73fcde487a39f5bbf6885bdf4846812f89ad6ccd")

    def test_defaults_resolved_for_empty_sections(self):
        cfg = validate_config('{"agent": {}, "gym": {}, "sim": {}}')
        assert cfg["agent"]["discount"] == 0.5
        assert cfg["agent"]["batch_size"] == 64
        assert cfg["agent"]["replay_capacity"] == 10**6
        assert cfg["gym"]["window_frames"] == 50
        assert cfg["sim"]["payload_bytes"] == 1400

    def test_discount_out_of_range(self):
        raw = json.dumps({"agent": {"discount": 1.5}, "gym": {}, "sim": {}})
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("agent.discount" in v and "<= 1" in v
                   for v in err.value.violations)

    def test_missing_sim_section(self):
        with pytest.raises(ConfigError) as err:
            validate_config('{"agent": {}, "gym": {}}')
        assert any("sim" in v and "missing" in v for v in err.value.violations)

    def test_unknown_key_rejected(self):
        raw = json.dumps({"agent": {"banana": 1}, "gym": {}, "sim": {}})
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("agent.banana" in v for v in err.value.violations)

    def test_unknown_section_rejected(self):
        raw = json.dumps({"agent": {}, "gym": {}, "sim": {}, "extra": {}})
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_all_violations_reported(self):
        raw = json.dumps({
            "agent": {"discount": 2.0, "batch_size": 0, "mystery": 1},
            "gym": {"window_frames": 0},
            "sim": {},
        })
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert len(err.value.violations) >= 4

    def test_cross_field_scaling_bounds(self):
        raw = json.dumps({"agent": {}, "sim": {},
                          "gym": {"snr_lo_db": 40.0, "snr_hi_db": 40.0}})
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any("snr_lo_db" in v for v in err.value.violations)

    def test_warmup_below_batch_size(self):
        raw = json.dumps({"agent": {"warmup": 8, "batch_size": 64},
                          "gym": {}, "sim": {}})
        with pytest.raises(ConfigError):
            validate_config(raw)

    def test_warmup_above_replay_capacity(self):
        raw = json.dumps({"agent": {"warmup": 101, "replay_capacity": 100},
                          "gym": {}, "sim": {}})
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert any(names_key(v, "agent.replay_capacity")
                   for v in err.value.violations)

    def test_warmup_equal_to_replay_capacity_accepted(self):
        raw = json.dumps({"agent": {"warmup": 100, "replay_capacity": 100},
                          "gym": {}, "sim": {}})
        assert validate_config(raw)["agent"]["replay_capacity"] == 100

    def test_log_records_at_bound_accepted(self):
        raw = json.dumps({"agent": {}, "gym": {},
                          "sim": {"duration_s": 1.0, "log_period_s": 1e-6}})
        assert validate_config(raw)["sim"]["log_period_s"] == 1e-6

    def test_short_airtime_above_clock_bound_accepted(self):
        raw = json.dumps({"agent": {}, "gym": {}, "sim": {
            "overhead_s": 0, "phy_rates_mbps": [*RATES[:7], 1e10]}})
        cfg = validate_config(raw)
        assert 50 * cfg.airtime_s().min() >= 60.0 * 2.0**-52

    def test_tiny_rate_accepted_when_the_receiver_stands_still(self):
        raw = json.dumps({"agent": {}, "gym": {}, "sim": {
            "speed_mps": 0, "phy_rates_mbps": [1e-305, *RATES[1:]]}})
        assert validate_config(raw)["sim"]["phy_rates_mbps"][0] == 1e-305

    def test_airtime_is_payload_time_plus_overhead(self):
        airtime = default_config().airtime_s()
        assert airtime[0] == 1400 * 8 / 6.5e6 + 100e-6
        assert np.all(np.diff(airtime) < 0)

    def test_parse_error(self):
        with pytest.raises(ConfigError) as err:
            validate_config("{not json")
        assert any("parse" in v.lower() for v in err.value.violations)

    def test_idempotent(self):
        cfg = validate_config(reference_config_text())
        again = validate_config(cfg.to_json())
        assert again.data == cfg.data


class TestSingleLayer:
    @pytest.mark.parametrize("overrides", REJECTED, ids=row_id)
    def test_value_rejected(self, overrides):
        raw = json.dumps(apply_overrides({"agent": {}, "gym": {}, "sim": {}},
                                         overrides))
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        key = next(iter(overrides))
        assert any(names_key(v, key) for v in err.value.violations)

    def test_config_loads_no_simulator_or_learner_module(self):
        # The schema owns the algorithm names; it reads only phy's constants.
        src = str(Path(rateadapt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, rateadapt.config; "
             "print(*sorted(m for m in sys.modules if m.startswith('rateadapt')))"],
            capture_output=True, text=True, timeout=60, env=env, check=True)
        loaded = set(proc.stdout.split())
        assert "rateadapt.config" in loaded
        assert not loaded & {f"rateadapt.{m}" for m in ("agents", "env", "nn", "dqn")}


class TestFingerprint:
    def test_stable(self):
        assert default_config().fingerprint() == default_config().fingerprint()

    def test_ignores_seed_and_episodes(self):
        base = default_config()
        other = base.with_overrides(seed=99, episodes=3)
        assert other.fingerprint() == base.fingerprint()

    def test_sensitive_to_architecture(self):
        base = default_config()
        other = base.with_overrides(hidden_layers=[32, 32])
        assert other.fingerprint() != base.fingerprint()


class TestDomainBuilders:
    def test_channel_units(self):
        cfg = default_config()
        params = cfg.channel_params()
        assert params.frequency_hz == 5180e6
        assert params.bandwidth_hz == 20e6

    def test_mcs_table(self):
        table = default_config().mcs_table()
        assert table.max_rate_mbps == 65.0

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            default_config().with_overrides(nonsense=1)
