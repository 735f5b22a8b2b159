import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from rateadapt.agents import IdealAgent
from rateadapt.config import (MAX_WINDOWS, SCHEMA, check_work_budget, default_config,
                              reference_config_text, validate_config)
from rateadapt.errors import ConfigError
from tests.reference import (RATES, REJECTED, apply_overrides, ideal_mismatches, row_id,
                             subprocess_env)


def names_key(violation, key):
    return key in violation.replace(":", " ").split()


def raw_config(overrides=(), **sections):
    """validate_config's input: the agent, gym and sim sections with the keys
    `sections` gives, then each dotted `section.key` of `overrides` set."""
    data = {name: dict(sections.get(name, {})) for name in ("agent", "gym", "sim")}
    return json.dumps(apply_overrides(data, dict(overrides)))


def violations(raw):
    """The violations of the ConfigError validate_config raises on `raw`."""
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    return err.value.violations


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
        cfg = validate_config(raw_config())
        assert cfg["agent"]["discount"] == 0.5
        assert cfg["agent"]["batch_size"] == 64
        assert cfg["agent"]["replay_capacity"] == 10**6
        assert cfg["gym"]["window_frames"] == 50
        assert cfg["sim"]["payload_bytes"] == 1400

    def test_discount_out_of_range(self):
        assert any("agent.discount" in v and "<= 1" in v
                   for v in violations(raw_config(agent={"discount": 1.5})))

    def test_missing_sim_section(self):
        assert any("sim" in v and "missing" in v
                   for v in violations('{"agent": {}, "gym": {}}'))

    def test_unknown_key_rejected(self):
        assert any("agent.banana" in v for v in violations(raw_config(agent={"banana": 1})))

    def test_unknown_section_rejected(self):
        violations(json.dumps({"agent": {}, "gym": {}, "sim": {}, "extra": {}}))

    def test_all_violations_reported(self):
        raw = raw_config(agent={"discount": 2.0, "batch_size": 0, "mystery": 1},
                         gym={"window_frames": 0})
        assert len(violations(raw)) >= 4

    def test_cross_field_scaling_bounds(self):
        raw = raw_config(gym={"snr_lo_db": 40.0, "snr_hi_db": 40.0})
        assert any("snr_lo_db" in v for v in violations(raw))

    def test_warmup_below_batch_size(self):
        violations(raw_config(agent={"warmup": 8, "batch_size": 64}))

    def test_warmup_above_replay_capacity(self):
        raw = raw_config(agent={"warmup": 101, "replay_capacity": 100})
        assert any(names_key(v, "agent.replay_capacity") for v in violations(raw))

    def test_warmup_equal_to_replay_capacity_accepted(self):
        raw = raw_config(agent={"warmup": 100, "replay_capacity": 100})
        assert validate_config(raw)["agent"]["replay_capacity"] == 100

    def test_log_records_at_bound_accepted(self):
        raw = raw_config(sim={"duration_s": 1.0, "log_period_s": 1e-6})
        assert validate_config(raw)["sim"]["log_period_s"] == 1e-6

    @pytest.mark.parametrize("overrides", [
        {"gym.window_frames": 100_000},
        {"agent.n_state_bins": 100_000},
        pytest.param({"agent.hidden_layers": [1024] * 8},
                     id="agent.hidden_layers=8x1024"),
    ], ids=row_id)
    def test_size_at_cap_accepted(self, overrides):
        # validates only: no env or network is built at the cap
        cfg = validate_config(raw_config(overrides))
        (dotted, value), = overrides.items()
        section, key = dotted.split(".")
        assert cfg[section][key] == value

    def test_short_airtime_above_clock_bound_accepted(self):
        cfg = validate_config(raw_config(sim={"overhead_s": 0,
                                              "phy_rates_mbps": [*RATES[:7], 1e10]}))
        assert 50 * cfg.airtime_s().min() >= 60.0 * 2.0**-52

    def test_tiny_rate_accepted_when_the_receiver_stands_still(self):
        raw = raw_config(sim={"speed_mps": 0, "phy_rates_mbps": [1e-305, *RATES[1:]]})
        assert validate_config(raw)["sim"]["phy_rates_mbps"][0] == 1e-305

    def test_airtime_is_payload_time_plus_overhead(self):
        airtime = default_config().airtime_s()
        assert airtime[0] == 1400 * 8 / 6.5e6 + 100e-6
        assert np.all(np.diff(airtime) < 0)

    def test_parse_error(self):
        assert any("parse" in v.lower() for v in violations("{not json"))

    def test_idempotent(self):
        cfg = validate_config(reference_config_text())
        again = validate_config(cfg.to_json())
        assert again.data == cfg.data


class TestWorkBudget:
    @staticmethod
    def config_of(windows):
        """The default config with a duration of about `windows` windows at
        the shortest airtime."""
        data = json.loads(default_config().to_json())
        shortest = 50 * default_config().airtime_s().min()
        data["sim"].update(duration_s=windows * shortest, log_period_s=1e3)
        return validate_config(json.dumps(data))

    def test_default_and_reference_configs_within_budget(self):
        check_work_budget(default_config())
        check_work_budget(validate_config(reference_config_text()))

    def test_just_under_budget_accepted(self):
        check_work_budget(self.config_of(0.99 * MAX_WINDOWS))

    @pytest.mark.parametrize("windows", [1.01 * MAX_WINDOWS, 7e10, MAX_WINDOWS - 0.5])
    def test_over_budget_rejected(self, windows):
        # validate_config accepts it: envs driven directly may run longer.
        # MAX_WINDOWS - 0.5 is over only with the window that crosses duration_s.
        cfg = self.config_of(windows)
        with pytest.raises(ConfigError, match="sim.duration_s too long"):
            check_work_budget(cfg)


# Extreme values for the sweep over every numeric key: the float range's
# edges, subnormals, zero and values that overflow once multiplied.
EXTREME_FLOATS = (1.7e308, -1.7e308, 5e-324, -5e-324, 1e-320, -1e-320, 0.0,
                  1e300, -1e300, 1e-300, -1e-300)
EXTREME_INTS = (0, 1, 2**63, 10**300)


def extreme_overrides():
    """One {key: value} per numeric SCHEMA key and extreme value; a list key
    takes 8 equal entries and 8 entries scaled by 1..8, which increase."""
    for section, keys in SCHEMA.items():
        for key, (default, _) in keys.items():
            sample = default[0] if isinstance(default, list) else default
            if isinstance(sample, (bool, str)):
                continue
            for v in EXTREME_INTS if isinstance(sample, int) else EXTREME_FLOATS:
                if isinstance(default, list):
                    yield {f"{section}.{key}": [v] * 8}
                    yield {f"{section}.{key}": [v * k for k in range(1, 9)]}
                else:
                    yield {f"{section}.{key}": v}


def test_every_numeric_key_at_extreme_values_returns_or_raises_config_error():
    # A warning, which pyproject turns into an error, or any exception other
    # than ConfigError is collected. Where the override reaches the MCS table
    # or p_min, Ideal's thresholds are built, and they must never decrease and
    # must decide each edge as the 8-MCS rule does.
    failures = []
    for overrides in extreme_overrides():
        try:
            cfg = validate_config(raw_config(overrides))
            check_work_budget(cfg)
            if next(iter(overrides)).startswith(("sim.per_", "sim.phy_rates", "agent.ideal_p")):
                table, p_min = cfg.mcs_table(), cfg["agent"]["ideal_p_min"]
                agent = IdealAgent(table, p_min)
                assert agent.thresholds == sorted(agent.thresholds)
                assert ideal_mismatches(agent, p_min, table) == []
        except ConfigError:
            pass
        except Exception as exc:  # noqa: BLE001 - collected and reported
            failures.append((overrides, repr(exc)))
    assert failures == []


class TestSingleLayer:
    @pytest.mark.parametrize("overrides", REJECTED, ids=row_id)
    def test_value_rejected(self, overrides):
        key = next(iter(overrides))
        assert any(names_key(v, key) for v in violations(raw_config(overrides)))

    def test_config_loads_no_simulator_or_learner_module(self):
        # The schema owns the algorithm names; it reads only phy's constants.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, rateadapt.config; "
             "print(*sorted(m for m in sys.modules if m.startswith('rateadapt')))"],
            capture_output=True, text=True, timeout=60, env=subprocess_env(), check=True)
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
