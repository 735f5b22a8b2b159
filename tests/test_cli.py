import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from rateadapt import checkpoint as ckpt_io, harness
from rateadapt.cli import _build_parser, cli_main
from rateadapt.config import ALGORITHMS
from tests.reference import (REJECTED, apply_overrides, row_id, subprocess_env, tiny_data,
                             with_header)


def write_tiny_config(path, sim=(), gym=(), **agent):
    path.write_text(json.dumps(tiny_data(sim, gym, **agent)), encoding="utf-8")
    return path


def cli(command, config, results, *options):
    """cli_main's exit code for `rateadapt <command> --config <config>
    --results <results>` and any further options."""
    return cli_main([command, "--config", str(config), "--results", str(results),
                     *map(str, options)])


def trained_run(config, out):
    """The run folder `rateadapt train` makes in `out` with the config file
    `config`."""
    assert cli("train", config, out) == 0
    return run_dir_of(out)


def run_dir_of(base):
    dirs = [p for p in base.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


class TestTrain:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        assert cli("train", cfg, tmp_path / "out") == 0
        run = run_dir_of(tmp_path / "out")
        assert (run / "episodes.csv").exists()
        assert (run / "policy_ep002.ckpt").exists()
        assert (run / "config.resolved.json").exists()
        out = capsys.readouterr().out
        assert "episode 1/2" in out and "episode 2/2" in out

    def test_resolved_config_provenance(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        run = trained_run(cfg, tmp_path / "out")
        from rateadapt.config import validate_config
        resolved = (run / "config.resolved.json").read_text()
        assert validate_config(resolved).to_json() == resolved

    def test_invalid_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"agent": {"discount": 7}, "gym": {}, "sim": {}}')
        assert cli_main(["train", "--config", str(bad)]) == 1

    def test_missing_config_exit_1(self, tmp_path):
        assert cli_main(["train", "--config", str(tmp_path / "nope.json")]) == 1

    def test_non_trainable_algorithm_exit_1_without_run_folder(self, tmp_path,
                                                               capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json", algorithm="constant")
        assert_config_error(capsys, "train", cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_seed_and_episode_overrides(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        assert cli("train", cfg, tmp_path / "out", "--episodes", 1, "--seed", 9) == 0
        run = run_dir_of(tmp_path / "out")
        rows = (run / "episodes.csv").read_text().splitlines()
        assert len(rows) == 2  # header + 1 episode
        resolved = json.loads((run / "config.resolved.json").read_text())
        assert resolved["agent"]["seed"] == 9


class TestEval:
    def test_dara_without_checkpoint_exit_1(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        assert cli("eval", cfg, tmp_path / "out") == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_fingerprint_mismatch_exit_1(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        ckpt = trained_run(cfg, tmp_path / "train") / "policy_ep002.ckpt"
        other = write_tiny_config(tmp_path / "other.json", hidden_layers=[4, 4])
        assert cli("eval", other, tmp_path / "eval", "--checkpoint", ckpt) == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_wrong_checkpoint_kind_exit_1_without_run_folder(self, tmp_path, capsys):
        tabular = write_tiny_config(tmp_path / "tabular.json",
                                    algorithm="dara_tabular", episodes=1)
        ckpt = trained_run(tabular, tmp_path / "train") / "policy_ep001.ckpt"
        dqn = write_tiny_config(tmp_path / "dqn.json")
        with pytest.warns(UserWarning, match="fingerprint"):
            assert_config_error(capsys, "eval", dqn, tmp_path / "eval", "--checkpoint", ckpt,
                                "--allow-fingerprint-mismatch")
        assert not (tmp_path / "eval").exists()

    def test_ideal_eval_without_checkpoint(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json", algorithm="ideal")
        assert cli("eval", cfg, tmp_path / "out") == 0

    @pytest.mark.parametrize("sim,gym", [
        ({"per_slopes_per_db": [1e308] * 8}, {}),
        ({}, {"snr_lo_db": 0.0, "snr_hi_db": 1e-320}),
        ({"log_period_s": 1.7e308}, {}),
    ], ids=["per_slopes_per_db=1e308", "snr_hi_db=1e-320", "log_period_s=1.7e308"])
    def test_extreme_accepted_config_runs_without_warning(self, tmp_path, capsys,
                                                          sim, gym):
        # Each overflows a float expression on the way to a finite result;
        # pyproject turns a numpy warning into an error.
        cfg = write_tiny_config(tmp_path / "cfg.json", sim, gym, algorithm="ideal")
        assert cli("eval", cfg, tmp_path / "out") == 0
        assert capsys.readouterr().err == ""

    def test_ideal_with_absurd_tx_power_exit_1_without_run_folder(self, tmp_path,
                                                                  capsys):
        # accepted, its windows' ACK-SNR sums would overflow to inf
        cfg = write_tiny_config(tmp_path / "cfg.json", {"tx_power_dbm": 1e308},
                                algorithm="ideal")
        assert_config_error(capsys, "eval", cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_ideal_with_missing_checkpoint_exit_1_without_run_folder(self, tmp_path,
                                                                      capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json", algorithm="ideal")
        assert_config_error(capsys, "eval", cfg, tmp_path / "out",
                            "--checkpoint", tmp_path / "nonexistent.ckpt")
        assert not (tmp_path / "out").exists()

    def test_ideal_with_checkpoint_exit_1_without_run_folder(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json", episodes=1)
        ckpt = trained_run(cfg, tmp_path / "train") / "policy_ep001.ckpt"
        ideal = write_tiny_config(tmp_path / "ideal.json", algorithm="ideal")
        with pytest.warns(UserWarning, match="fingerprint"):
            code = cli("eval", ideal, tmp_path / "out", "--checkpoint", ckpt,
                       "--allow-fingerprint-mismatch")
        assert code == 1
        assert "algorithm 'ideal' takes no checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_folder_self_contained_reproduction(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        train_run = trained_run(cfg, tmp_path / "train")

        def evaluate(dest):
            assert cli("eval", train_run / "config.resolved.json", tmp_path / dest,
                       "--checkpoint", train_run / "policy_ep002.ckpt") == 0
            return (run_dir_of(tmp_path / dest) / "throughput_eval.csv").read_bytes()

        assert evaluate("eval_a") == evaluate("eval_b")


class TestSweepAndCcdf:
    def test_sweep_winner_from_unrounded_rewards(self, tmp_path, capsys,
                                                 monkeypatch):
        # Both finals read 1.000000 at six decimals; the second is larger.
        finals = {0.1: 1.0000001, 0.01: 1.0000004}

        def fake_training(cfg, results_dir, progress=None):
            reward = finals[cfg["agent"]["learning_rate"]]
            return [harness.EpisodeSummary(1, reward, 0.0, 0)], None

        monkeypatch.setattr(harness, "run_training", fake_training)
        cfg = write_tiny_config(tmp_path / "cfg.json", episodes=1)
        assert cli("sweep", cfg, tmp_path / "out", "--learning-rates", "0.1,0.01",
                   "--architectures", "4", "--seeds", 1) == 0
        assert ("winner: lr=0.01 arch=4 seed=1 final_cum_reward=1.000000\n"
                in capsys.readouterr().out)

    def test_ccdf_from_logs(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        run = trained_run(cfg, tmp_path / "train")
        assert cli_main(["ccdf", "--run-dir", str(run)]) == 0
        lines = (run / "ccdf.csv").read_text().splitlines()
        assert lines[0] == "throughput_mbps,ccdf"
        assert len(lines) > 2

    def test_ccdf_reads_throughput_column_by_name(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "throughput_001.csv").write_text(
            "throughput_mbps,time_s\n3.0,1.0\n5.0,2.0\n", encoding="utf-8")
        assert cli_main(["ccdf", "--run-dir", str(run)]) == 0
        lines = (run / "ccdf.csv").read_text().splitlines()
        assert lines[2:] == ["3.000000,0.500000", "5.000000,0.000000"]

    @pytest.mark.parametrize("text", [
        "time_s,rate\n1.0,2.0\n",
        "time_s,throughput_mbps\n",
        "time_s,throughput_mbps\n1.0,fast\n",
        "time_s,throughput_mbps\n1.0\n",
        "time_s,throughput_mbps\n1.0," + "9" * 131_073 + "\n",
    ], ids=["no_column", "no_rows", "not_a_number", "short_row", "field_over_csv_limit"])
    def test_ccdf_bad_log_exit_2(self, tmp_path, capsys, text):
        (tmp_path / "throughput_001.csv").write_text(text, encoding="utf-8")
        assert cli_main(["ccdf", "--run-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_ccdf_without_logs_exit_2(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert cli_main(["ccdf", "--run-dir", str(tmp_path / "empty")]) == 2

    def test_sweep_non_trainable_exit_1_without_run_folder(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json", algorithm="constant",
                                episodes=1)
        assert_config_error(capsys, "sweep", cfg, tmp_path / "out",
                            "--learning-rates", "0.01", "--architectures", "4")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("learning_rates,architectures,violation", [
        ("0", "4", "agent.learning_rate: must be > 0"),
        ("0.01", "0", "agent.hidden_layers: must be a non-empty list"),
        ("0,0.01", "4;0;0x4", "agent.learning_rate: must be > 0"),
    ], ids=["learning_rate_0", "architecture_0", "mixed_grid"])
    def test_sweep_bad_grid_value_exit_1_without_run_folder(
            self, tmp_path, capsys, learning_rates, architectures, violation):
        cfg = write_tiny_config(tmp_path / "cfg.json", episodes=1)
        assert cli("sweep", cfg, tmp_path / "out", "--learning-rates", learning_rates,
                   "--architectures", architectures, "--seeds", "1,2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and violation in err
        assert err.count(violation) == 1  # each distinct violation once
        assert not (tmp_path / "out").exists()

    def test_sweep_seed_prefix_reads_as_seeds(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json", episodes=1)
        assert cli("sweep", cfg, tmp_path / "out", "--learning-rates", "0.01",
                   "--architectures", "4", "--seed", 3) == 0
        rows = (run_dir_of(tmp_path / "out") / "sweep_summary.csv").read_text()
        assert rows.splitlines()[1].split(",")[2] == "3"


def test_one_entry_per_table_adds_an_algorithm(tmp_path, monkeypatch):
    # dara_copy, registered with dara's kind and builders and nothing else,
    # trains, evaluates its own checkpoint and sweeps, writing dara's bytes.
    monkeypatch.setitem(ALGORITHMS, "dara_copy", ALGORITHMS["dara"])
    monkeypatch.setitem(harness.BUILDERS, "dara_copy", harness.BUILDERS["dara"])

    def outputs(algorithm):
        """Each CSV the three commands write, by command and path below
        the run folder."""
        cfg = write_tiny_config(tmp_path / f"{algorithm}.json", algorithm=algorithm,
                                warmup=8, batch_size=8)
        out = tmp_path / algorithm
        ckpt = trained_run(cfg, out / "train") / "policy_ep002.ckpt"
        assert cli("eval", cfg, out / "eval", "--checkpoint", ckpt) == 0
        assert cli("sweep", cfg, out / "sweep", "--learning-rates", "0.01",
                   "--architectures", "4") == 0
        return {(path.relative_to(out).parts[0], *path.relative_to(out).parts[2:]):
                path.read_bytes() for path in out.rglob("*.csv")}

    dara = outputs("dara")
    assert {"episodes.csv", "throughput_002.csv", "throughput_eval.csv",
            "sweep_summary.csv"} <= {key[-1] for key in dara}
    assert not dara["train", "episodes.csv"].endswith(b",0\n")  # it trained
    assert outputs("dara_copy") == dara


def assert_config_error(capsys, *args):
    """Run cli(*args); assert exit 1 and an `error:` line, and return stderr."""
    assert cli(*args) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    return err


def poison_array(path, name):
    """Overwrite the first element of the checkpoint array `name` with NaN."""
    raw = bytearray(path.read_bytes())
    start = len(ckpt_io.MAGIC)
    nl = raw.index(b"\n", start)
    offset = nl + 1
    for entry in json.loads(raw[start:nl])["arrays"]:
        if entry["name"] == name:
            raw[offset:offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
            path.write_bytes(bytes(raw))
            return
        offset += 8 * int(np.prod(entry["shape"]))
    raise KeyError(name)


class TestInputHoles:
    @pytest.mark.parametrize("section,key,value", [
        ("sim", "duration_s", float("nan")),
        ("sim", "duration_s", float("inf")),
        ("sim", "speed_mps", float("nan")),
        ("agent", "learning_rate", float("nan")),
        ("agent", "discount", float("nan")),
        ("gym", "snr_hi_db", float("nan")),
        ("sim", "per_midpoints_db", [float("nan")] * 8),
    ])
    def test_non_finite_config_value_exit_1(self, tmp_path, capsys,
                                            section, key, value):
        path = write_tiny_config(tmp_path / "cfg.json")
        data = json.loads(path.read_text())
        data[section][key] = value
        path.write_text(json.dumps(data))  # writes NaN / Infinity literals
        assert_config_error(capsys, "train", path, tmp_path / "out")

    @pytest.mark.parametrize("overrides", REJECTED, ids=row_id)
    def test_config_layer_rejection_exit_1(self, tmp_path, capsys, overrides):
        path = write_tiny_config(tmp_path / "cfg.json")
        data = apply_overrides(json.loads(path.read_text()), overrides)
        path.write_text(json.dumps(data))
        err = assert_config_error(capsys, "train", path, tmp_path / "out")
        # the schema's message names the row's key, so a refusal that only a
        # later layer makes (such as trained_kind's of an unknown name) fails
        assert next(iter(overrides)) in err.replace(":", " ").split()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,algorithm,seed", [
        ("train", "dara", "-1"),
        ("eval", "constant", "-5"),
    ])
    def test_negative_seed_exit_1(self, tmp_path, capsys, command, algorithm, seed):
        path = write_tiny_config(tmp_path / "cfg.json", algorithm=algorithm)
        assert_config_error(capsys, command, path, tmp_path / "out", "--seed", seed)

    @pytest.mark.parametrize("command,algorithm", [("train", "dara"),
                                                   ("eval", "constant")])
    def test_seed_beyond_float_range_exit_1(self, tmp_path, capsys, command,
                                            algorithm):
        path = write_tiny_config(tmp_path / "cfg.json", algorithm=algorithm)
        assert_config_error(capsys, command, path, tmp_path / "out", "--seed", 10**400)

    def test_tabular_learning_rate_above_one_exit_1(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path / "cfg.json", algorithm="dara_tabular",
                                 learning_rate=2)
        assert_config_error(capsys, "train", path, tmp_path / "out")

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("kind"),
        lambda h: h.update(layer_sizes=[1, 4, 8]),
        lambda h: h.update(layer_sizes=[]),
        lambda h: h.update(kind="tabular", n_state_bins=3),
        lambda h: h.update(kind="bogus"),
        lambda h: h.update(train_step="x"),
        lambda h: h.update(train_step=1.5),
        lambda h: h["adam"].update(t=[]),
        lambda h: h["adam"].update(learning_rate=None),
        lambda h: h.pop("adam"),
        lambda h: h["arrays"][0].update(shape=[1e308, 1e308]),
    ], ids=["no_kind", "shape_mismatch", "no_layers", "tabular_shape", "bad_kind",
            "train_step_x", "train_step_1.5", "adam_t_list", "adam_learning_rate_null",
            "no_adam", "shape_inf"])
    def test_malformed_checkpoint_header_exit_1(self, tmp_path, capsys, edit):
        path = write_tiny_config(tmp_path / "cfg.json", episodes=1)
        ckpt = trained_run(path, tmp_path / "train") / "policy_ep001.ckpt"
        ckpt.write_bytes(with_header(ckpt.read_bytes(), edit))
        assert_config_error(capsys, "eval", path, tmp_path / "eval", "--checkpoint", ckpt)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("algorithm,array", [
        ("dara_tabular", "q_values"),
        ("dara", "adam_vb1"),
    ])
    def test_non_finite_checkpoint_array_exit_1(self, tmp_path, capsys,
                                                algorithm, array):
        path = write_tiny_config(tmp_path / "cfg.json", algorithm=algorithm,
                                 episodes=1)
        ckpt = trained_run(path, tmp_path / "train") / "policy_ep001.ckpt"
        poison_array(ckpt, array)
        assert_config_error(capsys, "eval", path, tmp_path / "eval", "--checkpoint", ckpt)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverged_training_writes_no_checkpoint_exit_1(self, tmp_path, capsys):
        # A step this large drives the weights to non-finite values within
        # the first episode; load would reject a checkpoint of them.
        path = write_tiny_config(tmp_path / "cfg.json", learning_rate=1e300,
                                 warmup=8, batch_size=8, train_every=1)
        assert cli("train", path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert not (run_dir_of(tmp_path / "out") / "policy_ep001.ckpt").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverged_episode_ends_training_before_its_output(self, tmp_path,
                                                              capsys):
        # With 3 s episodes and warmup 64, learning starts within the
        # second episode, and the weights go non-finite there.
        path = write_tiny_config(tmp_path / "cfg.json", learning_rate=1e300,
                                 warmup=64, train_every=1, episodes=5,
                                 checkpoint_every=5, sim={"duration_s": 3.0})
        assert cli("train", path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "diverged in episode 2, array 'w0' holds non-finite values" in err
        run = run_dir_of(tmp_path / "out")
        assert sorted(p.name for p in run.iterdir()) == [
            "config.resolved.json", "episodes.csv", "throughput_001.csv"]
        rows = (run / "episodes.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["episode", "1"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_sweep_records_diverged_cell_as_failed(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json", warmup=8, batch_size=8,
                                train_every=1, episodes=1)
        assert cli("sweep", cfg, tmp_path / "out", "--learning-rates", "1e300,0.01",
                   "--architectures", "4", "--seeds", 1) == 0
        with open(run_dir_of(tmp_path / "out") / "sweep_summary.csv",
                  encoding="utf-8", newline="") as f:
            diverged, fine = csv.DictReader(f)
        assert "diverged in episode 1" in diverged["error"]
        assert diverged["final_cum_reward"] == ""
        assert fine["error"] == "" and fine["final_cum_reward"] != ""

    @pytest.mark.parametrize("command,algorithm", [
        ("train", "dara"), ("eval", "constant"), ("sweep", "dara")])
    def test_episode_over_the_work_budget_exit_1(self, tmp_path, capsys,
                                                 command, algorithm):
        # 1e9 s of MCS 7's 14 ms windows is about 7e10 windows, and the log
        # bound holds; without the budget the run grows its per-window lists
        # until memory runs out.
        path = write_tiny_config(tmp_path / "cfg.json",
                                 {"duration_s": 1e9, "log_period_s": 1e3},
                                 algorithm=algorithm, constant_mcs=7)
        assert_config_error(capsys, command, path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [
        b'{"agent": {"algorithm": "\xff"}, "gym": {}, "sim": {}}',
        b"[" * 100_000,
        # beyond Python's 4,300-digit int-to-str limit, so json.loads fails
        b'{"agent": {"seed": 1' + b"0" * 5000 + b'}, "gym": {}, "sim": {}}',
    ], ids=["non_utf8", "deeply_nested", "5001_digit_integer"])
    def test_unparseable_config_exit_1(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert_config_error(capsys, "train", path, tmp_path / "out")

    @pytest.mark.parametrize("results", ["taken", "taken/sub"],
                             ids=["a_file", "under_a_file"])
    def test_results_not_a_directory_exit_1(self, tmp_path, capsys, results):
        path = write_tiny_config(tmp_path / "cfg.json")
        (tmp_path / "taken").write_text("not a directory", encoding="utf-8")
        assert_config_error(capsys, "train", path, tmp_path / results)

    def test_checkpoint_is_a_directory_exit_1(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path / "cfg.json")
        assert_config_error(capsys, "eval", path, tmp_path / "eval", "--checkpoint", tmp_path)

    @pytest.mark.parametrize("name", ["throughput_001.csv", "ccdf.csv"])
    def test_ccdf_log_is_a_directory_exit_2(self, tmp_path, capsys, name):
        run = tmp_path / "run"
        (run / name).mkdir(parents=True)
        if name == "ccdf.csv":  # a valid log, so only the write fails
            (run / "throughput_001.csv").write_text(
                "throughput_mbps\n1.0\n", encoding="utf-8")
        assert cli_main(["ccdf", "--run-dir", str(run)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_ccdf_non_finite_sample_exit_2(self, tmp_path, value):
        # results.ccdf once looped forever on a NaN; in a child process, a
        # hang ends at the timeout and fails the test.
        (tmp_path / "throughput_001.csv").write_text(
            f"throughput_mbps\n1.0\n{value}\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from rateadapt.cli import cli_main; "
             "sys.exit(cli_main(sys.argv[1:]))",
             "ccdf", "--run-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=60, env=subprocess_env(),
            check=False)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_deeply_nested_checkpoint_header_exit_1(self, tmp_path, capsys):
        path = write_tiny_config(tmp_path / "cfg.json")
        ckpt = tmp_path / "nested.ckpt"
        ckpt.write_bytes(ckpt_io.MAGIC + b"[" * 100_000 + b"\n")
        assert_config_error(capsys, "eval", path, tmp_path / "eval", "--checkpoint", ckpt)


class TestUsage:
    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) == 1

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rateadapt.cli", "train",
             "--config", str(tmp_path / "missing.json")],
            capture_output=True, text=True, timeout=60, env=subprocess_env(),
            check=False)
        assert proc.returncode == 1
        assert "error:" in proc.stderr

    def test_each_command_takes_only_the_options_it_reads(self):
        commands = _build_parser()._subparsers._group_actions[0].choices
        options = {name: {opt for action in p._actions for opt in action.option_strings
                          if opt.startswith("--") and opt != "--help"}
                   for name, p in commands.items()}
        assert options == {
            "train": {"--config", "--results", "--seed", "--episodes"},
            "eval": {"--config", "--results", "--seed", "--checkpoint",
                     "--allow-fingerprint-mismatch"},
            "sweep": {"--config", "--results", "--learning-rates",
                      "--architectures", "--seeds", "--episodes"},
            "ccdf": {"--run-dir"},
        }

    def test_unknown_flag(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        assert cli_main(["train", "--config", str(cfg), "--bogus"]) == 1
