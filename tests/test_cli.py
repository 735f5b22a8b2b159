import csv
import json
import subprocess
import sys

import pytest

from rateadapt import harness
from rateadapt.cli import _build_parser, cli_main
from rateadapt.config import ALGORITHMS
from rateadapt.errors import CheckpointError, ConfigError, RateAdaptError
from tests.reference import REJECTED, apply_overrides, row_id, subprocess_env, tiny_data


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

    def test_seed_and_episode_overrides(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        assert cli("train", cfg, tmp_path / "out", "--episodes", 1, "--seed", 9) == 0
        run = run_dir_of(tmp_path / "out")
        rows = (run / "episodes.csv").read_text().splitlines()
        assert len(rows) == 2  # header + 1 episode
        resolved = json.loads((run / "config.resolved.json").read_text())
        assert resolved["agent"]["seed"] == 9


class TestEval:
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


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """The checkpoint of a one-episode dara and dara_tabular run, by the name
    REFUSALS gives it."""
    base = tmp_path_factory.mktemp("trained")
    paths = {}
    for kind, algorithm in (("dqn", "dara"), ("tabular", "dara_tabular")):
        cfg = write_tiny_config(base / f"{kind}.json", algorithm=algorithm, episodes=1)
        paths[f"<{kind}>"] = trained_run(cfg, base / kind) / "policy_ep001.ckpt"
    return paths


# One row per path in cli.py from an input to exit 1: _load_config's and
# _new_run_dir's steps, which every command shares, once, then each
# command's own check. Which values a check refuses is tested in the module
# that makes it; _load_config's validate_config refusal is
# TestInputHoles::test_config_layer_rejection_exit_1. A row's config is raw bytes or dotted overrides of
# tiny_data(); `<dqn>`, `<tabular>` and `<file>` in its options name a
# trained checkpoint and a plain file.
REFUSALS = {
    "config_not_utf8": ("train", b'{"agent": {"algorithm": "\xff"}, "gym": {}, "sim": {}}',
                        (), "cannot read config"),
    "override_refused": ("train", {}, ("--seed", -1), "agent.seed: must be >= 0"),
    "over_work_budget": ("train", {"sim.duration_s": 1e9, "sim.log_period_s": 1e3}, (),
                         "sim.duration_s too long"),
    "results_not_a_directory": ("train", {}, ("--results", "<file>"),
                                "cannot create a run folder under --results"),
    "not_trainable": ("train", {"agent.algorithm": "constant"}, (),
                      "algorithm 'constant' is not trainable"),
    "checkpoint_of_another_kind": pytest.param(
        "eval", {}, ("--checkpoint", "<tabular>", "--allow-fingerprint-mismatch"),
        "algorithm 'dara' needs a dqn checkpoint",
        marks=pytest.mark.filterwarnings("ignore:.*fingerprint:UserWarning")),
    "checkpoint_refused": ("eval", {"agent.hidden_layers": [4, 4]}, ("--checkpoint", "<dqn>"),
                           "does not match the current config"),
    "grid_unparseable": ("sweep", {}, ("--learning-rates", "fast"), "bad sweep grid"),
    "grid_refused": ("sweep", {}, ("--learning-rates", "0", "--architectures", "4"),
                     "agent.learning_rate: must be > 0"),
}


@pytest.mark.parametrize("command,config,options,fragment", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refusal_exits_1_with_one_error_line_and_no_run_folder(
        tmp_path, capsys, checkpoints, command, config, options, fragment):
    path = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(apply_overrides(tiny_data(), config)), encoding="utf-8")
    (tmp_path / "file").write_text("not a directory", encoding="utf-8")
    named = {**checkpoints, "<file>": tmp_path / "file"}
    assert cli(command, path, tmp_path / "out", *(named.get(o, o) for o in options)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]


class TestInputHoles:
    @pytest.mark.parametrize("overrides", REJECTED, ids=row_id)
    def test_config_layer_rejection_exit_1(self, tmp_path, capsys, overrides):
        path = write_tiny_config(tmp_path / "cfg.json")
        path.write_text(json.dumps(apply_overrides(json.loads(path.read_text()), overrides)))
        assert cli("train", path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the schema's message names the row's key, so a refusal that only a
        # later layer makes (such as trained_kind's of an unknown name) fails
        assert next(iter(overrides)) in err.replace(":", " ").split()
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("name", ["throughput_001.csv", "ccdf.csv"])
    def test_ccdf_log_is_a_directory_exit_2(self, tmp_path, capsys, name):
        run = tmp_path / "run"
        (run / name).mkdir(parents=True)
        if name == "ccdf.csv":  # a valid log, so only the write fails
            (run / "throughput_001.csv").write_text(
                "throughput_mbps\n1.0\n", encoding="utf-8")
        assert cli_main(["ccdf", "--run-dir", str(run)]) == 2
        assert "error:" in capsys.readouterr().err

class TestUsage:
    @pytest.mark.parametrize("error,code", [
        (ConfigError(["bad value"]), 1), (CheckpointError("bad file"), 1),
        (RateAdaptError("bad run"), 2), (OSError("disk full"), 2), (MemoryError("too big"), 2),
    ], ids=["ConfigError", "CheckpointError", "RateAdaptError", "OSError", "MemoryError"])
    def test_error_exits_with_its_code_and_one_error_line(self, monkeypatch, capsys,
                                                          error, code):
        def fail(args):
            raise error
        monkeypatch.setattr("rateadapt.cli._cmd_ccdf", fail)
        assert cli_main(["ccdf", "--run-dir", "run"]) == code
        assert capsys.readouterr().err == f"error: {error}\n"

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
