"""Command-line entry point: train, eval, sweep and ccdf subcommands. Each
takes only the options its handler reads and checks them, every sweep cell's
config included, before it makes a run folder.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import checkpoint as ckpt_io
from .config import check_work_budget, validate_config
from .errors import CheckpointError, ConfigError, RateAdaptError
from .harness import (SweepConfig, check_checkpoint_kind, grid_configs,
                      run_evaluation, run_sweep, run_training, trained_kind)
from .results import ccdf, setup_results_dir, write_ccdf_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rateadapt",
        description="Train and evaluate rate-adaptation agents on a "
                    "simulated 802.11n link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--results", default="results",
                       help="base directory for run folders (default: results)")

    p_train = sub.add_parser("train", help="run training episodes")
    p_eval = sub.add_parser("eval", help="evaluate a frozen policy")
    for p in (p_train, p_eval):
        common(p)
        p.add_argument("--seed", type=int, default=None,
                       help="override agent.seed from the config")
    p_train.add_argument("--episodes", type=int, default=None,
                         help="override agent.episodes from the config")
    p_eval.add_argument("--checkpoint", default=None,
                        help="checkpoint file (dara and dara_tabular only)")
    p_eval.add_argument("--allow-fingerprint-mismatch", action="store_true",
                        help="evaluate even if the checkpoint was trained "
                             "under a different config")

    p_sweep = sub.add_parser("sweep", help="grid sweep over hyperparameters")
    common(p_sweep)
    p_sweep.add_argument("--learning-rates", default="0.1,0.01,0.001,0.0001",
                         help="comma-separated learning rates")
    p_sweep.add_argument("--architectures", default="32x32;16x16x16;64;32;64x64",
                         help="semicolon-separated, layer sizes joined by 'x'")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma-separated seeds (default: the config seed)")
    p_sweep.add_argument("--episodes", type=int, default=None,
                         help="override agent.episodes for every cell")

    p_ccdf = sub.add_parser("ccdf", help="compute a throughput CCDF from run logs")
    p_ccdf.add_argument("--run-dir", required=True,
                        help="existing run folder holding throughput_*.csv")
    return parser


def _load_config(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    cfg = validate_config(text)
    check_work_budget(cfg)  # before any command makes a run folder
    overrides = {key: getattr(args, key) for key in ("seed", "episodes")
                 if getattr(args, key, None) is not None}
    return cfg.with_overrides(**overrides) if overrides else cfg


def _new_run_dir(args, cfg, run_name: str) -> Path:
    try:
        run_dir = setup_results_dir(args.results, run_name)
        (run_dir / "config.resolved.json").write_text(cfg.to_json(), encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot create a run folder under --results: {exc}"]) from exc
    return run_dir


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    trained_kind(cfg["agent"]["algorithm"])  # before the run folder is made
    run_dir = _new_run_dir(args, cfg, "train")
    print(f"results: {run_dir}")
    run_training(cfg, run_dir, progress=print)
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    algorithm = cfg["agent"]["algorithm"]
    ckpt = None if args.checkpoint is None else ckpt_io.load(
        args.checkpoint, expected_fingerprint=cfg.fingerprint(),
        allow_fingerprint_mismatch=args.allow_fingerprint_mismatch)
    check_checkpoint_kind(algorithm, ckpt)  # before the run folder is made
    run_dir = _new_run_dir(args, cfg, f"eval_{algorithm}")
    print(f"results: {run_dir}")
    summary, _ = run_evaluation(cfg, ckpt, run_dir)
    print(f"cum_reward={summary.cum_reward:.3f} "
          f"mean_throughput={summary.mean_throughput_mbps:.3f} Mbit/s")
    return EXIT_OK


def _parse_grid(args, cfg) -> SweepConfig:
    try:
        lrs = tuple(float(x) for x in args.learning_rates.split(","))
        archs = tuple(
            tuple(int(w) for w in arch.split("x"))
            for arch in args.architectures.split(";")
        )
        seeds = (tuple(int(x) for x in args.seeds.split(","))
                 if args.seeds else (cfg["agent"]["seed"],))
    except ValueError as exc:
        raise ConfigError([f"bad sweep grid: {exc}"]) from exc
    return SweepConfig(lrs, archs, seeds)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sweep = _parse_grid(args, cfg)
    grid_configs(sweep, cfg)  # before the run folder is made
    run_dir = _new_run_dir(args, cfg, "sweep")
    print(f"results: {run_dir}")
    rows = run_sweep(sweep, cfg, run_dir, progress=print)
    done = [r for r in rows if r["summaries"]]
    if done:
        best = max(done, key=lambda r: r["summaries"][-1].cum_reward)
        print(f"winner: lr={best['learning_rate']} arch={best['architecture']} "
              f"seed={best['seed']} final_cum_reward={best['final_cum_reward']}")
    return EXIT_OK


def _cmd_ccdf(args) -> int:
    run_dir = Path(args.run_dir)
    samples = []
    for log in sorted(run_dir.glob("throughput_*.csv")):
        try:
            with open(log, encoding="utf-8", newline="") as f:
                samples.extend(float(row["throughput_mbps"])
                               for row in csv.DictReader(f))
        except (KeyError, TypeError, ValueError) as exc:
            raise RateAdaptError(f"{log}: bad throughput_mbps column ({exc!r})") from exc
    try:
        points = ccdf(samples)
    except ValueError as exc:
        raise RateAdaptError(f"{run_dir}/throughput_*.csv: {exc}") from exc
    write_ccdf_csv(points, run_dir / "ccdf.csv")
    print(f"wrote {run_dir / 'ccdf.csv'} ({len(samples)} samples)")
    return EXIT_OK


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {"train": _cmd_train, "eval": _cmd_eval,
                "sweep": _cmd_sweep, "ccdf": _cmd_ccdf}
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RateAdaptError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
