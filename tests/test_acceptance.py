"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from rateadapt import phy
from rateadapt.config import default_config
from rateadapt.harness import SweepConfig, run_evaluation, run_sweep, run_training
from rateadapt.nn import mlp_forward
from rateadapt.results import CcdfPoint, ccdf
from tests.reference import (distance_at_snr, gradient_error, make_env, random_net,
                             run_tabular_convergence, tiny_config)
from rateadapt import checkpoint as ckpt_io

pytestmark = pytest.mark.acceptance

TRAIN_SEEDS = (1, 2, 3, 4, 5)
EVAL_SEEDS = tuple(range(100, 110))


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory):
    """One full training run per seed with the final configuration
    (LR 0.01, three hidden layers of 16 units, gamma 0.5, epsilon 0.1,
    batch 64, 15 episodes of 60 s), as a sweep over the seeds; returns the
    sweep folder and its rows."""
    out = tmp_path_factory.mktemp("train")
    rows = run_sweep(SweepConfig((0.01,), ((16, 16, 16),), TRAIN_SEEDS),
                     default_config(), out)
    assert [row["error"] for row in rows] == [""] * len(TRAIN_SEEDS)
    return out, rows


def test_criterion_1_training_convergence(trained_runs):
    start = time.monotonic()
    passing = 0
    details = []
    for row in trained_runs[1]:
        rewards = [s.cum_reward for s in row["summaries"]]
        assert len(rewards) == 15
        first3 = float(np.mean(rewards[:3]))
        last3 = float(np.mean(rewards[-3:]))
        ratio = last3 / first3
        passing += ratio >= 1.5
        details.append(f"seed{row['seed']}:{ratio:.2f}x")
    elapsed = time.monotonic() - start
    report(1, "training convergence", passing >= 4,
           f"ratios [{', '.join(details)}], {passing}/5 seeds >= 1.5x")
    assert elapsed < 600


def test_criterion_2_learning_rate_ordering(tmp_path):
    rates = (0.1, 0.01, 0.001, 0.0001)
    rows = run_sweep(SweepConfig(rates, ((32, 32),), TRAIN_SEEDS),
                     default_config(), tmp_path)
    assert [row["error"] for row in rows] == [""] * len(rows)
    wins = 0
    per_seed = []
    for seed in TRAIN_SEEDS:
        finals = {row["learning_rate"]: row["summaries"][-1].cum_reward
                  for row in rows if row["seed"] == seed}
        best = max(finals, key=finals.get)
        wins += best == 0.01
        per_seed.append(f"seed{seed}:best={best}")
    report(2, "learning-rate ordering", wins >= 3,
           f"LR 0.01 wins {wins}/5 [{'; '.join(per_seed)}]")


def test_criterion_3_algorithm_ordering(trained_runs):
    start = time.monotonic()
    dara_ckpt = ckpt_io.load(
        trained_runs[0] / "cell_000_lr0.01_arch16x16x16_seed1" / "policy_ep015.ckpt")
    means = {}
    for algo in ("dara", "ideal", "minstrel_like"):
        cfg = default_config().with_overrides(algorithm=algo)
        thpts = [
            run_evaluation(cfg, dara_ckpt if algo == "dara" else None,
                           seed=seed)[0].mean_throughput_mbps
            for seed in EVAL_SEEDS
        ]
        means[algo] = float(np.mean(thpts))
    elapsed = time.monotonic() - start
    rel_gap = abs(means["dara"] - means["ideal"]) / means["ideal"]
    ok = (means["dara"] >= means["minstrel_like"] and rel_gap <= 0.05
          and elapsed < 120)
    report(3, "algorithm ordering", ok,
           f"DARA={means['dara']:.2f} Ideal={means['ideal']:.2f} "
           f"Minstrel-like={means['minstrel_like']:.2f} Mbit/s, "
           f"|gap|={rel_gap:.1%}, {elapsed:.0f}s")


def test_criterion_4_tabular_convergence_oracle():
    updates, err = run_tabular_convergence(max_updates=10_000)
    report(4, "tabular Q-learning vs value iteration",
           err < 1e-3 and updates <= 10_000,
           f"error {err:.2e} after {updates} updates")


def test_criterion_5_gradient_suite():
    worst = 0.0
    checked = 0
    rng_master = np.random.default_rng(2024)
    cases = [[16, 16, 16]] + [
        [int(rng_master.integers(2, 12))
         for _ in range(int(rng_master.integers(1, 4)))]
        for _ in range(20)
    ]
    for hidden in cases:
        rng = np.random.default_rng(rng_master.integers(0, 2**31))
        params = random_net(hidden, rng)
        obs = float(rng.uniform(0, 1))
        action = int(rng.integers(0, 8))
        target = float(rng.uniform(-1, 2))
        worst = max(worst, gradient_error(params, obs, action, target))
        checked += 1
    report(5, "gradients vs finite differences", worst < 1e-4,
           f"{checked} networks, worst relative error {worst:.2e}")


def test_criterion_6_determinism(tmp_path):
    cfg = tiny_config({"duration_s": 10.0}, episodes=3, warmup=64)
    run_training(cfg, tmp_path / "a")
    run_training(cfg, tmp_path / "b")
    identical = ((tmp_path / "a" / "episodes.csv").read_bytes()
                 == (tmp_path / "b" / "episodes.csv").read_bytes())

    ckpt = ckpt_io.load(tmp_path / "a" / "policy_ep003.ckpt")
    ckpt_io.save(tmp_path / "roundtrip.ckpt", ckpt)
    again = ckpt_io.load(tmp_path / "roundtrip.ckpt")
    probes = np.linspace(0, 1, 100).tolist()
    max_dq = max(float(np.max(np.abs(mlp_forward(ckpt.params, x)
                                     - mlp_forward(again.params, x)))) for x in probes)
    report(6, "determinism and checkpoint round-trip",
           identical and max_dq == 0.0,
           f"episodes.csv identical={identical}, max |dQ|={max_dq}")


def test_criterion_7_statistical_phy():
    cfg = default_config()
    channel = cfg.channel_params()
    table = cfg.mcs_table()
    mcs = 3  # midpoint 14 dB
    results = []
    ok = True
    for label, target_snr in (("low", 10.0), ("mid", 14.0), ("high", 18.0)):
        d = distance_at_snr(target_snr)  # the link exactly at the target SNR
        assert phy.snr_db(d, channel) == pytest.approx(target_snr, abs=1e-9)
        env = make_env(start=d, speed=0.0, duration=1e9, log_period=1e9)
        env.reset(seed=11)
        windows = 1000
        successes = sum(env.step(mcs).fsr * 50 for _ in range(windows))
        n = windows * 50
        p = phy.frame_success_prob(target_snr, table.slopes_per_db[mcs],
                                   table.midpoints_db[mcs])
        sigma = np.sqrt(n * p * (1 - p))
        dev = abs(successes - n * p)
        ok &= dev <= 6 * sigma
        results.append(f"{label}: {dev / sigma:.2f} sigma")
    report(7, "windowed FSR vs frame success probability", ok,
           "; ".join(results))


def test_criterion_8_ccdf():
    points = ccdf([1.0, 2.0, 3.0])
    exact = points[1:] == [CcdfPoint(1.0, 2 / 3), CcdfPoint(2.0, 1 / 3),
                           CcdfPoint(3.0, 0.0)]
    rng = np.random.default_rng(8)
    base = list(rng.uniform(0, 20, size=30))
    reference = ccdf(base)
    invariant = True
    for _ in range(100):
        shuffled = list(base)
        rng.shuffle(shuffled)
        invariant &= ccdf(shuffled) == reference
    report(8, "CCDF correctness", exact and invariant,
           f"exact={exact}, permutation-invariant over 100 shuffles={invariant}")
