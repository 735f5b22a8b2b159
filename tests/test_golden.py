"""Golden-output regression test.

Three short pinned training runs (seed 1, 3 episodes x 20 s) must reproduce
byte-identical episodes.csv and throughput_*.csv files, and final checkpoint
arrays within 1e-12 of the reference checkpoints in tests/data/golden/.
One evaluation episode per algorithm (eval seed 100, the same 20 s config;
dara and dara_tabular greedy over the dara_wrap and tabular reference
checkpoints) must reproduce byte-identical episodes.csv and
throughput_eval.csv, and so must one more minstrel_like evaluation at
sim.log_period_s 0.3. A two-cell learning-rate sweep on the same 20 s config
must reproduce byte-identical sweep_summary.csv and per-cell episodes.csv.

The training references were produced before the replay buffer stored its
transitions as numpy columns, and the evaluation pins before training and
evaluation shared one episode loop, the 0.3 s pin before the throughput log
was built from per-window arrays, and the sweep pin before one function
built and checked every sweep cell's config; those refactors left them
unchanged. To
regenerate them after an output change announced in CHANGES.md, run
`python -m tests.test_golden` from the repository root with `src` on
PYTHONPATH; it rewrites the .ckpt files and prints the hashes.
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rateadapt import checkpoint as ckpt_io
from rateadapt.config import default_config, validate_config
from rateadapt.harness import (SweepConfig, run_evaluation, run_sweep,
                               run_training)

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

# name -> agent overrides on top of the defaults
CASES = {
    # 1,373 pushes into a 500-slot ring, so it wraps
    "dara_wrap": {"replay_capacity": 500, "warmup": 200},
    # the buffer is cleared at every episode start and still trains; the
    # target net syncs often enough that its bootstrap term is not zero
    "dara_clear": {"replay_capacity": 300, "warmup": 200, "target_sync_every": 20,
                   "replay_persist_across_episodes": False},
    "tabular": {"algorithm": "dara_tabular"},
}

EXPECTED = {
    "dara_wrap": {
        "episodes.csv": "e8822fd7d878dfe3c7e9f7d4639ea59a0b8c36516c64e40b833d97f4241760c0",
        "throughput_001.csv": "caed35838b593a496fde426114c12d8bfd26eaa5734c6c15c32d596fe5a15b15",
        "throughput_002.csv": "883babb8277e710c713a098de6c6415d20eb72071a2d68ba839853aaeedadcae",
        "throughput_003.csv": "781ed90a6dd3519952d13d62980973c8945fd81a430453b77293f2a1227bbd4f",
    },
    "dara_clear": {
        "episodes.csv": "1009f422f614f52b2b95be4626f1ef01826592f483a2e292620d5178ed8842a4",
        "throughput_001.csv": "caed35838b593a496fde426114c12d8bfd26eaa5734c6c15c32d596fe5a15b15",
        "throughput_002.csv": "0707d9112959a8adc0b463e1ee8b9afaa026d5fdc36693e662437029b9f13b7b",
        "throughput_003.csv": "15aba06fb4c12da48fe11173c0a0558875b12a5028fedd756f67976a51f42bbf",
    },
    "tabular": {
        "episodes.csv": "607d9e0068b40c20cb3b6480a42158f5bac2c03dcf1805813d900d1d0384132c",
        "throughput_001.csv": "d92dff83b2f5effe224d890b6a0255650133b219d7c5af8782f08624778b04c9",
        "throughput_002.csv": "07f7a4ad804d36725bceb8e67273ba03ae591859a878daaa466440fb901b746d",
        "throughput_003.csv": "ffae24c58896ab890c189de21639f121551b66acddf2377763045868d5328e97",
    },
}


EVAL_SEED = 100

# algorithm -> training case whose reference checkpoint it evaluates
EVAL_CASES = {"dara": "dara_wrap", "dara_tabular": "tabular", "ideal": None,
              "minstrel_like": None, "constant": None}

EVAL_EXPECTED = {
    "dara": {
        "episodes.csv": "6326e2ac5f64934c0996562ec61df720f659a53f5b2d73aefb36ac13071003ab",
        "throughput_eval.csv": "9cb5443394e69d967f754d887a5d8e800d19c9243d6dfc154e9eab5247fdb82a",
    },
    "dara_tabular": {
        "episodes.csv": "d3df4db7727d1cac19dc9b9f3b1f90a9cc496d7321a2b4295b4943344bb0bd45",
        "throughput_eval.csv": "bed16543d6be183a7c4e211887912bd1eafabe5fdacbc4bc4bd0200b714a55f2",
    },
    "ideal": {
        "episodes.csv": "e0d8cb532c1f5f5bdbc67ca61800cfe3dbdd8466dec20a3ae9891631eb6f845c",
        "throughput_eval.csv": "1fbfe484810a056360257b9ea7f4c3a7d5ea3eb6e876c9bb6439521d40bb52de",
    },
    "minstrel_like": {
        "episodes.csv": "32b04395b96e58e9ceb195b90ffda2318cd9779a5fc2532452cf2313f4f352fb",
        "throughput_eval.csv": "6af128ae9d96c2bef56a1e2d8daa9952c157056a859673b3a0aac28aa8186138",
    },
    "constant": {
        "episodes.csv": "cccd3ce85e3563cfa7fb41f96c6c197cfe572e9e6ef45cf9254833f48076abe4",
        "throughput_eval.csv": "3e4f2edc800a66d5ba1a6382d4bbb7641743ccbbd0643922c6971f206d9600e9",
    },
}

# One more evaluation at a log period whose tick times are not exact in
# binary, unlike the 1.0 s ticks of every pin above. Minstrel-like probing
# mixes window lengths, so windows end on every side of the ticks.
LOG_PERIOD_ALGORITHM = "minstrel_like"
LOG_PERIOD_S = 0.3
LOG_PERIOD_EXPECTED = {
    "episodes.csv": "32b04395b96e58e9ceb195b90ffda2318cd9779a5fc2532452cf2313f4f352fb",
    "throughput_eval.csv": "6cce0dbe820f8f936a80348ee1466efa0e090fdbfc01314b44d83129e24b5ec6",
}

# Two learning rates on one small network; warmup 200, so both cells train
# from the first episode and their rows differ.
SWEEP = SweepConfig((0.01, 0.001), ((8, 8),), (1,))
SWEEP_OVERRIDES = {"warmup": 200}
SWEEP_EXPECTED = {
    "sweep_summary.csv": "7ded07f9bd42865915e05d300082dc4b1cda2f96bae74f1f39cbced8e2a52245",
    "cell_000_lr0.01_arch8x8_seed1/episodes.csv": "41239fc238eec5ede6bead3c9d90f44127a3325249b37789a38c4eb9a98c03b0",
    "cell_001_lr0.001_arch8x8_seed1/episodes.csv": "dae9a3511f9cbe778d3feefe29e0647db89e03533ee3a11c139bdb4d5b216ba0",
}


def golden_config(overrides, log_period_s=1.0):
    data = json.loads(default_config().to_json())
    data["sim"].update(duration_s=20.0, log_period_s=log_period_s)
    data["agent"].update(seed=1, episodes=3, **overrides)
    return validate_config(json.dumps(data))


def output_hashes(run_dir: Path) -> dict:
    files = [run_dir / "episodes.csv", *sorted(run_dir.glob("throughput_*.csv"))]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def sweep_hashes(sweep_dir: Path) -> dict:
    files = [sweep_dir / "sweep_summary.csv",
             *sorted(sweep_dir.glob("cell_*/episodes.csv"))]
    return {p.relative_to(sweep_dir).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def checkpoint_arrays(ckpt) -> dict:
    if ckpt.kind == "tabular":
        return {"q_values": ckpt.params.values}
    arrays = ckpt.arrays
    arrays["adam_t"] = np.array(float(ckpt.opt.t))
    return arrays


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    _, final = run_training(golden_config(CASES[name]), tmp_path)
    assert output_hashes(tmp_path) == EXPECTED[name]

    reference = ckpt_io.load(GOLDEN_DIR / f"{name}.ckpt")
    assert final.kind == reference.kind
    assert final.train_step == reference.train_step
    got, want = checkpoint_arrays(final), checkpoint_arrays(reference)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12,
                                   err_msg=key)


def run_golden_evaluation(algorithm, run_dir: Path, log_period_s=1.0):
    case = EVAL_CASES[algorithm]
    cfg = golden_config({**CASES.get(case, {}), "algorithm": algorithm},
                        log_period_s)
    ckpt = ckpt_io.load(GOLDEN_DIR / f"{case}.ckpt") if case else None
    run_evaluation(cfg, ckpt, run_dir, seed=EVAL_SEED)


@pytest.mark.parametrize("algorithm", sorted(EVAL_CASES))
def test_golden_evaluation(algorithm, tmp_path):
    run_golden_evaluation(algorithm, tmp_path)
    assert output_hashes(tmp_path) == EVAL_EXPECTED[algorithm]


def test_golden_evaluation_log_period(tmp_path):
    run_golden_evaluation(LOG_PERIOD_ALGORITHM, tmp_path, LOG_PERIOD_S)
    assert output_hashes(tmp_path) == LOG_PERIOD_EXPECTED


def test_golden_sweep(tmp_path):
    run_sweep(SWEEP, golden_config(SWEEP_OVERRIDES), tmp_path)
    assert sweep_hashes(tmp_path) == SWEEP_EXPECTED


def _regenerate(scratch: Path):
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, overrides in sorted(CASES.items()):
        run_dir = scratch / name
        summaries, _ = run_training(golden_config(overrides), run_dir)
        shutil.copyfile(run_dir / "policy_ep003.ckpt", GOLDEN_DIR / f"{name}.ckpt")
        print(f"{name}: train_steps={summaries[-1].train_steps}")
        print(json.dumps(output_hashes(run_dir), indent=4))
    for algorithm in EVAL_CASES:
        run_dir = scratch / f"eval_{algorithm}"
        run_golden_evaluation(algorithm, run_dir)
        print(f"eval {algorithm}:")
        print(json.dumps(output_hashes(run_dir), indent=4))
    run_dir = scratch / "eval_log_period"
    run_golden_evaluation(LOG_PERIOD_ALGORITHM, run_dir, LOG_PERIOD_S)
    print(f"eval {LOG_PERIOD_ALGORITHM} at log_period_s {LOG_PERIOD_S}:")
    print(json.dumps(output_hashes(run_dir), indent=4))
    run_dir = scratch / "sweep"
    run_sweep(SWEEP, golden_config(SWEEP_OVERRIDES), run_dir)
    print("sweep:")
    print(json.dumps(sweep_hashes(run_dir), indent=4))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        _regenerate(Path(d))
