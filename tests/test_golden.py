"""Golden-output regression test.

Three short pinned training runs (seed 1, 3 episodes x 20 s) must reproduce
byte-identical episodes.csv and throughput_*.csv files, and final checkpoint
arrays within 1e-12 of the reference checkpoints in tests/data/golden/.

The references were produced before the replay buffer stored its
transitions as numpy columns, and the refactor left them unchanged. To
regenerate them after an output change announced in CHANGES.md, run `python -m tests.test_golden` from the repository root with
`src` on PYTHONPATH; it rewrites the .ckpt files and prints the hashes.
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
from rateadapt.harness import run_training

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


def golden_config(overrides):
    data = json.loads(default_config().to_json())
    data["sim"]["duration_s"] = 20.0
    data["agent"].update(seed=1, episodes=3, **overrides)
    return validate_config(json.dumps(data))


def output_hashes(run_dir: Path) -> dict:
    files = [run_dir / "episodes.csv", *sorted(run_dir.glob("throughput_*.csv"))]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def checkpoint_arrays(ckpt) -> dict:
    if ckpt.kind == "tabular":
        return {"q_values": ckpt.params.values}
    arrays = ckpt_io._dqn_arrays(ckpt.params, ckpt.opt)
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


def _regenerate(scratch: Path):
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, overrides in sorted(CASES.items()):
        run_dir = scratch / name
        summaries, _ = run_training(golden_config(overrides), run_dir)
        shutil.copyfile(run_dir / "policy_ep003.ckpt", GOLDEN_DIR / f"{name}.ckpt")
        print(f"{name}: train_steps={summaries[-1].train_steps}")
        print(json.dumps(output_hashes(run_dir), indent=4))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        _regenerate(Path(d))
