"""Smoke test of the benchmark at a tiny size (3 s episodes).

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, record = run.measure(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert len(record["outputs_sha256"]) == 1


def test_invalid_sweep_cell_is_counted_not_raised():
    def add_bad_cell(workload):
        s = workload.sweep
        workload.sweep = type(s)(s.learning_rates, s.architectures + ((0,),), s.seeds)

    result, _ = run.measure("sweep_dense", seed=3, seconds=0, trace=False, tiny=True,
                            adjust=add_bad_cell)
    # Two learning rates x three architectures: the (0,) cell fails twice.
    assert (result["attempted"], result["failed"]) == (6, 2)
    assert not result["correct"]
    assert result["metrics"]["success_ratio"]["value"] == pytest.approx(4 / 6)
