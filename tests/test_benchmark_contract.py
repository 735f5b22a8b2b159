"""The benchmark in perfbench/ wraps package functions by name and builds its
workloads from package classes. These tests load perfbench/run.py without
running any workload, so a rename that would break the benchmark fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def package(bench):
    return bench.import_package()


def test_every_span_site_resolves(bench, package):
    for name, owner, attr in bench.span_sites(package):
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"


def test_every_workload_constructs(bench, package):
    for name, workload_class in bench.WORKLOAD_CLASSES.items():
        workload = workload_class(package, 1, tiny=True)
        assert workload.ops >= 1, name


def test_checkpoint_arrays_the_benchmark_reads(bench, package, tmp_path):
    # TrainDefault.check compares these arrays of the in-memory and the
    # saved-then-loaded final checkpoint
    params = package.nn.init_mlp([4, 4], np.random.default_rng(0))
    opt = package.nn.AdamState.for_params(params, 0.01)
    # one step makes the four moment lists differ, so a mix-up shows
    package.nn.adam_step(opt, params, package.nn.MlpParams(
        [np.ones_like(w) for w in params.weights],
        [np.full_like(b, 0.5) for b in params.biases]))
    ckpt = package.checkpoint.Checkpoint("dqn", params, opt, 3, "fp")
    package.checkpoint.save(tmp_path / "policy.ckpt", ckpt)
    loaded = package.checkpoint.load(tmp_path / "policy.ckpt")
    mem, disk = bench.dqn_arrays(ckpt), bench.dqn_arrays(loaded)
    assert len(mem) == len(disk) == 6 * len(params.weights)
    for m, d in zip(mem, disk):
        assert m.dtype == d.dtype and m.shape == d.shape
        assert m.tobytes() == d.tobytes()
