"""The benchmark in perfbench/ wraps package functions by name and builds its
workloads from package classes. These tests load perfbench/run.py without
running any workload, so a rename that would break the benchmark fails here.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from tests.reference import random_net

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


def test_traced_greedy_evaluation_reaches_the_forward_binding(bench, package,
                                                             monkeypatch):
    # perfbench counts Q forwards by wrapping the agents' own binding of
    # mlp_forward; a forward an agent reached another way would go uncounted.
    # So every forward pass made while agents decide, counted at nn._forward,
    # must come through that binding: a greedy evaluation's compiled table
    # (which decides most windows by a bisect and a band by the forward),
    # a band hit driven directly, and a DaraAgent's own greedy decision.
    cfg = package.config.default_config()
    data = json.loads(cfg.to_json())
    data["sim"]["duration_s"] = 0.5
    cfg = package.config.validate_config(json.dumps(data))
    params = random_net(cfg["agent"]["hidden_layers"], np.random.default_rng(0))
    ckpt = package.checkpoint.Checkpoint(
        "dqn", params, package.nn.AdamState.for_params(params, 0.01), 0,
        cfg.fingerprint())
    table = package.harness.build_eval_agent(cfg, ckpt, None)
    band = next(i for i, action in enumerate(table.actions) if action < 0 and i > 0)
    result = package.env.StepResult(table.edges[band - 1], 0.0, False, 1.0, 0.0)
    passes, forward = [], package.nn._forward
    monkeypatch.setattr(package.nn, "_forward",
                        lambda *args: passes.append(1) or forward(*args))
    tracer, patches = bench.Tracer(), bench.Patches()
    tracer.install(package, patches)
    try:
        package.harness.run_evaluation(cfg, ckpt)
        assert table.select_action(result) == int(forward(params, result.observation).argmax())
        package.agents.DaraAgent(params, package.dqn.EpsilonSchedule("fixed", 0.0, 0.0, 1),
                                 None).select_action(result)
    finally:
        patches.restore()
    assert tracer.value("env.step", "calls") > 0
    assert tracer.value("nn.mlp_forward", "calls") == len(passes) >= 2


def test_untraced_window_count_matches_traced_steps(bench, package, tmp_path):
    # windows_per_s counts windows through perfbench's untraced hook on
    # LinkSimEnv.step; a caller that bound the method before the hook went
    # in would step windows the hook never sees, and the metric would read 0.
    workload = bench.TrainDefault(package, 1, tiny=True)
    *_, untraced = bench.timed(lambda: workload.run(tmp_path / "untraced"),
                               package, polled=False)
    tracer = bench.Tracer()
    *_, traced = bench.timed(lambda: workload.run(tmp_path / "traced"),
                             package, tracer)
    assert traced == tracer.value("env.step", "calls")
    assert untraced == traced > 0


@pytest.mark.parametrize("name", ["train_default", "eval_grid", "sweep_dense"])
def test_untraced_windows_are_the_windows_simulated(bench, package, tmp_path,
                                                    monkeypatch, name):
    # windows_per_s divides by the LinkSimEnv.step calls that the untraced
    # hook counts. That is honest only while one call plays one window: the
    # count must equal the windows every env actually simulated, the
    # lengths of each episode's _window_ends.
    workload = bench.WORKLOAD_CLASSES[name](package, 1, tiny=True)
    workload.setup(tmp_path / "work")
    episodes = []
    reset = package.env.LinkSimEnv.reset

    def recorded(self, *args, **kwargs):
        result = reset(self, *args, **kwargs)
        episodes.append(self._window_ends)
        return result
    monkeypatch.setattr(package.env.LinkSimEnv, "reset", recorded)
    *_, windows = bench.timed(lambda: workload.run(tmp_path / "out"), package,
                              polled=False)
    assert windows == sum(map(len, episodes)) > 0
