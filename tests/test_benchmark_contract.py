"""The benchmark in perfbench/ wraps package functions by name and builds its
workloads from package classes. These tests load perfbench/run.py without
running any workload, so a rename that would break the benchmark fails here.
"""

import importlib.util
from pathlib import Path

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
