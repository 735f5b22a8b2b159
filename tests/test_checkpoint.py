import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rateadapt import checkpoint as ckpt_io
from rateadapt.checkpoint import Checkpoint
from rateadapt.errors import CheckpointError
from rateadapt.nn import AdamState, init_mlp, mlp_forward
from rateadapt.phy import N_MCS
from rateadapt.tabular import QTable


def make_dqn_checkpoint(rng_seed=0, train_step=321, fingerprint="abc123",
                        hidden=(16, 16, 16)):
    rng = np.random.default_rng(rng_seed)
    params = init_mlp(hidden, rng)
    # perturb so the output layer is non-trivial
    for w in params.weights:
        w += rng.normal(size=w.shape) * 0.3
    opt = AdamState.for_params(params, 0.01)
    opt.t = 17
    for m in opt.m_w:
        m += rng.normal(size=m.shape)
    return Checkpoint("dqn", params, opt, train_step, fingerprint)


class TestRoundTrip:
    def test_q_outputs_identical(self, tmp_path):
        ckpt = make_dqn_checkpoint()
        path = tmp_path / "policy_ep001.ckpt"
        ckpt_io.save(path, ckpt)
        loaded = ckpt_io.load(path)
        probes = np.linspace(0, 1, 100)
        q_before = mlp_forward(ckpt.params, probes)
        q_after = mlp_forward(loaded.params, probes)
        assert np.max(np.abs(q_before - q_after)) == 0.0

    def test_bit_level_parameter_equality(self, tmp_path):
        ckpt = make_dqn_checkpoint(rng_seed=5)
        path = tmp_path / "a.ckpt"
        ckpt_io.save(path, ckpt)
        loaded = ckpt_io.load(path)
        for a, b in zip(ckpt.params.weights + ckpt.params.biases,
                        loaded.params.weights + loaded.params.biases):
            assert np.array_equal(a, b)
        assert loaded.train_step == ckpt.train_step
        assert loaded.fingerprint == ckpt.fingerprint
        assert loaded.opt.t == 17
        for a, b in zip(ckpt.opt.m_w, loaded.opt.m_w):
            assert np.array_equal(a, b)

    def test_tabular_round_trip(self, tmp_path):
        table = QTable(32)
        table.values[:] = np.random.default_rng(1).normal(size=table.values.shape)
        ckpt = Checkpoint("tabular", table, None, 10, "fp")
        path = tmp_path / "t.ckpt"
        ckpt_io.save(path, ckpt)
        loaded = ckpt_io.load(path)
        assert loaded.kind == "tabular"
        assert np.array_equal(loaded.params.values, table.values)
        assert loaded.params.n_state_bins == 32


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            ckpt_io.load(tmp_path / "nope.ckpt")

    def test_corrupt_payload(self, tmp_path):
        ckpt = make_dqn_checkpoint()
        path = tmp_path / "c.ckpt"
        ckpt_io.save(path, ckpt)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])  # truncate the binary block
        with pytest.raises(CheckpointError):
            ckpt_io.load(path)

    def test_zero_state_bins_rejected(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        ckpt_io.save(path, Checkpoint("tabular", QTable(0), None, 0, "abc"))
        with pytest.raises(CheckpointError):
            ckpt_io.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            ckpt_io.load(path)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        ckpt = make_dqn_checkpoint(fingerprint="trained-under-x")
        path = tmp_path / "f.ckpt"
        ckpt_io.save(path, ckpt)
        with pytest.raises(CheckpointError):
            ckpt_io.load(path, expected_fingerprint="different")

    def test_fingerprint_mismatch_override_warns(self, tmp_path):
        ckpt = make_dqn_checkpoint(fingerprint="trained-under-x")
        path = tmp_path / "f.ckpt"
        ckpt_io.save(path, ckpt)
        with pytest.warns(UserWarning):
            loaded = ckpt_io.load(path, expected_fingerprint="different",
                                  allow_fingerprint_mismatch=True)
        assert loaded.fingerprint == "trained-under-x"

    def test_fingerprint_match_silent(self, tmp_path):
        ckpt = make_dqn_checkpoint(fingerprint="same")
        path = tmp_path / "f.ckpt"
        ckpt_io.save(path, ckpt)
        loaded = ckpt_io.load(path, expected_fingerprint="same")
        assert loaded.fingerprint == "same"


@functools.lru_cache(maxsize=None)
def saved_bytes(kind) -> bytes:
    """The file a small checkpoint of `kind` saves to."""
    if kind == "dqn":
        ckpt = make_dqn_checkpoint(hidden=(3,))
    else:
        table = QTable(3)
        table.values[:] = np.random.default_rng(2).uniform(-2, 2, table.values.shape)
        ckpt = Checkpoint("tabular", table, None, 5, "fp")
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.ckpt"
        ckpt_io.save(path, ckpt)
        return path.read_bytes()


def header_paths(node, prefix=()):
    """The key or index path of every value nested in a JSON header."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from header_paths(value, prefix + (key,))


def corrupt(raw: bytes, how) -> bytes:
    op, where, arg = how
    if op == "flip":
        i = where % len(raw)
        return raw[:i] + bytes([raw[i] ^ arg]) + raw[i + 1:]
    if op == "truncate":
        return raw[:where % len(raw)]
    start = len(ckpt_io.MAGIC)
    nl = raw.index(b"\n", start)
    if op == "float":  # one array element, NaN and infinities included
        i = nl + 1 + 8 * (where % ((len(raw) - nl - 1) // 8))
        return raw[:i] + np.array([arg], dtype="<f8").tobytes() + raw[i + 8:]
    header = json.loads(raw[start:nl])
    paths = list(header_paths(header))
    *parents, last = paths[where % len(paths)]
    node = header
    for key in parents:
        node = node[key]
    node[last] = arg
    return raw[:start] + json.dumps(header).encode() + raw[nl:]


CORRUPTIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("float"), st.integers(0, 10**6),
              st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats()),
    st.tuples(st.just("field"), st.integers(0, 10**6),
              st.sampled_from([None, -1, 1.5, "x", [], {}, 10**20])),
)


def is_count(value):
    return type(value) is int and value >= 0


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["dqn", "tabular"]), how=CORRUPTIONS)
def test_corrupted_checkpoint_is_rejected_or_valid(kind, how):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.ckpt"
        path.write_bytes(corrupt(saved_bytes(kind), how))
        try:
            ckpt = ckpt_io.load(path)
        except CheckpointError:
            return
    assert is_count(ckpt.train_step)
    if ckpt.kind == "dqn":
        ckpt.params.validate()
        assert is_count(ckpt.opt.t)
        lr = ckpt.opt.learning_rate
        assert type(lr) in (int, float) and math.isfinite(lr) and lr > 0
        arrays = ckpt_io._dqn_arrays(ckpt.params, ckpt.opt).values()
    else:
        values = ckpt.params.values
        assert values.ndim == 2 and values.shape[1] == N_MCS and len(values) >= 1
        arrays = [values]
    assert all(np.all(np.isfinite(a)) for a in arrays)
