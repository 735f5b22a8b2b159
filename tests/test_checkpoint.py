import numpy as np
import pytest

from rateadapt import checkpoint as ckpt_io
from rateadapt.checkpoint import Checkpoint
from rateadapt.errors import CheckpointError
from rateadapt.nn import AdamState, init_mlp, mlp_forward
from rateadapt.tabular import QTable


def make_dqn_checkpoint(rng_seed=0, train_step=321, fingerprint="abc123"):
    rng = np.random.default_rng(rng_seed)
    params = init_mlp([16, 16, 16], rng)
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
        with pytest.raises(FileNotFoundError):
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
