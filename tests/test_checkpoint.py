import functools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rateadapt import checkpoint as ckpt_io
from rateadapt.checkpoint import Checkpoint
from rateadapt.errors import CheckpointError
from rateadapt.nn import AdamState, MlpParams, init_mlp
from rateadapt.phy import N_MCS
from rateadapt.tabular import QTable
from tests.reference import with_header


def make_dqn_checkpoint(rng_seed=0, train_step=321, fingerprint="abc123",
                        hidden=(16, 16, 16)):
    rng = np.random.default_rng(rng_seed)
    params = init_mlp(hidden, rng)
    # perturb so the output layer is non-trivial
    for w in params.weights:
        w += rng.normal(size=w.shape) * 0.3
    opt = AdamState.for_params(params, 0.01)
    opt.t = 17
    for m in opt.m.weights:
        m += rng.normal(size=m.shape)
    return Checkpoint("dqn", params, opt, train_step, fingerprint)


def saved(tmp_path, ckpt, name="c.ckpt"):
    """The path `ckpt` is saved to under tmp_path."""
    ckpt_io.save(tmp_path / name, ckpt)
    return tmp_path / name


class TestRoundTrip:
    def test_bit_level_parameter_equality(self, tmp_path):
        ckpt = make_dqn_checkpoint(rng_seed=5)
        loaded = ckpt_io.load(saved(tmp_path, ckpt))
        for a, b in zip(ckpt.params.weights + ckpt.params.biases,
                        loaded.params.weights + loaded.params.biases):
            assert np.array_equal(a, b)
        assert loaded.train_step == ckpt.train_step
        assert loaded.fingerprint == ckpt.fingerprint
        assert loaded.opt.t == 17
        for a, b in zip(ckpt.opt.m.weights, loaded.opt.m.weights):
            assert np.array_equal(a, b)

    def test_loaded_dqn_is_flat_backed_and_resaves_same_bytes(self, tmp_path):
        ckpt = make_dqn_checkpoint(rng_seed=7)
        ckpt.opt.v.flat[:] = np.random.default_rng(8).uniform(0, 1, ckpt.opt.v.flat.size)
        ckpt_io.save(tmp_path / "a.ckpt", ckpt)
        loaded = ckpt_io.load(tmp_path / "a.ckpt")
        for mem, disk in ((ckpt.params, loaded.params), (ckpt.opt.m, loaded.opt.m),
                          (ckpt.opt.v, loaded.opt.v)):
            assert disk.flat.flags.c_contiguous
            assert all(np.shares_memory(a, disk.flat) for a in disk.weights + disk.biases)
            assert disk.flat.tobytes() == mem.flat.tobytes()
        ckpt_io.save(tmp_path / "b.ckpt", loaded)
        assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()

    def test_adam_header_holds_only_what_load_reads(self, tmp_path):
        header = json.loads(saved(tmp_path, make_dqn_checkpoint()).read_bytes().split(b"\n")[1])
        assert header["adam"] == {"learning_rate": 0.01, "t": 17}

    def test_header_with_adam_constants_loads_bit_equal(self, tmp_path):
        # Earlier versions wrote Adam's fixed constants into the header too.
        ckpt = make_dqn_checkpoint(rng_seed=3)
        (tmp_path / "old.ckpt").write_bytes(with_header(
            saved(tmp_path, ckpt).read_bytes(),
            lambda header: header["adam"].update(beta1=0.9, beta2=0.999, eps=1e-8)))
        loaded = ckpt_io.load(tmp_path / "old.ckpt")
        assert (loaded.opt.learning_rate, loaded.opt.t) == (0.01, 17)
        assert ({name: a.tobytes() for name, a in loaded.arrays.items()}
                == {name: a.tobytes() for name, a in ckpt.arrays.items()})

    def test_tabular_round_trip(self, tmp_path):
        table = QTable(32)
        table.values[:] = np.random.default_rng(1).normal(size=table.values.shape)
        loaded = ckpt_io.load(saved(tmp_path, Checkpoint("tabular", table, None, 10, "fp")))
        assert loaded.kind == "tabular"
        assert np.array_equal(loaded.params.values, table.values)
        assert loaded.params.n_state_bins == 32


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            ckpt_io.load(tmp_path / "nope.ckpt")

    def test_corrupt_payload(self, tmp_path):
        path = saved(tmp_path, make_dqn_checkpoint())
        raw = path.read_bytes()
        # truncated, trailing bytes, a header nested past the recursion limit
        for payload in (raw[:-16], raw + bytes(8), ckpt_io.MAGIC + b"[" * 100_000 + b"\n"):
            path.write_bytes(payload)
            with pytest.raises(CheckpointError):
                ckpt_io.load(path)

    def test_zero_state_bins_rejected(self, tmp_path):
        path = saved(tmp_path, Checkpoint("tabular", QTable(0), None, 0, "abc"))
        with pytest.raises(CheckpointError):
            ckpt_io.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_array_not_written(self, tmp_path, value):
        ckpt = make_dqn_checkpoint()
        ckpt.params.weights[1][0, 0] = value
        path = tmp_path / "diverged.ckpt"
        with pytest.raises(CheckpointError, match="'w1' holds non-finite"):
            ckpt_io.save(path, ckpt)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_array_not_loaded(self, tmp_path, value):
        path = tmp_path / "c.ckpt"
        path.write_bytes(corrupt(saved_bytes("dqn"), ("float", 0, value)))
        with pytest.raises(CheckpointError, match="'w0' holds non-finite values"):
            ckpt_io.load(path)

    def test_bad_magic(self, tmp_path):
        path = saved(tmp_path, make_dqn_checkpoint())
        path.write_bytes(path.read_bytes().replace(b"RATECKPT v1", b"RATECKPT v2", 1))
        with pytest.raises(CheckpointError, match="bad magic"):
            ckpt_io.load(path)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = saved(tmp_path, make_dqn_checkpoint(fingerprint="trained-under-x"))
        with pytest.raises(CheckpointError):
            ckpt_io.load(path, expected_fingerprint="different")

    def test_fingerprint_mismatch_override_warns(self, tmp_path):
        path = saved(tmp_path, make_dqn_checkpoint(fingerprint="trained-under-x"))
        with pytest.warns(UserWarning):
            loaded = ckpt_io.load(path, expected_fingerprint="different",
                                  allow_fingerprint_mismatch=True)
        assert loaded.fingerprint == "trained-under-x"

    def test_fingerprint_match_silent(self, tmp_path):
        path = saved(tmp_path, make_dqn_checkpoint(fingerprint="same"))
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
    if op == "float":  # one array element, NaN and infinities included
        nl = raw.index(b"\n", len(ckpt_io.MAGIC))
        i = nl + 1 + 8 * (where % ((len(raw) - nl - 1) // 8))
        return raw[:i] + np.array([arg], dtype="<f8").tobytes() + raw[i + 8:]

    def set_field(header):
        paths = list(header_paths(header))
        *parents, last = paths[where % len(paths)]
        node = header
        for key in parents:
            node = node[key]
        node[last] = arg
    return with_header(raw, set_field)


CORRUPTIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("float"), st.integers(0, 10**6),
              st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats()),
    st.tuples(st.just("field"), st.integers(0, 10**6),
              st.sampled_from([None, -1, 1.5, "x", [], {}, 10**20, 1e308, float("inf")])),
)


def is_count(value):
    return type(value) is int and value >= 0


def set_shape(name, shape):
    def edit(header):
        (entry,) = [e for e in header["arrays"] if e["name"] == name]
        entry["shape"] = shape
    return edit


def moments_of_widths(m_width, v_width):
    """Adam moments for layer_sizes [1, m_width, 8] and [1, v_width, 8]."""
    def edit(header):
        for moment, width in (("m", m_width), ("v", v_width)):
            shapes = {"w0": [1, width], "b0": [width], "w1": [width, 8], "b1": [8]}
            for key, shape in shapes.items():
                set_shape(f"adam_{moment}{key}", shape)(header)
    return edit


def rename(name, new_name):
    def edit(header):
        (entry,) = [e for e in header["arrays"] if e["name"] == name]
        entry["name"] = new_name
    return edit


# The small DQN checkpoint has layer_sizes [1, 3, 8]; each edit keeps the
# array section's length, so only the layer check can catch it.
BROKEN_LAYERS = {
    "weights_do_not_chain": set_shape("w0", [3, 1]),
    "moment_does_not_chain": set_shape("adam_mw1", [8, 3]),
    "moment_other_layout": set_shape("adam_vb0", [1, 3]),
    "layer_sizes_disagree": lambda h: h.update(layer_sizes=[1, 3, 3, 8]),
    "layer_sizes_other_width": lambda h: h.update(layer_sizes=[1, 4, 8]),
    "no_layers": lambda h: h.update(layer_sizes=[1]),
    "one_layer_too_wide": lambda h: h.update(layer_sizes=[1, 8]),
    # 2 + 2 + 16 + 8 and 4 + 4 + 32 + 8 floats fill the two moments' 2 x 38
    "moments_chain_other_widths": moments_of_widths(2, 4),
    "weight_missing": rename("w1", "w9"),
    "moment_missing": rename("adam_vb1", "adam_vb9"),
}


@pytest.mark.parametrize("edit", BROKEN_LAYERS.values(), ids=BROKEN_LAYERS.keys())
def test_broken_layers_raise_checkpoint_error(tmp_path, edit):
    path = tmp_path / "c.ckpt"
    path.write_bytes(with_header(saved_bytes("dqn"), edit))
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        ckpt_io.load(path)


def insert_entry(index, name):
    def edit(header):
        header["arrays"].insert(index, {"name": name, "shape": [0]})
    return edit


# Each edit adds a manifest entry of shape [0], which holds no bytes, so only
# the check of the manifest against Checkpoint.arrays can catch it.
STRAY_ENTRIES = {
    "tabular_extra_entry": ("tabular", insert_entry(1, "junk")),
    "tabular_q_values_twice": ("tabular", insert_entry(0, "q_values")),
    "dqn_extra_array": ("dqn", insert_entry(12, "w2")),
}


@pytest.mark.parametrize("kind,edit", STRAY_ENTRIES.values(), ids=STRAY_ENTRIES.keys())
def test_manifest_other_than_saved_raises_checkpoint_error(tmp_path, kind, edit):
    path = tmp_path / "c.ckpt"
    path.write_bytes(with_header(saved_bytes(kind), edit))
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        ckpt_io.load(path)


# Each edit leaves the array bytes as saved and makes one header field
# missing, of the wrong type, out of range or at odds with the arrays.
BAD_FIELDS = {
    "adam_learning_rate_0": ("dqn", lambda h: h["adam"].update(learning_rate=0),
                             "'learning_rate' must be > 0"),
    "adam_learning_rate_null": ("dqn", lambda h: h["adam"].update(learning_rate=None),
                                "'learning_rate' must be a number"),
    "adam_t_list": ("dqn", lambda h: h["adam"].update(t=[]), "'t' must be an integer"),
    "no_adam": ("dqn", lambda h: h.pop("adam"), "KeyError('adam')"),
    "train_step_x": ("dqn", lambda h: h.update(train_step="x"),
                     "'train_step' must be an integer"),
    "train_step_1.5": ("dqn", lambda h: h.update(train_step=1.5),
                       "'train_step' must be an integer"),
    "no_kind": ("dqn", lambda h: h.pop("kind"), "KeyError('kind')"),
    "unknown_kind": ("dqn", lambda h: h.update(kind="bogus"),
                     "unknown checkpoint kind 'bogus'"),
    "dqn_read_as_tabular": ("dqn", lambda h: h.update(kind="tabular", n_state_bins=3),
                            "KeyError('q_values')"),
    "shape_of_floats": ("dqn", lambda h: h["arrays"][0].update(shape=[1e308, 1e308]),
                        "cannot be interpreted as an integer"),
    "n_state_bins_disagree": ("tabular", lambda h: h.update(n_state_bins=4),
                              "disagrees with n_state_bins"),
    "q_values_4_columns": ("tabular", lambda h: h.update(
        n_state_bins=6, arrays=[{"name": "q_values", "shape": [6, 4]}]),
        "disagrees with n_state_bins"),
}


@pytest.mark.parametrize("kind,edit,fragment", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_bad_header_field_raises_checkpoint_error(tmp_path, kind, edit, fragment):
    path = tmp_path / "c.ckpt"
    path.write_bytes(with_header(saved_bytes(kind), edit))
    with pytest.raises(CheckpointError, match=re.escape(fragment)):
        ckpt_io.load(path)


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
        MlpParams(ckpt.params.weights, ckpt.params.biases)  # layers chain
        assert is_count(ckpt.opt.t)
        lr = ckpt.opt.learning_rate
        assert type(lr) in (int, float) and math.isfinite(lr) and lr > 0
        arrays = ckpt.arrays.values()
    else:
        values = ckpt.params.values
        assert values.ndim == 2 and values.shape[1] == N_MCS and len(values) >= 1
        arrays = [values]
    assert all(np.all(np.isfinite(a)) for a in arrays)
