"""Checkpoint serialization for trained policies.

A checkpoint is a single self-describing file:

    line 1: magic "RATECKPT v1"
    line 2: JSON header (layer sizes, optimizer hyperparameters, train-step
            counter, config fingerprint, and a manifest of array shapes)
    then:   the arrays from the manifest, concatenated as little-endian
            64-bit floats in row-major order.

The binary section keeps round-trips bit-exact; the header keeps the file
readable with a text editor's first two lines. Every array must be finite,
the header's layer_sizes or n_state_bins must match the array shapes, the
manifest must name exactly the arrays save writes, in its order, and
train_step and Adam's t and learning_rate pass the config's validators.
Adam's betas and epsilon are written for reference only; `nn` fixes them.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _int, _num
from .errors import CheckpointError
from .nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, MlpParams
from .phy import N_MCS
from .tabular import QTable

MAGIC = b"RATECKPT v1\n"


@dataclass
class Checkpoint:
    """A trained policy with its optimizer state, step count and fingerprint."""

    kind: str  # "dqn" | "tabular"
    params: object  # MlpParams or QTable
    opt: AdamState | None  # None for a tabular checkpoint
    train_step: int
    fingerprint: str

    @property
    def arrays(self) -> dict:
        """The arrays by name, in file order: q_values, or w0, b0, w1, ...,
        then adam_mw0, adam_vw0, adam_mb0, adam_vb0, adam_mw1, ..."""
        if self.kind == "tabular":
            return {"q_values": self.params.values}
        groups = [{"w": self.params.weights, "b": self.params.biases},
                  {"adam_mw": self.opt.m_w, "adam_vw": self.opt.v_w,
                   "adam_mb": self.opt.m_b, "adam_vb": self.opt.v_b}]
        return {f"{prefix}{i}": layers[i] for group in groups
                for i in range(len(self.params.weights))
                for prefix, layers in group.items()}


def require_finite(arrays: dict, context: str):
    """CheckpointError "<context>, array ... holds non-finite values" for the
    first array with a NaN or an infinity; save, load and training use this."""
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise CheckpointError(f"{context}, array {name!r} holds non-finite values")


def save(path, ckpt: Checkpoint):
    """Write a checkpoint; the parent directory must exist. A checkpoint
    with a non-finite array raises CheckpointError before the file is opened."""
    header = {
        "kind": ckpt.kind,
        "train_step": int(ckpt.train_step),
        "fingerprint": ckpt.fingerprint,
    }
    if ckpt.kind == "dqn":
        header["layer_sizes"] = ckpt.params.layer_sizes
        header["adam"] = {"learning_rate": ckpt.opt.learning_rate,
                          "beta1": ADAM_BETA1, "beta2": ADAM_BETA2,
                          "eps": ADAM_EPS, "t": ckpt.opt.t}
    else:
        header["n_state_bins"] = ckpt.params.n_state_bins
    arrays = ckpt.arrays
    require_finite(arrays, f"{path}: not written")
    header["arrays"] = [
        {"name": name, "shape": list(a.shape)} for name, a in arrays.items()
    ]
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for a in arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load(path, expected_fingerprint: str | None = None,
         allow_fingerprint_mismatch: bool = False) -> Checkpoint:
    """Read a checkpoint back, verifying the config fingerprint if given.

    Any malformed header or array section raises CheckpointError.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{p}: cannot read checkpoint ({exc})") from exc
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{p}: not a checkpoint file (bad magic)")
    try:
        return _parse(p, raw, expected_fingerprint, allow_fingerprint_mismatch)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise CheckpointError(f"{p}: corrupt checkpoint ({exc!r})") from exc


def _field(node, key, check):
    """node[key] if the config validator `check` accepts it, else ValueError."""
    value = node[key]
    if problem := check(value):
        raise ValueError(f"header field {key!r} {problem} (got {value!r})")
    return value


def _parse(p: Path, raw: bytes, expected_fingerprint,
           allow_fingerprint_mismatch) -> Checkpoint:
    nl = raw.index(b"\n", len(MAGIC))
    header = json.loads(raw[len(MAGIC):nl].decode("utf-8"))
    blob = raw[nl + 1:]
    arrays = {}
    offset = 0
    for entry in header["arrays"]:
        count = math.prod(map(int, entry["shape"]))
        nbytes = count * 8
        arrays[entry["name"]] = np.frombuffer(
            blob[offset:offset + nbytes], dtype="<f8"
        ).reshape(entry["shape"]).copy()
        offset += nbytes
    if offset != len(blob):
        raise ValueError("trailing bytes after declared arrays")
    require_finite(arrays, f"{p}: corrupt checkpoint")

    fingerprint = header.get("fingerprint", "")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        msg = (f"{p}: config fingerprint {fingerprint[:12]}... does not match "
               f"the current config {expected_fingerprint[:12]}...")
        if not allow_fingerprint_mismatch:
            raise CheckpointError(msg)
        warnings.warn(msg, stacklevel=3)
    train_step = _field(header, "train_step", _int(lo=0))

    if header["kind"] == "dqn":
        sizes = header["layer_sizes"]

        def layers(prefix):  # Checkpoint.arrays's prefix0, prefix1, ...
            return [arrays[f"{prefix}{i}"] for i in range(len(sizes) - 1)]

        params, m, v = (MlpParams(layers(w), layers(b)) for w, b in
                        (("w", "b"), ("adam_mw", "adam_mb"), ("adam_vw", "adam_vb")))
        if not sizes == params.layer_sizes == m.layer_sizes == v.layer_sizes:
            raise ValueError(f"layer_sizes {sizes} disagree with the array shapes")
        meta = header["adam"]
        opt = AdamState(_field(meta, "learning_rate", _num(lo=0, lo_open=True)),
                        _field(meta, "t", _int(lo=0)), m, v)
    elif header["kind"] == "tabular":
        values = arrays["q_values"]
        if not (values.ndim == 2 and values.shape[1] == N_MCS
                and 1 <= len(values) == header["n_state_bins"]):
            raise ValueError(f"q_values shape {values.shape} disagrees with n_state_bins")
        params, opt = QTable(len(values)), None
        params.values = values
    else:
        raise CheckpointError(f"{p}: unknown checkpoint kind {header['kind']!r}")
    ckpt = Checkpoint(header["kind"], params, opt, train_step, fingerprint)
    manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    if manifest != [(name, a.shape) for name, a in ckpt.arrays.items()]:
        raise ValueError("the array manifest is not the one save writes")
    return ckpt
