"""Checkpoint serialization for trained policies.

A checkpoint is a single self-describing file:

    line 1: magic "RATECKPT v1"
    line 2: JSON header (layer sizes, optimizer hyperparameters, train-step
            counter, config fingerprint, and a manifest of array shapes)
    then:   the arrays from the manifest, concatenated as little-endian
            64-bit floats in row-major order.

The binary section keeps round-trips bit-exact; the header keeps the file
readable with a text editor's first two lines.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .nn import AdamState, MlpParams
from .tabular import QTable

MAGIC = b"RATECKPT v1\n"


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate a policy."""

    kind: str  # "dqn" | "tabular"
    params: object  # MlpParams or QTable
    opt: AdamState | None
    train_step: int
    fingerprint: str


def _dqn_arrays(params: MlpParams, opt: AdamState):
    arrays = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    if opt is not None:
        for i in range(len(params.weights)):
            arrays[f"adam_mw{i}"] = opt.m_w[i]
            arrays[f"adam_vw{i}"] = opt.v_w[i]
            arrays[f"adam_mb{i}"] = opt.m_b[i]
            arrays[f"adam_vb{i}"] = opt.v_b[i]
    return arrays


def save(path, ckpt: Checkpoint):
    """Write a checkpoint; the parent directory must exist."""
    header = {
        "kind": ckpt.kind,
        "train_step": int(ckpt.train_step),
        "fingerprint": ckpt.fingerprint,
    }
    if ckpt.kind == "dqn":
        params: MlpParams = ckpt.params
        header["layer_sizes"] = list(params.layer_sizes)
        if ckpt.opt is not None:
            header["adam"] = {
                "learning_rate": ckpt.opt.learning_rate,
                "beta1": ckpt.opt.beta1,
                "beta2": ckpt.opt.beta2,
                "eps": ckpt.opt.eps,
                "t": ckpt.opt.t,
            }
        arrays = _dqn_arrays(params, ckpt.opt)
    elif ckpt.kind == "tabular":
        table: QTable = ckpt.params
        header["n_state_bins"] = table.n_state_bins
        arrays = {"q_values": table.values}
    else:
        raise CheckpointError(f"unknown checkpoint kind {ckpt.kind!r}")

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
    if not p.exists():
        raise FileNotFoundError(f"checkpoint not found: {p}")
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{p}: cannot read checkpoint ({exc})") from exc
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{p}: not a checkpoint file (bad magic)")
    try:
        return _parse(p, raw, expected_fingerprint, allow_fingerprint_mismatch)
    except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"{p}: corrupt checkpoint ({exc!r})") from exc


def _parse(p: Path, raw: bytes, expected_fingerprint,
           allow_fingerprint_mismatch) -> Checkpoint:
    nl = raw.index(b"\n", len(MAGIC))
    header = json.loads(raw[len(MAGIC):nl].decode("utf-8"))
    blob = raw[nl + 1:]
    arrays = {}
    offset = 0
    for entry in header["arrays"]:
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        nbytes = count * 8
        arrays[entry["name"]] = np.frombuffer(
            blob[offset:offset + nbytes], dtype="<f8"
        ).reshape(entry["shape"]).copy()
        offset += nbytes
    if offset != len(blob):
        raise ValueError("trailing bytes after declared arrays")

    fingerprint = header.get("fingerprint", "")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        msg = (f"{p}: config fingerprint {fingerprint[:12]}... does not match "
               f"the current config {expected_fingerprint[:12]}...")
        if not allow_fingerprint_mismatch:
            raise CheckpointError(msg)
        warnings.warn(msg, stacklevel=3)

    if header["kind"] == "dqn":
        sizes = header["layer_sizes"]
        n_layers = len(sizes) - 1
        params = MlpParams(
            sizes,
            [arrays[f"w{i}"] for i in range(n_layers)],
            [arrays[f"b{i}"] for i in range(n_layers)],
        )
        params.validate()
        opt = None
        if "adam" in header:
            meta = header["adam"]
            opt = AdamState(
                learning_rate=meta["learning_rate"], beta1=meta["beta1"],
                beta2=meta["beta2"], eps=meta["eps"], t=meta["t"],
                m_w=[arrays[f"adam_mw{i}"] for i in range(n_layers)],
                v_w=[arrays[f"adam_vw{i}"] for i in range(n_layers)],
                m_b=[arrays[f"adam_mb{i}"] for i in range(n_layers)],
                v_b=[arrays[f"adam_vb{i}"] for i in range(n_layers)],
            )
        return Checkpoint("dqn", params, opt, header["train_step"], fingerprint)
    if header["kind"] == "tabular":
        if header["n_state_bins"] < 1:
            raise ValueError("n_state_bins must be >= 1")
        table = QTable(header["n_state_bins"])
        if arrays["q_values"].shape != table.values.shape:
            raise ValueError("q_values shape disagrees with n_state_bins")
        table.values = arrays["q_values"]
        return Checkpoint("tabular", table, None, header["train_step"], fingerprint)
    raise CheckpointError(f"{p}: unknown checkpoint kind {header['kind']!r}")
