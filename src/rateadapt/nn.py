"""Minimal fully connected Q-network with manual backpropagation and Adam.

The network maps a single scaled observation to one Q-value per MCS. No
autodiff framework: gradients are written out by hand, which keeps the
whole training loop dependency-free and lets the tests check them against
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phy import N_MCS


@dataclass
class MlpParams:
    """Weights and biases of a fully connected ReLU network.

    weights[i] has shape (layer_sizes[i], layer_sizes[i+1]); biases[i] has
    shape (layer_sizes[i+1],). Input width is 1 (the scaled observation),
    output width is 8 (one Q-value per MCS).
    """

    layer_sizes: list
    weights: list
    biases: list

    def validate(self):
        if self.layer_sizes[0] != 1 or self.layer_sizes[-1] != N_MCS:
            raise ValueError(
                f"layer sizes must start at 1 and end at {N_MCS}, "
                f"got {self.layer_sizes}"
            )
        if len(self.weights) != len(self.layer_sizes) - 1:
            raise ValueError("weight count does not match layer sizes")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            expect = (self.layer_sizes[i], self.layer_sizes[i + 1])
            if w.shape != expect or b.shape != (expect[1],):
                raise ValueError(f"layer {i}: shape {w.shape} != {expect}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")

    def copy(self) -> "MlpParams":
        return MlpParams(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def init_mlp(hidden_sizes, rng: np.random.Generator) -> MlpParams:
    """Glorot-uniform hidden weights, zero biases, zero output layer, for
    [1, *hidden, 8].

    The zero output layer makes the fresh policy start at Q = 0 everywhere,
    so argmax tie-breaking picks MCS 0 (the safest rate) until learning
    differentiates the actions; it also removes init-lottery variance from
    the early episodes.
    """
    sizes = [1, *[int(h) for h in hidden_sizes], N_MCS]
    weights, biases = [], []
    last = len(sizes) - 2
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weights.append(np.zeros((fan_in, fan_out)) if i == last else w)
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, weights, biases)


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Batched forward pass returning pre- and post-activation caches."""
    a = x
    pre, post = [], [a]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        post.append(a)
    return a, pre, post


def mlp_forward(params: MlpParams, observation) -> np.ndarray:
    """Q-values for one observation (returns shape (8,)) or a batch
    (shape (n, 8) for input shape (n,))."""
    obs = np.asarray(observation, dtype=float)
    scalar = obs.ndim == 0
    x = obs.reshape(-1, 1)
    out, _, _ = _forward_cached(params, x)
    return out[0] if scalar else out


def mlp_backward(params: MlpParams, observation: float, action: int, target: float):
    """Gradients of 0.5 * (Q(observation)[action] - target)^2.

    Only the selected action's output error propagates; output-layer rows of
    the other actions get exactly zero gradient.
    """
    if not 0 <= int(action) < N_MCS:
        raise ValueError(f"action {action} outside [0, {N_MCS - 1}]")
    grads_w, grads_b, _ = _backward_batch(
        params,
        np.asarray([observation], dtype=float),
        np.asarray([action], dtype=int),
        np.asarray([target], dtype=float),
    )
    return grads_w, grads_b


def _backward_batch(params: MlpParams, observations, actions, targets):
    """Mean gradient over a batch of per-transition losses
    0.5 * (Q(s)[a] - target)^2, plus the mean loss itself.

    For a single-element batch this is bit-identical to mlp_backward.
    """
    n = len(observations)
    x = np.asarray(observations, dtype=float).reshape(-1, 1)
    out, pre, post = _forward_cached(params, x)

    diff = out[np.arange(n), actions] - targets
    loss = float(np.sum(0.5 * diff * diff) / n)

    # dL/d(out): only the chosen action's column carries error.
    delta = np.zeros_like(out)
    delta[np.arange(n), actions] = diff / n

    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = post[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * (pre[i - 1] > 0)
    return grads_w, grads_b, loss


@dataclass
class AdamState:
    """Adam moments and hyperparameters for one MlpParams instance."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m_w: list = field(default_factory=list)
    v_w: list = field(default_factory=list)
    m_b: list = field(default_factory=list)
    v_b: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params: MlpParams, learning_rate: float) -> "AdamState":
        state = cls(learning_rate=learning_rate)
        state.m_w = [np.zeros_like(w) for w in params.weights]
        state.v_w = [np.zeros_like(w) for w in params.weights]
        state.m_b = [np.zeros_like(b) for b in params.biases]
        state.v_b = [np.zeros_like(b) for b in params.biases]
        return state


def adam_step(state: AdamState, params: MlpParams, grads_w, grads_b):
    """One bias-corrected Adam update, in place; returns (params, state)."""
    if len(grads_w) != len(params.weights):
        raise ValueError("gradient/parameter layer count mismatch")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for i in range(len(params.weights)):
        for p, g, m, v in (
            (params.weights[i], grads_w[i], state.m_w[i], state.v_w[i]),
            (params.biases[i], grads_b[i], state.m_b[i], state.v_b[i]),
        ):
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != param {p.shape}")
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state
