"""Minimal fully connected Q-network with manual backpropagation and Adam.

The network maps a single scaled observation to one Q-value per MCS. No
autodiff framework: gradients are written out by hand, which keeps the
whole training loop dependency-free and lets the tests check them against
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phy import N_MCS

# Adam's fixed hyperparameters; only the learning rate is configurable.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class MlpParams:
    """Weights and biases of a fully connected ReLU network.

    weights[i] has shape (layer_sizes[i], layer_sizes[i+1]); biases[i] has
    shape (layer_sizes[i+1],). Input width is 1 (the scaled observation),
    output width is 8 (one Q-value per MCS).
    """

    weights: list
    biases: list

    @property
    def layer_sizes(self) -> list:
        """Layer widths, read from the weight shapes."""
        return [self.weights[0].shape[0], *(w.shape[1] for w in self.weights)]

    def validate(self):
        """Raise ValueError unless the layers chain from width 1 to N_MCS."""
        width = 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} "
                                 f"do not fit input width {width}")
            width = w.shape[1]
        if len(self.weights) != len(self.biases) or width != N_MCS:
            raise ValueError(f"layers must chain from width 1 to {N_MCS}")

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])


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
    return MlpParams(weights, biases)


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Batched forward pass returning the output and the list of every
    layer's input followed by the output."""
    post = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = post[-1] @ w + b
        post.append(z if i == last else np.maximum(z, 0.0))
    return post[-1], post


def mlp_forward(params: MlpParams, observation) -> np.ndarray:
    """Q-values for one observation (returns shape (8,)) or a batch
    (shape (n, 8) for input shape (n,))."""
    obs = np.asarray(observation, dtype=float)
    out, _ = _forward_cached(params, obs.reshape(-1, 1))
    return out[0] if obs.ndim == 0 else out


def mlp_backward(params: MlpParams, observations, actions, targets):
    """Mean gradient over a batch of per-transition losses
    0.5 * (Q(s)[a] - target)^2, plus the mean loss itself; returns
    (grads_w, grads_b, loss).

    Only each transition's chosen action carries output error, so output
    columns no transition chose get exactly zero gradient.
    """
    n = len(observations)
    x = np.asarray(observations, dtype=float).reshape(-1, 1)
    out, post = _forward_cached(params, x)

    diff = out[np.arange(n), actions] - targets
    loss = float(np.sum(0.5 * diff * diff) / n)

    # dL/d(out): only the chosen action's column carries error.
    delta = np.zeros_like(out)
    delta[np.arange(n), actions] = diff / n

    grads_w, grads_b = [], []
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w.insert(0, post[i].T @ delta)
        grads_b.insert(0, delta.sum(axis=0))
        if i > 0:
            # post[i] = relu(pre-activation), positive exactly where it is
            delta = (delta @ params.weights[i].T) * (post[i] > 0)
    return grads_w, grads_b, loss


@dataclass
class AdamState:
    """Adam moments, step counter and learning rate for one MlpParams."""

    learning_rate: float
    t: int
    m_w: list
    v_w: list
    m_b: list
    v_b: list

    @classmethod
    def for_params(cls, params: MlpParams, learning_rate: float) -> "AdamState":
        def zeros(arrays):
            return [np.zeros_like(a) for a in arrays]
        return cls(learning_rate, 0, zeros(params.weights), zeros(params.weights),
                   zeros(params.biases), zeros(params.biases))


def adam_step(state: AdamState, params: MlpParams, grads_w, grads_b) -> None:
    """One bias-corrected Adam update of params and state, in place."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params.weights + params.biases, grads_w + grads_b,
                          state.m_w + state.m_b, state.v_w + state.v_b):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
