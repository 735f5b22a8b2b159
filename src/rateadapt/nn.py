"""Minimal fully connected Q-network with manual backpropagation and Adam.

The network maps a single scaled observation to one Q-value per MCS. No
autodiff framework: gradients are written out by hand, which keeps the
whole training loop dependency-free and lets the tests check them against
finite differences. The network, its gradient and each Adam moment are
one flat vector apiece with per-layer views, so Adam runs once over each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phy import N_MCS

# Adam's fixed hyperparameters; only the learning rate is configurable.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MlpParams:
    """Weights and biases of a fully connected ReLU network.

    weights[i] has shape (layer_sizes[i], layer_sizes[i+1]); biases[i] has
    shape (layer_sizes[i+1],). Both are views into one float64 vector `flat`
    (w0, b0, w1, b1, ...). Input width is 1 (the scaled observation),
    output width is 8 (one Q-value per MCS).
    """

    def __init__(self, weights, biases):
        """Pack copies of the layers; ValueError unless they chain from 1 to N_MCS."""
        arrays = [np.asarray(a, dtype=float)
                  for layer in zip(weights, biases, strict=True) for a in layer]
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self._bind(np.concatenate([a.ravel() for a in arrays]),
                   tuple((slice(e - a.size, e), a.shape) for a, e in zip(arrays, ends)))
        width = 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} "
                                 f"do not fit input width {width}")
            width = w.shape[1]
        if width != N_MCS:
            raise ValueError(f"layers must chain from width 1 to {N_MCS}")

    def _bind(self, flat, layout):  # layout: (slice of flat, shape) per array
        self._flat, self._layout = flat, layout
        views = [flat[s].reshape(shape) for s, shape in layout]
        self._weights, self._biases = tuple(views[::2]), tuple(views[1::2])

    flat = property(lambda self: self._flat)
    weights = property(lambda self: self._weights)
    biases = property(lambda self: self._biases)

    @property
    def layer_sizes(self) -> list:
        """Layer widths, read from the weight shapes."""
        return [self.weights[0].shape[0], *(w.shape[1] for w in self.weights)]

    def like(self, flat: np.ndarray) -> "MlpParams":
        """A network with this one's layout over `flat`, which it does not copy."""
        twin = object.__new__(MlpParams)
        twin._bind(flat, self._layout)
        return twin

    def copy(self) -> "MlpParams":
        return self.like(self._flat.copy())


def init_mlp(hidden_sizes, rng: np.random.Generator) -> MlpParams:
    """Glorot-uniform hidden weights, zero biases, zero output layer, for
    [1, *hidden, 8].

    The zero output layer makes the fresh policy start at Q = 0 everywhere,
    so argmax tie-breaking picks MCS 0 (the safest rate) until learning
    differentiates the actions; it also removes init-lottery variance from
    the early episodes.
    """
    sizes = [1, *[int(h) for h in hidden_sizes], N_MCS]
    weights = []
    last = len(sizes) - 2
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weights.append(np.zeros((fan_in, fan_out)) if i == last else w)
    return MlpParams(weights, [np.zeros(n) for n in sizes[1:]])


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
    (grads, loss), where grads is laid out like params.

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

    grads = params.like(np.empty_like(params.flat))
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(post[i].T, delta, out=grads.weights[i])
        np.add.reduce(delta, axis=0, out=grads.biases[i])
        if i > 0:
            # post[i] = relu(pre-activation), positive exactly where it is
            delta = (delta @ params.weights[i].T) * (post[i] > 0)
    return grads, loss


@dataclass
class AdamState:
    """Adam's learning rate, step counter and moments, laid out like params."""

    learning_rate: float
    t: int
    m: MlpParams
    v: MlpParams

    m_w = property(lambda self: self.m.weights)
    v_w = property(lambda self: self.v.weights)
    m_b = property(lambda self: self.m.biases)
    v_b = property(lambda self: self.v.biases)

    @classmethod
    def for_params(cls, params: MlpParams, learning_rate: float) -> "AdamState":
        return cls(learning_rate, 0, params.like(np.zeros_like(params.flat)),
                   params.like(np.zeros_like(params.flat)))


def adam_step(state: AdamState, params: MlpParams, grads: MlpParams) -> None:
    """One bias-corrected Adam update of params and state, in place."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
