"""Minimal fully connected Q-network with manual backpropagation and Adam.

The network maps a single scaled observation to one Q-value per MCS. No
autodiff framework: gradients are written out by hand, which keeps the
whole training loop dependency-free and lets the tests check them against
finite differences. The network, its gradient and each Adam moment are
one flat vector apiece with per-layer views, so Adam runs once over each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

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
        self._w0_row = flat[layout[0][0]]  # the width-1 layer as a 1-D view

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


def _forward(params: MlpParams, x, inputs: list | None = None):
    """Forward pass of a float x to shape (8,), or of a column x, shape
    (n, 1), to shape (n, 8); when given `inputs`, appends each hidden
    layer's output, the next layer's input, to it for the backward pass.

    The width-1 input layer is the product x * w0: a k=1 matmul has no sum,
    so once the bias is added it equals x @ w0 bit for bit. A float stays a
    1-D row, whose (k,) @ (k, m) products are (1, k) @ (k, m)'s gemv.
    """
    z = x * params._w0_row
    for w, b in zip(params._weights[1:], params._biases):  # b ends the layer before w
        z += b
        np.maximum(z, 0.0, out=z)
        if inputs is not None:
            inputs.append(z)
        z = z @ w
    z += params._biases[-1]
    return z


def mlp_forward(params: MlpParams, observation: float) -> np.ndarray:
    """Q-values, shape (8,), for one float observation. It looks `_forward`
    up at each call, so a patched `nn._forward` is what the agents run."""
    return _forward(params, observation)


# An undecided interval narrower than BAND_WIDTH, or every undecided one
# once more than BAND_CAP are live, becomes a band: the forward decides it.
BAND_WIDTH, BAND_CAP = 2.0 ** -40, 256


def _q_bounds(params: MlpParams, lo, hi):
    """(lower, upper), each (k, 8), bounding the Q-values that the single
    forward computes at every float x in [lo[i], hi[i]]: exact for the
    elementwise x * w0, + b and ReLU, which round monotonically, and each
    z @ w widened by (4n + 4)u * (upper(z) @ |w|), n = len(w), u = 2**-53,
    plus 2**-1000 per nonzero weight (README, Determinism)."""
    ends = [x[:, None] * params._w0_row for x in (lo, hi)]
    low, up = np.minimum(*ends), np.maximum(*ends)
    for w, b in zip(params._weights[1:], params._biases):
        low, up = np.maximum(low + b, 0.0), np.maximum(up + b, 0.0)
        split = np.concatenate((np.maximum(w, 0.0), np.minimum(w, 0.0)))
        margin = ((4 * len(w) + 4) * 2.0 ** -53 * (up @ np.abs(w))
                  + 2.0 ** -1000 * np.count_nonzero(w, axis=0))
        low, up = np.hstack((low, up)) @ split - margin, np.hstack((up, low)) @ split + margin
    return low + params._biases[-1], up + params._biases[-1]


def greedy_steps(params: MlpParams):
    """argmax(mlp_forward(params, x)) as a step function of a float x:
    ascending edges and one action per interval, actions[i] for the x in
    [edges[i - 1], edges[i]), or -1 for a band, where the forward decides
    (x outside [0, 1] is one). Bisects [0, 1], all live intervals at once,
    until one action's lower bound beats every other's upper bound, or
    equals it for a higher action, as argmax breaks ties to the lowest."""
    higher = np.triu(np.ones((N_MCS, N_MCS), dtype=bool), 1)  # [a, j]: j > a
    pieces = [(-np.inf, -1), (float(np.nextafter(1.0, 2.0)), -1)]  # (start, action)
    lo, hi = np.array([0.0]), np.array([1.0])
    with np.errstate(all="ignore"):  # an overflowing bound certifies nothing
        while len(lo):
            low, up = _q_bounds(params, lo, hi)
            low_a, up_j = low[:, :, None], up[:, None, :]
            won = ((low_a > up_j) | higher & (low_a >= up_j) | np.eye(N_MCS, dtype=bool)).all(2)
            live = ~won.any(1) & (hi - lo >= BAND_WIDTH) & (len(lo) <= BAND_CAP)
            actions = np.where(won.any(1), won.argmax(1), -1)
            pieces += zip(lo[~live].tolist(), actions[~live].tolist())
            lo, hi = lo[live], hi[live]
            mid = lo + (hi - lo) / 2
            lo, hi = np.concatenate((lo, np.nextafter(mid, 2.0))), np.concatenate((mid, hi))
    runs = [next(run) for _, run in groupby(sorted(pieces), key=lambda piece: piece[1])]
    return [start for start, _ in runs[1:]], [action for _, action in runs]


def mlp_backward(params: MlpParams, observations, actions, targets,
                 grads: MlpParams) -> float:
    """Mean gradient over a batch of per-transition losses
    0.5 * (Q(s)[a] - target)^2, written into `grads` (laid out like params);
    returns the mean loss.

    Only each transition's chosen action carries output error, so output
    columns no transition chose get exactly zero gradient.
    """
    n = len(observations)
    rows = np.arange(n)
    x = np.asarray(observations, dtype=float).reshape(-1, 1)
    post = [x]  # each layer's input
    out = _forward(params, x, post)

    diff = out[rows, actions] - targets
    loss = float(np.add.reduce(0.5 * diff * diff) / n)

    # dL/d(out): only the chosen action's column carries error.
    delta = np.zeros_like(out)
    delta[rows, actions] = diff / n

    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(post[i].T, delta, out=grads.weights[i])
        np.add.reduce(delta, axis=0, out=grads.biases[i])
        if i > 0:
            # post[i] = relu(pre-activation), positive exactly where it is
            delta = (delta @ params.weights[i].T) * (post[i] > 0)
    return loss


@dataclass
class AdamState:
    """Adam's learning rate, step counter and moments, laid out like params."""

    learning_rate: float
    t: int
    m: MlpParams
    v: MlpParams

    # Read by perfbench's dqn_arrays only; src/ and the tests read m and v.
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
