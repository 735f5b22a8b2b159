import numpy as np
import pytest

from rateadapt.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                          MlpParams, adam_step, init_mlp, mlp_backward,
                          mlp_forward)


def zero_net(hidden=(4,)):
    sizes = [1, *hidden, 8]
    return MlpParams(
        [np.zeros((a, b)) for a, b in zip(sizes, sizes[1:])],
        [np.zeros(b) for b in sizes[1:]],
    )


def random_net(hidden, rng):
    """Fully random network (including output layer) for gradient checks."""
    sizes = [1, *hidden, 8]
    return MlpParams(
        [rng.normal(size=(a, b)) * 0.7 for a, b in zip(sizes, sizes[1:])],
        [rng.normal(size=b) * 0.1 for b in sizes[1:]],
    )


def grad_buffer(params):
    """An uninitialized gradient laid out like params."""
    return params.like(np.empty_like(params.flat))


def backward(params, observations, actions, targets):
    """(gradient, loss) of mlp_backward, into a fresh gradient buffer."""
    grads = grad_buffer(params)
    loss = mlp_backward(params, observations, actions, targets, grads)
    return grads, loss


def loss_of(params, obs, action, target):
    q = mlp_forward(params, obs)
    return 0.5 * (q[action] - target) ** 2


def numeric_grads(params, obs, action, target, h=1e-5):
    """Central finite differences over every parameter."""
    gw = [np.zeros_like(w) for w in params.weights]
    gb = [np.zeros_like(b) for b in params.biases]
    for grads, arrays in ((gw, params.weights), (gb, params.biases)):
        for g, a in zip(grads, arrays):
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = a[idx]
                a[idx] = orig + h
                up = loss_of(params, obs, action, target)
                a[idx] = orig - h
                down = loss_of(params, obs, action, target)
                a[idx] = orig
                g[idx] = (up - down) / (2 * h)
    return gw, gb


class TestForward:
    def test_zero_network(self):
        assert np.array_equal(mlp_forward(zero_net(), 0.3), np.zeros(8))

    def test_single_linear_layer_is_affine(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(1, 8))
        b = rng.normal(size=8)
        params = MlpParams([w], [b])
        x = 0.42
        assert np.allclose(mlp_forward(params, x), w[0] * x + b)

    def test_default_architecture_output_shape(self):
        params = init_mlp([16, 16, 16], np.random.default_rng(1))
        for x in (0.0, 0.5, 1.0):
            assert mlp_forward(params, x).shape == (8,)

    def test_batch_matches_scalar(self):
        params = random_net([5, 3], np.random.default_rng(2))
        xs = np.linspace(0, 1, 7)
        batch = mlp_forward(params, xs)
        for i, x in enumerate(xs):
            # BLAS may reorder sums for different batch shapes; demand
            # agreement to near machine precision, not bit equality
            assert np.allclose(batch[i], mlp_forward(params, x),
                               rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MlpParams([np.zeros((2, 4)), np.zeros((4, 8))],
                      [np.zeros(4), np.zeros(8)])


class TestBackward:
    def test_zero_loss_gives_zero_grads(self):
        params = random_net([6], np.random.default_rng(3))
        q = mlp_forward(params, 0.5)
        grads, loss = backward(params, np.array([0.5]), np.array([2]),
                               np.array([q[2]]))
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads.weights)
        assert all(np.all(g == 0) for g in grads.biases)

    def test_nonselected_output_rows_zero(self):
        params = random_net([6, 4], np.random.default_rng(4))
        grads, _ = backward(params, np.array([0.3]), np.array([5]),
                            np.array([1.0]))
        mask = np.ones(8, dtype=bool)
        mask[5] = False
        assert np.all(grads.weights[-1][:, mask] == 0)
        assert np.all(grads.biases[-1][mask] == 0)

    @pytest.mark.parametrize("case", range(20))
    def test_finite_difference_oracle_random_nets(self, case):
        rng = np.random.default_rng(100 + case)
        hidden = [int(rng.integers(2, 10)) for _ in range(int(rng.integers(1, 4)))]
        params = random_net(hidden, rng)
        obs = float(rng.uniform(0, 1))
        action = int(rng.integers(0, 8))
        target = float(rng.uniform(-1, 2))
        grads, _ = backward(params, np.array([obs]), np.array([action]),
                            np.array([target]))
        nw, nb = numeric_grads(params, obs, action, target)
        for analytic, numeric in zip(grads.weights + grads.biases, nw + nb):
            scale = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_finite_difference_oracle_default_architecture(self):
        rng = np.random.default_rng(999)
        params = random_net([16, 16, 16], rng)
        grads, _ = backward(params, np.array([0.37]), np.array([4]),
                            np.array([0.8]))
        nw, nb = numeric_grads(params, 0.37, 4, 0.8)
        for analytic, numeric in zip(grads.weights + grads.biases, nw + nb):
            scale = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-4


class TestAdam:
    def test_zero_gradients_leave_params(self):
        params = random_net([4], np.random.default_rng(5))
        before = params.copy()
        state = AdamState.for_params(params, learning_rate=0.01)
        adam_step(state, params, params.like(np.zeros_like(params.flat)))
        assert state.t == 1
        for a, b in zip(before.weights, params.weights):
            assert np.array_equal(a, b)

    def test_first_step_magnitude(self):
        params = MlpParams([np.zeros((1, 8))], [np.zeros(8)])
        state = AdamState.for_params(params, learning_rate=0.01)
        adam_step(state, params, MlpParams([np.ones((1, 8))], [np.zeros(8)]))
        # first bias-corrected step is lr / (1 + eps), independent of |g|
        assert np.allclose(params.weights[0], -0.01, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_first_step_bounded_by_lr(self, scale):
        params = MlpParams([np.zeros((1, 8))], [np.zeros(8)])
        state = AdamState.for_params(params, learning_rate=0.01)
        adam_step(state, params, MlpParams([np.full((1, 8), scale)], [np.zeros(8)]))
        assert np.max(np.abs(params.weights[0])) <= 0.01 * (1 + 1e-6)


class TestInit:
    def test_init_shapes_and_zero_output(self):
        params = init_mlp([16, 16, 16], np.random.default_rng(0))
        assert params.layer_sizes == [1, 16, 16, 16, 8]
        assert np.all(params.weights[-1] == 0)
        assert all(np.all(b == 0) for b in params.biases)
        # hidden weights within the Glorot bound
        for w, (a, b) in zip(params.weights[:-1],
                             zip(params.layer_sizes, params.layer_sizes[1:])):
            assert np.max(np.abs(w)) <= np.sqrt(6.0 / (a + b))


def reference_forward(params, obs):
    """The (n, 8) output for n observations, one layer at a time."""
    x = obs.reshape(-1, 1)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = x @ w + b
        x = z if i == len(params.weights) - 1 else np.maximum(z, 0.0)
    return x


def reference_backward(weights, biases, obs, actions, targets):
    """Per-layer gradients as separate arrays, written out independently of
    mlp_backward's flat gradient buffer."""
    n = len(obs)
    post = [obs.reshape(-1, 1)]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = post[-1] @ w + b
        post.append(z if i == len(weights) - 1 else np.maximum(z, 0.0))
    delta = np.zeros_like(post[-1])
    delta[np.arange(n), actions] = (post[-1][np.arange(n), actions] - targets) / n
    gw, gb = [None] * len(weights), [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        gw[i] = post[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (post[i] > 0)
    return gw, gb


def reference_adam(t, lr, params, grads, m, v):
    """Adam step t on lists of separate per-layer arrays, in place."""
    bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= ADAM_BETA1
        mm += (1.0 - ADAM_BETA1) * g
        vv *= ADAM_BETA2
        vv += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + ADAM_EPS)


def same_bits(arrays_a, arrays_b):
    return (len(arrays_a) == len(arrays_b)
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(arrays_a, arrays_b)))


class TestFlatLayout:
    def test_layers_and_moments_view_one_vector(self):
        params = init_mlp([16, 16, 16], np.random.default_rng(0))
        state = AdamState.for_params(params, 0.01)
        for net, layers in ((params, params.weights + params.biases),
                            (state.m, state.m_w + state.m_b),
                            (state.v, state.v_w + state.v_b)):
            assert net.flat.flags.c_contiguous and net.flat.dtype == np.float64
            assert sum(a.size for a in layers) == net.flat.size
            assert all(np.shares_memory(a, net.flat) for a in layers)
        assert not np.shares_memory(state.m.flat, state.v.flat)
        assert not np.shares_memory(state.m.flat, params.flat)

    def test_constructor_packs_copies(self):
        w, b = np.ones((1, 8)), np.zeros(8)
        params = MlpParams([w], [b])
        params.flat[:] = 5.0
        assert np.all(w == 1.0) and np.all(b == 0.0)
        assert np.all(params.weights[0] == 5.0) and np.all(params.biases[0] == 5.0)

    def test_layers_cannot_be_rebound(self):
        params = zero_net()
        with pytest.raises(AttributeError):
            params.weights = [np.zeros((1, 4)), np.zeros((4, 8))]
        with pytest.raises(AttributeError):
            params.flat = np.zeros(params.flat.size)
        with pytest.raises(TypeError):
            params.biases[0] = np.zeros(4)

    def test_copy_is_independent(self):
        params = random_net([5, 3], np.random.default_rng(1))
        twin = params.copy()
        assert not np.shares_memory(twin.flat, params.flat)
        assert all(np.shares_memory(a, twin.flat)
                   for a in twin.weights + twin.biases)
        assert twin.flat.tobytes() == params.flat.tobytes()
        params.flat[:] = 0.0
        twin.weights[0][0, 0] = 7.0
        assert np.all(params.flat == 0.0) and twin.flat[0] == 7.0

    @pytest.mark.parametrize("hidden", [[16, 16, 16], [64, 64], [32, 32]])
    def test_forward_bit_equal_to_layer_loop(self, hidden):
        # The width-1 layer is a product, not a matmul: the clamp ends 0.0
        # and 1.0 and a fresh net's zero biases and zero output layer are
        # where a signed zero could tell the two apart. A single observation
        # runs as a 1-D row in whichever form it comes; every form must equal
        # the (1, 1)-column pass bit for bit.
        xs = np.append(np.linspace(-0.25, 1.25, 33), [0.0, 1.0])
        for params in (random_net(hidden, np.random.default_rng(len(hidden))),
                       init_mlp(hidden, np.random.default_rng(len(hidden)))):
            batch = mlp_forward(params, xs)
            assert batch.tobytes() == reference_forward(params, xs).tobytes()
            for x in [*xs.tolist(), 0, 1]:
                want = reference_forward(params, np.array([float(x)]))
                for single in (x, np.float64(x), np.array(x, dtype=float)):
                    q = mlp_forward(params, single)
                    assert q.shape == (8,) and q.tobytes() == want[0].tobytes()
                for one in ([x], np.array([x], dtype=float)):
                    q = mlp_forward(params, one)
                    assert q.shape == (1, 8) and q.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hidden", [[16, 16, 16], [64, 64]])
    def test_flat_steps_bit_equal_to_per_layer_reference(self, hidden):
        rng = np.random.default_rng(sum(hidden))
        params = random_net(hidden, rng)
        state = AdamState.for_params(params, 0.01)
        ref_p = [a.copy() for a in params.weights + params.biases]
        ref_m = [np.zeros_like(a) for a in ref_p]
        ref_v = [np.zeros_like(a) for a in ref_p]
        n_layers = len(params.weights)
        grads = grad_buffer(params)  # reused, as a learner reuses it
        for t in range(1, 51):
            obs = rng.uniform(0, 1, 64)
            actions = rng.integers(0, 8, 64)
            targets = rng.uniform(-1, 2, 64)
            mlp_backward(params, obs, actions, targets, grads)
            gw, gb = reference_backward(ref_p[:n_layers], ref_p[n_layers:],
                                        obs, actions, targets)
            assert same_bits(grads.weights + grads.biases, gw + gb)
            adam_step(state, params, grads)
            reference_adam(t, 0.01, ref_p, gw + gb, ref_m, ref_v)
            assert same_bits(params.weights + params.biases, ref_p)
            assert same_bits(state.m_w + state.m_b, ref_m)
            assert same_bits(state.v_w + state.v_b, ref_v)
        assert state.t == 50
