import numpy as np
import pytest

from rateadapt.nn import (AdamState, MlpParams, adam_step, init_mlp,
                          mlp_backward, mlp_forward)


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
        bad = zero_net()
        bad.weights[0] = np.zeros((2, 4))
        with pytest.raises(ValueError):
            bad.validate()


class TestBackward:
    def test_zero_loss_gives_zero_grads(self):
        params = random_net([6], np.random.default_rng(3))
        q = mlp_forward(params, 0.5)
        gw, gb, loss = mlp_backward(params, np.array([0.5]), np.array([2]),
                                    np.array([q[2]]))
        assert loss == 0.0
        assert all(np.all(g == 0) for g in gw)
        assert all(np.all(g == 0) for g in gb)

    def test_nonselected_output_rows_zero(self):
        params = random_net([6, 4], np.random.default_rng(4))
        gw, gb, _ = mlp_backward(params, np.array([0.3]), np.array([5]),
                                 np.array([1.0]))
        mask = np.ones(8, dtype=bool)
        mask[5] = False
        assert np.all(gw[-1][:, mask] == 0)
        assert np.all(gb[-1][mask] == 0)

    @pytest.mark.parametrize("case", range(20))
    def test_finite_difference_oracle_random_nets(self, case):
        rng = np.random.default_rng(100 + case)
        hidden = [int(rng.integers(2, 10)) for _ in range(int(rng.integers(1, 4)))]
        params = random_net(hidden, rng)
        obs = float(rng.uniform(0, 1))
        action = int(rng.integers(0, 8))
        target = float(rng.uniform(-1, 2))
        gw, gb, _ = mlp_backward(params, np.array([obs]), np.array([action]),
                                 np.array([target]))
        nw, nb = numeric_grads(params, obs, action, target)
        for analytic, numeric in zip(gw + gb, nw + nb):
            scale = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-4

    def test_finite_difference_oracle_default_architecture(self):
        rng = np.random.default_rng(999)
        params = random_net([16, 16, 16], rng)
        gw, gb, _ = mlp_backward(params, np.array([0.37]), np.array([4]),
                                 np.array([0.8]))
        nw, nb = numeric_grads(params, 0.37, 4, 0.8)
        for analytic, numeric in zip(gw + gb, nw + nb):
            scale = np.maximum(np.abs(numeric), 1e-3)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-4


class TestAdam:
    def test_zero_gradients_leave_params(self):
        params = random_net([4], np.random.default_rng(5))
        before = params.copy()
        state = AdamState.for_params(params, learning_rate=0.01)
        adam_step(state, params,
                  [np.zeros_like(w) for w in params.weights],
                  [np.zeros_like(b) for b in params.biases])
        assert state.t == 1
        for a, b in zip(before.weights, params.weights):
            assert np.array_equal(a, b)

    def test_first_step_magnitude(self):
        params = MlpParams([np.zeros((1, 8))], [np.zeros(8)])
        state = AdamState.for_params(params, learning_rate=0.01)
        grads_w = [np.ones((1, 8))]
        grads_b = [np.zeros(8)]
        adam_step(state, params, grads_w, grads_b)
        # first bias-corrected step is lr / (1 + eps), independent of |g|
        assert np.allclose(params.weights[0], -0.01, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_first_step_bounded_by_lr(self, scale):
        params = MlpParams([np.zeros((1, 8))], [np.zeros(8)])
        state = AdamState.for_params(params, learning_rate=0.01)
        adam_step(state, params, [np.full((1, 8), scale)], [np.zeros(8)])
        assert np.max(np.abs(params.weights[0])) <= 0.01 * (1 + 1e-6)


class TestInit:
    def test_init_shapes_and_zero_output(self):
        params = init_mlp([16, 16, 16], np.random.default_rng(0))
        params.validate()
        assert params.layer_sizes == [1, 16, 16, 16, 8]
        assert np.all(params.weights[-1] == 0)
        assert all(np.all(b == 0) for b in params.biases)
        # hidden weights within the Glorot bound
        for w, (a, b) in zip(params.weights[:-1],
                             zip(params.layer_sizes, params.layer_sizes[1:])):
            assert np.max(np.abs(w)) <= np.sqrt(6.0 / (a + b))
