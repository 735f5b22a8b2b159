import numpy as np
import pytest

from rateadapt.nn import (AdamState, MlpParams, _forward, adam_step, init_mlp,
                          mlp_backward, mlp_forward)
from tests.reference import (backward, grad_buffer, gradient_error, random_net,
                             reference_adam, reference_backward, reference_forward)


def zero_net(hidden=(4,)):
    sizes = [1, *hidden, 8]
    return MlpParams(
        [np.zeros((a, b)) for a, b in zip(sizes, sizes[1:])],
        [np.zeros(b) for b in sizes[1:]],
    )


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

    @pytest.mark.parametrize("hidden", [(16, 16, 16), (32, 32), (64, 64), (300,), (32,),
                                        (64,)])
    def test_rows_of_two_or_more_do_not_depend_on_the_batch(self, hidden):
        # The replay computes each stale row's Bellman target in a forward
        # of 2 to batch_size rows, padded with its last row to the next
        # multiple of 4 (README, Determinism), so each row must get the bits
        # the full 64-row batch gives it. These widths include the default
        # and every width of the CLI sweep's default grid.
        net = random_net(hidden, np.random.default_rng(len(hidden)))
        x = np.random.default_rng(33).uniform(0.0, 1.0, (64, 1))
        full = _forward(net, x)
        for m in range(2, 65):
            padded = np.minimum(np.arange(-(-m // 4) * 4), m - 1)
            for start in {0, (7 * m) % (65 - m), 64 - m}:
                got = _forward(net, x[start + padded])[:m]
                assert got.tobytes() == full[start:start + m].tobytes(), (m, start)

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
        assert gradient_error(params, obs, action, target) < 1e-4

    def test_finite_difference_oracle_default_architecture(self):
        rng = np.random.default_rng(999)
        params = random_net([16, 16, 16], rng)
        assert gradient_error(params, 0.37, 4, 0.8) < 1e-4


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


def same_bits(arrays_a, arrays_b):
    return (len(arrays_a) == len(arrays_b)
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(arrays_a, arrays_b)))


class TestFlatLayout:
    def test_layers_and_moments_view_one_vector(self):
        params = init_mlp([16, 16, 16], np.random.default_rng(0))
        state = AdamState.for_params(params, 0.01)
        for net in (params, state.m, state.v):
            layers = net.weights + net.biases
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
        # The width-1 layer is a product, not a matmul: the clamp ends and a
        # fresh net's zeros are where a signed zero could tell the two apart.
        # A float's pass must equal a (1, 1) input's.
        xs = np.append(np.linspace(-0.25, 1.25, 33), [0.0, 1.0])
        for params in (random_net(hidden, np.random.default_rng(len(hidden))),
                       init_mlp(hidden, np.random.default_rng(len(hidden)))):
            for x in xs.tolist():
                want = reference_forward(params.weights, params.biases, [x])[0].tobytes()
                for single in (x, np.float64(x)):
                    q = mlp_forward(params, single)
                    assert q.shape == (8,) and q.tobytes() == want

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
            assert same_bits(state.m.weights + state.m.biases, ref_m)
            assert same_bits(state.v.weights + state.v.biases, ref_v)
        assert state.t == 50
