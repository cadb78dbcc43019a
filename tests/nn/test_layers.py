"""Tests for every layer: shapes, gradients, masks, error handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.gradcheck import check_layer_gradients

GRAD_TOL = 1e-5


class TestConv2d:
    def test_output_shape(self, rng):
        layer = nn.Conv2d(3, 8, kernel_size=3, padding=1, rng=rng)
        out = layer(rng.random((2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_stride_shape(self, rng):
        layer = nn.Conv2d(1, 2, kernel_size=2, stride=2, rng=rng)
        out = layer(rng.random((1, 1, 8, 8)))
        assert out.shape == (1, 2, 4, 4)

    def test_wrong_channels_raises(self, rng):
        layer = nn.Conv2d(3, 4, kernel_size=3, rng=rng)
        with pytest.raises(ValueError, match="input channels"):
            layer(rng.random((1, 2, 6, 6)))

    def test_backward_before_forward_raises(self, rng):
        layer = nn.Conv2d(1, 1, kernel_size=3, rng=rng)
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((1, 1, 4, 4)))

    def test_gradients(self, rng):
        layer = nn.Conv2d(2, 3, kernel_size=3, padding=1, stride=1, rng=rng)
        errors = check_layer_gradients(layer, rng.standard_normal((2, 2, 5, 5)), rng)
        assert max(errors.values()) < GRAD_TOL

    def test_gradients_with_stride(self, rng):
        layer = nn.Conv2d(1, 2, kernel_size=2, stride=2, rng=rng)
        errors = check_layer_gradients(layer, rng.standard_normal((2, 1, 6, 6)), rng)
        assert max(errors.values()) < GRAD_TOL

    def test_backward_without_input_grad(self, rng):
        conv = nn.Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        x = rng.random((2, 2, 5, 5))
        grad = rng.random((2, 3, 5, 5))
        conv.forward(x)
        assert conv.backward(grad).shape == x.shape
        weight_grad = conv.weight.grad.copy()
        conv.zero_grad()
        conv.forward(x)
        assert conv.backward(grad, input_grad=False) is None
        np.testing.assert_array_equal(conv.weight.grad, weight_grad)

    def test_known_convolution_value(self):
        layer = nn.Conv2d(1, 1, kernel_size=2)
        layer.weight.data[...] = 1.0
        layer.bias.data[...] = 0.5
        out = layer(np.arange(9, dtype=float).reshape(1, 1, 3, 3))
        # top-left window: 0+1+3+4 = 8, plus bias
        assert out[0, 0, 0, 0] == pytest.approx(8.5)

    def test_masked_channel_outputs_zero(self, rng):
        layer = nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=rng)
        layer.out_mask[2] = False
        out = layer(rng.random((3, 1, 6, 6)))
        assert (out[:, 2] == 0).all()
        assert (out[:, 0] != 0).any()

    def test_masked_channel_gets_no_gradient(self, rng):
        layer = nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=rng)
        layer.out_mask[1] = False
        out = layer(rng.random((2, 1, 6, 6)))
        layer.backward(np.ones_like(out))
        assert (layer.weight.grad[1] == 0).all()
        assert layer.bias.grad[1] == 0
        assert (layer.weight.grad[0] != 0).any()

    def test_apply_mask_zeroes_parameters(self, rng):
        layer = nn.Conv2d(1, 4, kernel_size=3, rng=rng)
        layer.out_mask[3] = False
        layer.apply_mask()
        assert (layer.weight.data[3] == 0).all()
        assert layer.bias.data[3] == 0
        assert (layer.weight.data[0] != 0).any()


class TestLinear:
    def test_output_shape(self, rng):
        layer = nn.Linear(10, 4, rng=rng)
        assert layer(rng.random((3, 10))).shape == (3, 4)

    def test_wrong_features_raises(self, rng):
        layer = nn.Linear(10, 4, rng=rng)
        with pytest.raises(ValueError, match="expected input"):
            layer(rng.random((3, 9)))

    def test_gradients(self, rng):
        layer = nn.Linear(7, 4, rng=rng)
        errors = check_layer_gradients(layer, rng.standard_normal((3, 7)), rng)
        assert max(errors.values()) < GRAD_TOL

    def test_known_value(self):
        layer = nn.Linear(2, 1)
        layer.weight.data[...] = [[2.0, 3.0]]
        layer.bias.data[...] = [1.0]
        out = layer(np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(6.0)

    def test_mask_silences_feature(self, rng):
        layer = nn.Linear(5, 3, rng=rng)
        layer.out_mask[1] = False
        out = layer(rng.random((4, 5)))
        assert (out[:, 1] == 0).all()
        layer.backward(np.ones_like(out))
        assert (layer.weight.grad[1] == 0).all()


class TestActivationsAndPooling:
    @pytest.mark.parametrize("layer_factory,shape", [
        (lambda: nn.ReLU(), (3, 2, 4, 4)),
        (lambda: nn.Tanh(), (3, 5)),
        (lambda: nn.MaxPool2d(2), (2, 3, 6, 6)),
        (lambda: nn.AvgPool2d(2), (2, 3, 6, 6)),
        (lambda: nn.Flatten(), (2, 3, 4, 4)),
    ])
    def test_gradients(self, layer_factory, shape, rng):
        layer = layer_factory()
        # offset away from ReLU kink / pool ties for clean finite differences
        x = rng.standard_normal(shape) * 2.0 + 0.1
        errors = check_layer_gradients(layer, x, rng)
        assert max(errors.values()) < GRAD_TOL

    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = nn.MaxPool2d(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = nn.AvgPool2d(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_routes_gradient_to_argmax(self):
        x = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
        pool = nn.MaxPool2d(2)
        pool(x)
        grad = pool.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(grad[0, 0], [[0, 0], [0, 1]])

    def test_flatten_roundtrip(self, rng):
        layer = nn.Flatten()
        x = rng.random((2, 3, 4, 5))
        out = layer(x)
        assert out.shape == (2, 60)
        back = layer.backward(out)
        np.testing.assert_array_equal(back, x)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        layer = nn.Dropout(0.5, rng=rng)
        layer.training = False
        x = rng.random((4, 10))
        np.testing.assert_array_equal(layer(x), x)

    def test_train_mode_zeroes_and_scales(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((100, 100))
        out = layer(x)
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted dropout scaling

    def test_backward_uses_same_mask(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((10, 10))
        out = layer(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestSequential:
    def test_forward_backward_chain(self, tiny_cnn, rng):
        x = rng.random((2, 1, 8, 8))
        out = tiny_cnn(x)
        assert out.shape == (2, 5)
        grad = tiny_cnn.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_without_input_grad_same_parameter_grads(self, rng):
        """``input_grad=False`` skips only the first conv's input gradient."""
        x = rng.random((3, 1, 8, 8))
        grads = {}
        for input_grad in (True, False):
            model = nn.Sequential(
                nn.Conv2d(1, 4, kernel_size=3, padding=1, rng=np.random.default_rng(1)),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Flatten(),
                nn.Linear(4 * 4 * 4, 5, rng=np.random.default_rng(2)),
            )
            out = model(x)
            result = model.backward(np.ones_like(out), input_grad=input_grad)
            assert (result is None) == (not input_grad)
            grads[input_grad] = [p.grad.copy() for p in model.parameters()]
        for with_input, without_input in zip(grads[True], grads[False]):
            assert with_input.tobytes() == without_input.tobytes()

    def test_without_input_grad_non_conv_first_layer(self, rng):
        model = nn.Sequential(nn.Flatten(), nn.Linear(4, 2, rng=rng))
        out = model(rng.random((2, 1, 2, 2)))
        assert model.backward(np.ones_like(out), input_grad=False) is None
        assert model[1].weight.grad.any()

    def test_indexing_and_len(self, tiny_cnn):
        assert len(tiny_cnn) == 8
        assert isinstance(tiny_cnn[0], nn.Conv2d)

    def test_conv_layers_and_last_conv(self, tiny_cnn):
        convs = tiny_cnn.conv_layers()
        assert len(convs) == 2
        assert tiny_cnn.last_conv() is convs[-1]

    def test_last_conv_raises_without_convs(self, rng):
        model = nn.Sequential(nn.Flatten(), nn.Linear(4, 2, rng=rng))
        with pytest.raises(ValueError, match="no convolutional"):
            model.last_conv()

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_whole_model_gradient(self, seed):
        """End-to-end gradient of a small model against finite differences."""
        rng = np.random.default_rng(seed)
        model = nn.Sequential(
            nn.Conv2d(1, 2, kernel_size=3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(2 * 4 * 4, 3, rng=rng),
        )
        errors = check_layer_gradients(
            model, rng.standard_normal((2, 1, 4, 4)) + 0.05, rng
        )
        assert max(errors.values()) < GRAD_TOL


class TestConv2dWeightCache:
    """The masked ``weight_2d`` matrix is cached between passes; every
    mutation route must invalidate it so forward never uses stale
    weights."""

    @staticmethod
    def _expected(layer, x):
        """Ground-truth forward from the layer's current weights/mask."""
        from repro.nn import functional as F

        k = layer.kernel_size
        n = x.shape[0]
        out_h = F.conv_output_size(x.shape[2], k, layer.stride, layer.padding)
        out_w = F.conv_output_size(x.shape[3], k, layer.stride, layer.padding)
        cols = F.im2col(x, k, k, layer.stride, layer.padding)
        weight_2d = (
            layer.weight.data * layer.out_mask[:, None, None, None]
        ).reshape(layer.out_channels, -1)
        out = cols @ weight_2d.T + layer.bias.data * layer.out_mask
        return out.reshape(n, out_h, out_w, layer.out_channels).transpose(
            0, 3, 1, 2
        )

    @pytest.fixture
    def layer_and_input(self, rng):
        layer = nn.Conv2d(2, 4, kernel_size=3, padding=1, rng=rng)
        return layer, rng.standard_normal((2, 2, 6, 6))

    def test_cache_reused_between_passes(self, layer_and_input):
        layer, x = layer_and_input
        layer(x)
        first = layer._weight_2d
        layer(x)
        assert layer._weight_2d is first  # no recompute without mutation

    def test_optimizer_step_invalidates(self, layer_and_input, rng):
        layer, x = layer_and_input
        out = layer(x)
        layer.backward(rng.standard_normal(out.shape))
        nn.SGD(layer.parameters(), lr=0.1).step()
        np.testing.assert_array_equal(layer(x), self._expected(layer, x))

    def test_apply_mask_invalidates(self, layer_and_input):
        layer, x = layer_and_input
        layer(x)
        layer.out_mask[1] = False
        layer.apply_mask()
        out = layer(x)
        np.testing.assert_array_equal(out, self._expected(layer, x))
        assert (out[:, 1] == 0).all()

    def test_mask_mutation_alone_invalidates(self, layer_and_input):
        layer, x = layer_and_input
        layer(x)
        layer.out_mask[2] = False  # no apply_mask: mask-bytes key catches it
        out = layer(x)
        np.testing.assert_array_equal(out, self._expected(layer, x))
        assert (out[:, 2] == 0).all()

    def test_load_flat_parameters_invalidates(self, layer_and_input, rng):
        layer, x = layer_and_input
        layer(x)
        layer.load_flat_parameters(rng.standard_normal(layer.num_parameters()))
        np.testing.assert_array_equal(layer(x), self._expected(layer, x))

    def test_copy_invalidates(self, layer_and_input, rng):
        layer, x = layer_and_input
        layer(x)
        layer.weight.copy_(rng.standard_normal(layer.weight.shape))
        np.testing.assert_array_equal(layer(x), self._expected(layer, x))

    def test_data_rebind_invalidates(self, layer_and_input, rng):
        layer, x = layer_and_input
        layer(x)
        layer.weight.data = rng.standard_normal(layer.weight.shape)
        np.testing.assert_array_equal(layer(x), self._expected(layer, x))

    def test_deepcopy_clone_is_independent(self, layer_and_input, rng):
        import copy

        layer, x = layer_and_input
        layer(x)
        clone = copy.deepcopy(layer)
        layer.weight.data = rng.standard_normal(layer.weight.shape)
        layer(x)
        np.testing.assert_array_equal(clone(x), self._expected(clone, x))

    def test_gradients_overlapping_stride(self, rng):
        """stride < kernel exercises col2im's accumulating backward path."""
        layer = nn.Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
        errors = check_layer_gradients(layer, rng.standard_normal((2, 2, 7, 7)), rng)
        assert max(errors.values()) < GRAD_TOL

    def test_gradients_with_pruned_channels(self, rng):
        layer = nn.Conv2d(2, 4, kernel_size=3, padding=1, rng=rng)
        layer.out_mask[0] = False
        errors = check_layer_gradients(layer, rng.standard_normal((2, 2, 5, 5)), rng)
        assert max(errors.values()) < GRAD_TOL
