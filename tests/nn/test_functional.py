"""Tests for repro.nn.functional: im2col/col2im, softmax, one-hot."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(28, 5, 1, 2) == 28

    def test_stride(self):
        assert F.conv_output_size(8, 2, 2, 0) == 4

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="larger than padded input"):
            F.conv_output_size(3, 5, 1, 0)

    def test_non_tiling_window(self):
        with pytest.raises(ValueError, match="does not tile"):
            F.conv_output_size(7, 2, 2, 0)


class TestIm2col:
    def test_shape(self):
        images = np.arange(2 * 3 * 6 * 6, dtype=float).reshape(2, 3, 6, 6)
        cols = F.im2col(images, 3, 3, stride=1, padding=1)
        assert cols.shape == (2 * 6 * 6, 3 * 3 * 3)

    def test_identity_kernel_1x1(self):
        """1x1 windows with stride 1 are just a reshape."""
        images = np.arange(24, dtype=float).reshape(1, 2, 3, 4)
        cols = F.im2col(images, 1, 1)
        expected = images.transpose(0, 2, 3, 1).reshape(-1, 2)
        np.testing.assert_array_equal(cols, expected)

    def test_known_window_values(self):
        images = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = F.im2col(images, 2, 2, stride=2)
        # windows: top-left, top-right, bottom-left, bottom-right
        np.testing.assert_array_equal(cols[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[1], [2, 3, 6, 7])
        np.testing.assert_array_equal(cols[2], [8, 9, 12, 13])
        np.testing.assert_array_equal(cols[3], [10, 11, 14, 15])

    def test_padding_adds_zeros(self):
        images = np.ones((1, 1, 2, 2))
        cols = F.im2col(images, 3, 3, stride=1, padding=1)
        # the center window covers all four ones
        assert cols.sum() == pytest.approx(4 * 4)  # each pixel in 4 windows


class TestCol2imAdjoint:
    """col2im must be the exact adjoint of im2col:
    <im2col(x), y> == <x, col2im(y)> for all x, y."""

    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        size=st.sampled_from([4, 6, 8]),
        kernel=st.sampled_from([1, 2, 3]),
        padding=st.integers(0, 1),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_adjoint_property(self, n, c, size, kernel, padding, seed):
        stride = 1
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, size, size))
        cols = F.im2col(x, kernel, kernel, stride, padding)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, kernel, kernel, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_counts_overlaps(self):
        """Fold of all-ones columns counts window coverage per pixel."""
        shape = (1, 1, 3, 3)
        cols = np.ones((9, 4))  # 2x2 kernel, stride 1, padding released below
        out = F.col2im(
            np.ones((4, 4)), shape, 2, 2, stride=1, padding=0
        )
        # center pixel covered by all 4 windows; corners by 1
        assert out[0, 0, 1, 1] == 4
        assert out[0, 0, 0, 0] == 1


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((5, 7))
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((4, 3))
        np.testing.assert_allclose(F.softmax(logits), F.softmax(logits + 100.0))

    def test_extreme_values_stable(self):
        logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        probs = F.softmax(logits)
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self, rng):
        logits = rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            np.exp(F.log_softmax(logits)), F.softmax(logits), atol=1e-12
        )


class TestOneHot:
    def test_basic(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            F.one_hot(np.array([3]), 3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            F.one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_empty(self):
        assert F.one_hot(np.zeros(0, dtype=int), 4).shape == (0, 4)

    def test_defaults_to_model_dtype(self):
        from repro.nn.config import get_default_dtype

        assert F.one_hot(np.array([1]), 3).dtype == get_default_dtype()

    def test_explicit_dtype_wins(self):
        encoded = F.one_hot(np.array([0, 1]), 2, dtype=np.float64)
        assert encoded.dtype == np.float64
        np.testing.assert_array_equal(encoded, [[1.0, 0.0], [0.0, 1.0]])

    def test_honors_configured_default_dtype(self):
        from repro.nn.config import get_default_dtype, set_default_dtype

        previous = get_default_dtype()
        try:
            set_default_dtype(np.float64)
            assert F.one_hot(np.array([0]), 2).dtype == np.float64
        finally:
            set_default_dtype(previous)


class TestConvPlanCache:
    def setup_method(self):
        F.clear_conv_plan_cache()

    def teardown_method(self):
        F.clear_conv_plan_cache()

    def test_same_geometry_reuses_the_plan(self):
        first = F.conv_plan(8, 8, 3, 3, stride=1, padding=1)
        assert F.conv_plan(8, 8, 3, 3, stride=1, padding=1) is first

    def test_distinct_geometries_get_distinct_plans(self):
        a = F.conv_plan(8, 8, 3, 3)
        b = F.conv_plan(8, 8, 3, 3, padding=1)
        c = F.conv_plan(9, 9, 3, 3, stride=2)
        assert len({id(a), id(b), id(c)}) == 3
        assert (a.out_h, b.out_h, c.out_h) == (6, 8, 4)

    def test_invalid_geometry_never_cached(self):
        for _ in range(2):  # identical failure on every call
            with pytest.raises(ValueError):
                F.conv_plan(2, 2, 5, 5)
        assert not F._PLAN_CACHE

    def test_taps_list_every_kernel_position_in_window_order(self):
        plan = F.conv_plan(8, 8, 3, 3, stride=1)
        assert [(y, x) for y, x, _, _ in plan.taps] == [
            (y, x) for y in range(3) for x in range(3)
        ]
        # each tap's slices pick one position out of every window
        _, _, rows, columns = F.conv_plan(8, 8, 2, 2, stride=2).taps[3]
        assert (rows, columns) == (slice(1, 9, 2), slice(1, 9, 2))

    def test_cache_is_bounded(self):
        for size in range(F._PLAN_CACHE_MAX + 10):
            F.conv_plan(size + 3, size + 3, 3, 3)
        assert len(F._PLAN_CACHE) <= F._PLAN_CACHE_MAX

    def test_clear_resets(self):
        F.conv_plan(8, 8, 3, 3)
        assert F._PLAN_CACHE
        F.clear_conv_plan_cache()
        assert not F._PLAN_CACHE

    def test_cached_roundtrip_matches_fresh(self):
        """im2col/col2im through a warm cache equals a cold cache."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 9, 9))
        cold_cols = F.im2col(x, 3, 3, stride=2, padding=1)
        cold_back = F.col2im(
            cold_cols, x.shape, 3, 3, stride=2, padding=1
        )
        warm_cols = F.im2col(x, 3, 3, stride=2, padding=1)
        warm_back = F.col2im(
            warm_cols, x.shape, 3, 3, stride=2, padding=1
        )
        np.testing.assert_array_equal(warm_cols, cold_cols)
        np.testing.assert_array_equal(warm_back, cold_back)


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(F.relu(x), [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(F.relu_grad(x), [0.0, 0.0, 1.0])

    def test_sigmoid_stable_extremes(self):
        out = F.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((8, 4))
        labels = rng.integers(0, 4, 8)
        probs = F.softmax(logits)
        manual = -np.log(probs[np.arange(8), labels]).mean()
        assert F.stable_cross_entropy(logits, labels) == pytest.approx(manual)


def reference_im2col(images, kernel_h, kernel_w, stride, padding):
    """Straightforward per-window loop (the pre-vectorization algorithm)."""
    n, c, h, w = images.shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    padded = np.pad(
        images, ((0, 0), (0, 0), (padding, padding), (padding, padding))
    )
    rows = []
    for i in range(n):
        for y in range(out_h):
            for x in range(out_w):
                patch = padded[
                    i,
                    :,
                    y * stride : y * stride + kernel_h,
                    x * stride : x * stride + kernel_w,
                ]
                rows.append(patch.reshape(-1))
    return np.stack(rows)


def reference_col2im(cols, image_shape, kernel_h, kernel_w, stride, padding):
    """Per-window accumulation loop (the pre-vectorization algorithm)."""
    n, c, h, w = image_shape
    out_h = (h + 2 * padding - kernel_h) // stride + 1
    out_w = (w + 2 * padding - kernel_w) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    windows = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    for i in range(n):
        for y in range(out_h):
            for x in range(out_w):
                padded[
                    i,
                    :,
                    y * stride : y * stride + kernel_h,
                    x * stride : x * stride + kernel_w,
                ] += windows[i, y, x]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class TestVectorizedLoopEquivalence:
    """The strided-view im2col/col2im must reproduce the naive loops
    exactly, across overlapping, disjoint and gapped window geometries.

    Integer-valued inputs make the comparison exact: every accumulation
    order sums the same integers, so even the overlapping col2im paths
    must agree bit for bit.
    """

    GEOMETRIES = [
        (kernel, stride, padding)
        for kernel in (1, 2, 3, 5)
        for stride in (1, 2, 3)
        for padding in (0, 1, 2)
    ]

    @staticmethod
    def _input_size(kernel, stride, padding):
        """A spatial size the window tiles with four output positions."""
        return kernel + 3 * stride - 2 * padding

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_im2col_matches_loop(self, kernel, stride, padding):
        size = self._input_size(kernel, stride, padding)
        if size < 1:
            pytest.skip("window does not fit this geometry")
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
        images = rng.integers(-8, 8, size=(2, 3, size, size)).astype(np.float64)
        fast = F.im2col(images, kernel, kernel, stride, padding)
        slow = reference_im2col(images, kernel, kernel, stride, padding)
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_col2im_matches_loop(self, kernel, stride, padding):
        size = self._input_size(kernel, stride, padding)
        if size < 1:
            pytest.skip("window does not fit this geometry")
        out = 4  # by construction of _input_size
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
        cols = rng.integers(-8, 8, size=(2 * out * out, 3 * kernel * kernel))
        cols = cols.astype(np.float64)
        shape = (2, 3, size, size)
        fast = F.col2im(cols, shape, kernel, kernel, stride, padding)
        slow = reference_col2im(cols, shape, kernel, kernel, stride, padding)
        np.testing.assert_array_equal(fast, slow)

    def test_rectangular_kernel(self):
        rng = np.random.default_rng(0)
        images = rng.integers(-8, 8, size=(1, 2, 7, 9)).astype(np.float64)
        fast = F.im2col(images, 3, 2, stride=1, padding=1)
        slow = reference_im2col(images, 3, 2, stride=1, padding=1)
        np.testing.assert_array_equal(fast, slow)
        cols = rng.integers(-8, 8, size=fast.shape).astype(np.float64)
        np.testing.assert_array_equal(
            F.col2im(cols, images.shape, 3, 2, 1, 1),
            reference_col2im(cols, images.shape, 3, 2, 1, 1),
        )


def reference_maxpool(images, kernel, stride):
    """The argmax max-pool (the pre-slice algorithm).

    Returns ``(out, backward)``: ``backward(grad_output)`` routes each
    gradient to its window's first maximum and folds the columns back
    per kernel position into zeros — by assignment when the windows are
    disjoint (a winning ``-0.0`` keeps its sign), by accumulation when
    they overlap.
    """
    n, c, h, w = images.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    cols = reference_im2col(images, kernel, kernel, stride, 0)
    cols = cols.reshape(-1, c, kernel * kernel)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None], axis=2)[:, :, 0]
    out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def backward(grad_output):
        grad_cols = np.zeros(
            (n * out_h * out_w, c, kernel * kernel), dtype=grad_output.dtype
        )
        flat_grad = grad_output.transpose(0, 2, 3, 1).reshape(-1, c)
        np.put_along_axis(
            grad_cols, argmax[:, :, None], flat_grad[:, :, None], axis=2
        )
        windows = grad_cols.reshape(n, out_h, out_w, c, kernel, kernel)
        grad_input = np.zeros(images.shape, dtype=grad_output.dtype)
        for y in range(kernel):
            for x in range(kernel):
                rows = slice(y, y + stride * out_h, stride)
                columns = slice(x, x + stride * out_w, stride)
                tap = windows[:, :, :, :, y, x].transpose(0, 3, 1, 2)
                if stride >= kernel:
                    grad_input[:, :, rows, columns] = tap
                else:
                    grad_input[:, :, rows, columns] += tap
        return grad_input

    return out, backward


def assert_bitwise(fast, slow):
    """Same shape, dtype, strides and bit patterns (so ``-0.0`` and NaN
    payloads count, which ``assert_array_equal`` would forgive)."""
    assert fast.shape == slow.shape
    assert fast.dtype == slow.dtype
    assert fast.strides == slow.strides
    np.testing.assert_array_equal(np.signbit(fast), np.signbit(slow))
    assert fast.tobytes() == slow.tobytes()


def pool_input(kind, shape, dtype, rng):
    """A pooling input laid out channels-last, like a conv activation."""
    n, c, h, w = shape
    x = rng.standard_normal((n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    if kind == "constant":  # every window one big tie
        x[...] = 0.5
    elif kind == "relu_zeros":  # post-ReLU zeros, some of them -0.0
        x[...] = np.maximum(x, 0.0)
        x[rng.random(x.shape) < 0.3] = -0.0
    elif kind == "signed_zeros":  # windows of nothing but +-0.0
        x[...] = np.where(rng.random(x.shape) < 0.5, -0.0, 0.0)
    elif kind == "nan":
        x[0, 0, 1, 1] = np.nan
        x[-1, -1, 0, 0] = np.nan
    return x


class TestMaxPoolKernels:
    """The pool kernels against the argmax reference: values, sign bits
    and strides, forward and backward, serial layer and megabatch twin."""

    @staticmethod
    def _pool(engine, kernel, stride):
        from repro.nn.layers import MaxPool2d
        from repro.nn.megabatch import _VMaxPool2d

        layer = MaxPool2d(kernel, stride)
        return layer if engine == "serial" else _VMaxPool2d(layer, None, {})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "kernel,stride,size", [(2, 2, 8), (3, 3, 9), (3, 1, 7), (3, 2, 9)]
    )
    @pytest.mark.parametrize(
        "kind", ["random", "constant", "relu_zeros", "signed_zeros", "nan"]
    )
    @pytest.mark.parametrize("engine,batch", [("serial", 3), ("megabatch", 4 * 3)])
    def test_matches_reference(self, dtype, kernel, stride, size, kind, engine, batch):
        rng = np.random.default_rng(kernel * 10 + stride)
        x = pool_input(kind, (batch, 4, size, size), dtype, rng)
        pool = self._pool(engine, kernel, stride)
        slow_out, slow_backward = reference_maxpool(x, kernel, stride)
        assert_bitwise(pool.forward(x), slow_out)

        grad = rng.standard_normal(slow_out.shape).astype(dtype)
        grad[..., 0] = -0.0  # a gradient's sign of zero must survive routing
        assert_bitwise(pool.backward(grad), slow_backward(grad))

    def test_winner_index_is_compact(self):
        x = pool_input("random", (4, 3, 8, 8), np.float32, np.random.default_rng(0))
        _, (_, _, _, winner) = F.maxpool2d_forward(x, 2, 2)
        assert winner.dtype == np.uint8
        assert winner.shape == (4, 3, 4, 4)  # one byte per output, no input copy


class TestStridesPin:
    """Kernels return the reference loops' strides: Neural Cleanse sums its
    input gradient in memory order (``neural_cleanse.py``), so a different
    layout would change its floats."""

    GEOMETRIES = [(3, 1, 1), (5, 1, 2), (2, 2, 0), (3, 2, 1), (1, 1, 0)]

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_col2im_strides(self, kernel, stride, padding, channels):
        size = kernel + 3 * stride - 2 * padding
        shape = (2, channels, size, size)
        cols = np.ones((2 * 16, channels * kernel * kernel), dtype=np.float32)
        fast = F.col2im(cols, shape, kernel, kernel, stride, padding)
        slow = reference_col2im(cols, shape, kernel, kernel, stride, padding)
        assert fast.strides == slow.strides

    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
    def test_im2col_is_c_contiguous(self, kernel, stride, padding):
        size = kernel + 3 * stride - 2 * padding
        rng = np.random.default_rng(0)
        # channels-last input, like every activation after the first conv
        x = rng.standard_normal((2, size, size, 3)).transpose(0, 3, 1, 2)
        assert F.im2col(x, kernel, kernel, stride, padding).flags.c_contiguous

    def test_maxpool_layer_strides(self):
        from repro.nn.layers import MaxPool2d

        x = pool_input("random", (2, 3, 8, 8), np.float32, np.random.default_rng(0))
        pool = MaxPool2d(2)
        out = pool.forward(x)
        slow_out, slow_backward = reference_maxpool(x, 2, 2)
        assert out.strides == slow_out.strides
        grad = np.ones(out.shape, dtype=np.float32)
        assert pool.backward(grad).strides == slow_backward(grad).strides

    @pytest.mark.parametrize("kernel,padding", [(3, 1), (5, 2)])
    def test_conv2d_backward_strides(self, kernel, padding):
        from repro.nn.layers import Conv2d

        rng = np.random.default_rng(0)
        conv = Conv2d(3, 4, kernel_size=kernel, padding=padding, rng=rng)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        out = conv.forward(x)
        grad_input = conv.backward(np.ones_like(out))
        cols = np.zeros((2 * 36, 3 * kernel * kernel), dtype=np.float32)
        slow = reference_col2im(cols, x.shape, kernel, kernel, 1, padding)
        assert grad_input.strides == slow.strides
