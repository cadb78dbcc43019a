"""Low-level numerical primitives shared by the neural-network layers.

Everything in this module is a pure function on :class:`numpy.ndarray`
values.  The convolution layers are built on the classic ``im2col`` /
``col2im`` transformation so that a 2-D convolution becomes a single
matrix multiplication, which is the only way to get acceptable
throughput out of NumPy.

Shape conventions
-----------------
Images are batched in NCHW order: ``(batch, channels, height, width)``.
Fully-connected activations are ``(batch, features)``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import get_default_dtype

__all__ = [
    "im2col",
    "col2im",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "conv_output_size",
    "conv_plan",
    "clear_conv_plan_cache",
    "softmax",
    "log_softmax",
    "one_hot",
    "relu",
    "relu_grad",
    "sigmoid",
    "tanh_grad",
    "stable_cross_entropy",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Return the spatial output size of a conv/pool sliding window.

    Raises ``ValueError`` when the window does not fit, because a silent
    floor-division here produces baffling shape errors two layers later.
    """
    out, rem = divmod(size + 2 * padding - kernel, stride)
    if out < 0:
        raise ValueError(
            f"kernel {kernel} larger than padded input {size + 2 * padding}"
        )
    if rem != 0:
        raise ValueError(
            f"window (kernel={kernel}, stride={stride}, padding={padding}) "
            f"does not tile input of size {size}"
        )
    return out + 1


class ConvPlan:
    """Precomputed sliding-window geometry for one (shape, window) pair.

    ``out_h``/``out_w`` are the spatial output sizes; ``taps`` holds one
    ``(y, x, row_slice, col_slice)`` tuple per kernel position, in
    window (row-major) order: the strided slices that pick that kernel
    position out of every window at once.  The small-kernel im2col
    gather and the overlapping col2im accumulate loop over them, so
    they are built once per geometry rather than on every pass of
    every batch.
    """

    __slots__ = ("out_h", "out_w", "taps")

    def __init__(self, out_h: int, out_w: int, taps: tuple) -> None:
        self.out_h = out_h
        self.out_w = out_w
        self.taps = taps


# plan cache keyed on (h, w, kernel_h, kernel_w, stride, padding); the
# batch/channel dimensions do not enter the geometry, so one entry
# serves every batch size that hits the same spatial configuration
_PLAN_CACHE: dict[tuple, ConvPlan] = {}
_PLAN_CACHE_MAX = 256


def conv_plan(
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> ConvPlan:
    """The cached :class:`ConvPlan` for one spatial configuration.

    Invalid geometries are never cached: :func:`conv_output_size`
    raises before an entry is written, so a bad shape fails identically
    on every call.  The cache is bounded (cleared wholesale at
    ``_PLAN_CACHE_MAX`` entries — workloads cycle through a handful of
    shapes, so eviction precision is not worth bookkeeping) and can be
    emptied explicitly with :func:`clear_conv_plan_cache`.
    """
    key = (height, width, kernel_h, kernel_w, stride, padding)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        out_h = conv_output_size(height, kernel_h, stride, padding)
        out_w = conv_output_size(width, kernel_w, stride, padding)
        taps = tuple(
            (y, x, slice(y, y + stride * out_h, stride),
             slice(x, x + stride * out_w, stride))
            for y in range(kernel_h)
            for x in range(kernel_w)
        )
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.clear()
        plan = _PLAN_CACHE[key] = ConvPlan(out_h, out_w, taps)
    return plan


def clear_conv_plan_cache() -> None:
    """Drop every cached :class:`ConvPlan` (test isolation, memory)."""
    _PLAN_CACHE.clear()


# Kernel variants are picked from the geometry, never by the caller.
# Up to this many kernel positions, im2col gathers one strided slice per
# position (inner loops run over the channels); beyond it the
# per-position passes over the whole column matrix cost more than one
# windowed copy with kernel_w-long inner loops (5x5 kernels).
_SLICE_GATHER_MAX_TAPS = 9
# col2im transposes the column matrix to kernel-position-major order in
# row blocks of about this many bytes, so each block is read from cache
_COL2IM_BLOCK_BYTES = 1 << 18


def _channels_last(images: np.ndarray, padding: int) -> np.ndarray:
    """``images`` as an ``(n, h + 2p, w + 2p, c)`` channels-last array.

    Without padding this is a transposed view (no copy); with padding
    the interior is copied once into a zeroed buffer.
    """
    src = images.transpose(0, 2, 3, 1)
    if padding == 0:
        return src
    n, h, w, c = src.shape
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=images.dtype)
    padded[:, padding : padding + h, padding : padding + w] = src
    return padded


def im2col(
    images: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Unfold sliding windows of a batch of images into a 2-D matrix.

    Parameters
    ----------
    images:
        Array of shape ``(n, c, h, w)``.
    kernel_h, kernel_w:
        Height and width of the sliding window.
    stride:
        Step of the window in both spatial dimensions.
    padding:
        Zero padding applied symmetrically to both spatial dimensions.

    Returns
    -------
    C-contiguous array of shape ``(n * out_h * out_w, c * kernel_h *
    kernel_w)``: each row is one receptive field, flattened
    channel-major.

    The windows are read from a channels-last copy of the input (a
    zero-filled buffer when padded, a free view otherwise) and written
    once into the preallocated result.  Small kernels gather one
    strided slice per kernel position; larger ones copy a
    ``sliding_window_view`` in one pass.
    """
    n, c, h, w = images.shape
    plan = conv_plan(h, w, kernel_h, kernel_w, stride, padding)
    out_h, out_w = plan.out_h, plan.out_w

    src = _channels_last(images, padding)
    cols = np.empty((n, out_h, out_w, c, kernel_h, kernel_w), dtype=images.dtype)
    if kernel_h * kernel_w <= _SLICE_GATHER_MAX_TAPS:
        for y, x, rows, columns in plan.taps:
            cols[:, :, :, :, y, x] = src[:, rows, columns]
    else:
        # (n, out_h, out_w, c, kernel_h, kernel_w) view — no data copied yet
        windows = sliding_window_view(src, (kernel_h, kernel_w), axis=(1, 2))
        np.copyto(cols, windows[:, ::stride, ::stride])
    return cols.reshape(n * out_h * out_w, c * kernel_h * kernel_w)


def col2im(
    cols: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold a column matrix back into images, summing overlapping windows.

    This is the adjoint of :func:`im2col` (not its inverse: overlapping
    receptive fields accumulate), which is exactly what backpropagation
    through a convolution requires.

    When the windows are disjoint (``stride >= kernel``, the pooling
    layers) the fold is a single assignment through a writeable
    ``sliding_window_view`` — no Python loop at all.  Overlapping
    windows (``stride < kernel``, the usual convolution) genuinely
    accumulate: every pixel starts at zero and receives one add per
    kernel position, in window order.  Those adds read a
    kernel-position-major copy of ``cols`` and land in a channels-last
    buffer, so each add runs over ``out_w * c`` contiguous values.

    The result is always the ``(n, c, h, w)`` interior of a C-ordered
    ``(n, c, h + 2p, w + 2p)`` buffer, so its strides do not depend on
    the path taken.
    """
    n, c, h, w = image_shape
    plan = conv_plan(h, w, kernel_h, kernel_w, stride, padding)
    out_h, out_w = plan.out_h, plan.out_w

    if stride >= kernel_h and stride >= kernel_w:
        padded = np.zeros(
            (n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype
        )
        windows = sliding_window_view(
            padded, (kernel_h, kernel_w), axis=(2, 3), writeable=True
        )[:, :, ::stride, ::stride]
        # (n, c, out_h, out_w, kernel_h, kernel_w) view of the columns
        windows[...] = cols.reshape(
            n, out_h, out_w, c, kernel_h, kernel_w
        ).transpose(0, 3, 1, 2, 4, 5)
    else:
        taps = kernel_h * kernel_w
        rows = n * out_h * out_w
        by_row = cols.reshape(rows, c, taps)
        by_tap = np.empty((taps, rows, c), dtype=cols.dtype)
        block = max(1, _COL2IM_BLOCK_BYTES // (c * taps * cols.itemsize))
        for start in range(0, rows, block):
            stop = start + block
            by_tap[:, start:stop] = by_row[start:stop].transpose(2, 0, 1)
        by_tap = by_tap.reshape(taps, n, out_h, out_w, c)

        acc = np.zeros(
            (n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype
        )
        for tap, (_, _, rows_at, columns_at) in zip(by_tap, plan.taps):
            acc[:, rows_at, columns_at] += tap
        padded = acc.transpose(0, 3, 1, 2).copy()

    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def maxpool2d_forward(
    images: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, tuple]:
    """Max pooling over square windows; returns ``(out, cache)``.

    ``out`` is ``(n, c, out_h, out_w)`` (channels-last in memory).  Each
    output is the *first* maximum of its window in window order — the
    tie-break of ``argmax``, which also decides whether ``-0.0`` or
    ``0.0`` survives a tie.  ``cache`` feeds :func:`maxpool2d_backward`:
    the input shape and one winner index per output (the window
    position of that first maximum), never the input itself.

    Tiling windows (``stride == kernel``) take one kernel-position-major
    copy of the input, then one strict-greater compare per position.
    The running maximum is updated by a bitwise select on the floats'
    bit patterns rather than a masked copy: exact, and free of the
    data-dependent branches that make masked copies slow.  Every other
    window geometry, and any batch holding a NaN (``argmax`` treats NaN
    as the maximum, which a compare cannot), takes the ``im2col`` +
    ``argmax`` path.
    """
    n, c, h, w = images.shape
    plan = conv_plan(h, w, kernel, kernel, stride, 0)
    out_h, out_w = plan.out_h, plan.out_w

    if stride != kernel or _has_nan(images):
        cols = im2col(images, kernel, kernel, stride, 0).reshape(-1, c, kernel * kernel)
        argmax = cols.argmax(axis=2)
        out = np.take_along_axis(cols, argmax[:, :, None], axis=2)[:, :, 0]
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        winner = argmax.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        return out, (images.shape, kernel, stride, winner)

    taps = kernel * kernel
    bits = _bits_dtype(images.dtype)
    windows = images.transpose(0, 2, 3, 1).reshape(
        n, out_h, kernel, out_w, kernel, c
    )
    by_tap = np.empty((kernel, kernel, n, out_h, out_w, c), dtype=images.dtype)
    np.copyto(by_tap, windows.transpose(2, 4, 0, 1, 3, 5))
    by_tap = by_tap.reshape(taps, n, out_h, out_w, c)

    best = by_tap[0].copy()  # channels-last, like the argmax path's output
    winner = np.zeros(best.shape, dtype=_winner_dtype(taps))
    greater = np.empty(best.shape, dtype=bool)
    step = np.empty_like(winner)
    select = np.empty(best.shape, dtype=bits)
    best_bits = best.view(bits)
    for index in range(1, taps):
        candidate = by_tap[index]
        np.greater(candidate, best, out=greater)
        # positions only grow, so the winner is a running maximum
        np.multiply(greater, winner.dtype.type(index), out=step)
        np.maximum(winner, step, out=winner)
        # best ^= (best ^ candidate) & -greater: take candidate's bits
        np.bitwise_xor(best_bits, candidate.view(bits), out=select)
        select &= np.negative(greater, dtype=bits)
        best_bits ^= select
    winner = np.ascontiguousarray(winner.transpose(0, 3, 1, 2))
    return best.transpose(0, 3, 1, 2), (images.shape, kernel, stride, winner)


def maxpool2d_backward(grad_output: np.ndarray, cache: tuple) -> np.ndarray:
    """Route each output gradient to its window's winning input.

    ``cache`` is the second value :func:`maxpool2d_forward` returned.
    The result is a C-ordered ``(n, c, h, w)`` array holding ``0.0``
    everywhere but the winners.  Tiling windows write each kernel
    position's share straight into the result, as the gradient's bits
    ANDed with an all-ones/all-zeros mask; other geometries scatter
    into columns and fold them with :func:`col2im`, which sums a pixel
    that wins several overlapping windows.
    """
    image_shape, kernel, stride, winner = cache
    n, c, h, w = image_shape
    if stride != kernel:
        argmax = winner.transpose(0, 2, 3, 1).reshape(-1, c)
        rows = argmax.shape[0]
        grad_cols = np.zeros((rows, c, kernel * kernel), dtype=grad_output.dtype)
        flat_grad = grad_output.transpose(0, 2, 3, 1).reshape(-1, c)
        np.put_along_axis(
            grad_cols, argmax[:, :, None], flat_grad[:, :, None], axis=2
        )
        grad_cols = grad_cols.reshape(rows, c * kernel * kernel)
        return col2im(grad_cols, image_shape, kernel, kernel, stride, 0)

    bits = _bits_dtype(grad_output.dtype)
    grad_bits = np.ascontiguousarray(grad_output).view(bits)
    _, _, out_h, out_w = grad_output.shape
    grad_input = np.empty((n, c, out_h, kernel, out_w, kernel), dtype=bits)
    chosen = np.empty(winner.shape, dtype=bool)
    mask = np.empty(winner.shape, dtype=bits)
    for index in range(kernel * kernel):
        y, x = divmod(index, kernel)
        np.equal(winner, index, out=chosen)
        np.negative(chosen, dtype=bits, out=mask)
        np.bitwise_and(grad_bits, mask, out=grad_input[:, :, :, y, :, x])
    return grad_input.reshape(image_shape).view(grad_output.dtype)


def _has_nan(values: np.ndarray) -> bool:
    return values.dtype.kind == "f" and bool(np.isnan(values).any())


def _bits_dtype(dtype: np.dtype) -> np.dtype:
    """The signed integer dtype that views ``dtype``'s bit patterns."""
    return np.dtype(f"i{np.dtype(dtype).itemsize}")


def _winner_dtype(taps: int) -> np.dtype:
    """The narrowest unsigned dtype that indexes ``taps`` positions."""
    return np.dtype(np.uint8) if taps <= 256 else np.dtype(np.intp)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(
    labels: np.ndarray, num_classes: int, dtype: np.dtype | None = None
) -> np.ndarray:
    """Encode integer labels ``(n,)`` as a float matrix ``(n, num_classes)``.

    ``dtype`` defaults to the framework's configured dtype
    (:func:`~repro.nn.config.get_default_dtype`) so the encoding matches
    model activations instead of silently upcasting to float64.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    if dtype is None:
        dtype = get_default_dtype()
    encoded = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectifier ``max(x, 0)``."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`relu` evaluated at ``x`` (0 at the kink)."""
    return (x > 0.0).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def tanh_grad(tanh_out: np.ndarray) -> np.ndarray:
    """Derivative of tanh expressed in terms of its *output*."""
    return 1.0 - tanh_out**2


def stable_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy between ``logits`` and integer ``labels``."""
    logp = log_softmax(logits, axis=1)
    n = logits.shape[0]
    return float(-logp[np.arange(n), labels].mean())
